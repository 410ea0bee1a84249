#!/usr/bin/env bash
# Drift report: what a behavioural change moved, cell by cell (ROADMAP
# item 24(a)):
#
#   bash .github/drift.sh BASE HEAD
#
# BASE and HEAD are checkouts (clone the parent commit into a temporary
# directory). In each it builds flexbench and runs every experiment at
# quick scale, the example specs under examples/scenarios, and every
# workload of BENCHMARK.json at seeds 1-3 through `bash bench/run.sh
# --seconds 1 --trace 1`, then prints, BASE first and HEAD second:
#   - per runner, each table cell that differs, with its row and column
#     labels, old -> new and the relative change (a line outside a table
#     prints whole);
#   - per workload and seed, each differing exact row (every metric row
#     but the host measurements, and result_sha256), and any run that is
#     not correct with nothing failed;
#   - per example spec, the sha256 of its result when it differs.
# Wall-clock lines are left out, so the report is a function of the two
# trees alone, and it is empty when they behave alike. It edits neither
# tree apart from bench/run.sh's own .bench_build/; the exit code is 1
# when a run fails.
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: $0 BASE HEAD" >&2
	exit 2
fi
base=$(cd "$1" && pwd) head=$(cd "$2" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A traced run's metric rows are exact for a seed, all but the host
# measurements (bench/README.md), which these row names cover: the Go
# runtime's, the job service's and the benchmark's own rows, the CPU
# profile's shares, span durations, and host time per event or operation.
host='^(go|server|bench)\.|\.cpu_share$|^scenario\.[a-z_]+_(ms|us)$|^sim\.(host_ns_per_event_|ns_per_event\.|shard2_speedup$)|_ns(\.|$)'

# run SIDE DIR: every output of one tree, under $tmp/SIDE.*.
run() {
	local side=$1 dir=$2 spec w s
	(cd "$dir" && go build -o "$tmp/$side.flexbench" ./cmd/flexbench)
	(cd "$dir" && "$tmp/$side.flexbench") >"$tmp/$side.tables"
	for spec in "$dir"/examples/scenarios/*.json; do
		printf '%s %s\n' "$(cd "$dir" && "$tmp/$side.flexbench" run "$spec" | sha256sum | awk '{print $1}')" \
			"examples/scenarios/$(basename "$spec")"
	done >"$tmp/$side.specs"
	for w in $(jq -r '.workloads[].name' "$dir/BENCHMARK.json"); do
		for s in 1 2 3; do
			(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$s" --seconds 1 --trace 1) >"$tmp/$side.run" 2>&1 || {
				echo "$w seed $s: $side run failed:" >&2
				tail -n 5 "$tmp/$side.run" >&2
				exit 1
			}
			tail -n 1 "$tmp/$side.run" | jq -e '.correct and .failed == 0' >/dev/null ||
				echo "$w seed $s: $side run not correct: $(tail -n 1 "$tmp/$side.run" | cut -c1-80)"
			{
				awk -v k="$w seed $s" '/^result_sha256 /{print k "\t" $1 "\t" $2}' "$tmp/$side.run"
				awk -v k="$w seed $s" -v host="$host" '/^  [a-z]/ && $1 !~ host {print k "\t" $1 "\t" $2}' "$tmp/$side.run"
			} >>"$tmp/$side.exact"
		done
	done
}
run base "$base"
run head "$head"

# Tables: the runners' outputs line by line, a runner's lines ending at its
# "[<id> completed in ...]" line. A table is the line of dashes under its
# header: the dash runs give the columns, the header line their labels,
# the line above it the table's name, and the rows run to the first blank
# or note line. A row's label is its first cells, as many as make every
# row of the table distinct at BASE.
awk '
function trim(s) { gsub(/^ +| +$/, "", s); return s }
function cell(line, j) {
	return trim(j < nc ? substr(line, cs[j], cs[j + 1] - cs[j]) : substr(line, cs[j]))
}
function num(s) { return s ~ /^[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?%?$/ }
function rel(a, b) {
	return num(a) && num(b) && a + 0 != 0 ? sprintf(" (%+.1f%%)", (b - a) / a * 100) : ""
}
FNR == 1 { side++; n = 0; i = 0 }
/^\[.* completed in .*\]$/ { id[n] = substr($1, 2); len[side, n] = i; n++; i = 0; next }
{ line[side, n, ++i] = $0; len[side, n] = i }
END {
	for (p = 0; p < n; p++) {
		if (len[1, p] != len[2, p]) {
			printf "%s: %d lines -> %d\n", id[p], len[1, p], len[2, p]
			continue
		}
		nc = 0
		for (i = 1; i <= len[1, p]; i++) {
			old = line[1, p, i]
			new = line[2, p, i]
			if (old ~ /^-+( +-+)* *$/ && i > 2) {
				# A table starts: its columns, name and row labels.
				nc = 0
				for (c = 1; c <= length(old); c++)
					if (substr(old, c, 1) == "-" && (c == 1 || substr(old, c - 1, 1) == " "))
						cs[++nc] = c
				hdr = line[1, p, i - 1]
				name = line[1, p, i - 2]
				sub(/ — .*/, "", name)
				for (last = i; last < len[1, p] && line[1, p, last + 1] != "" && line[1, p, last + 1] !~ /^note:/; last++) {}
				for (k = 1; k < nc; k++) {
					split("", seen)
					dup = 0
					for (r = i + 1; r <= last; r++) {
						key = ""
						for (j = 1; j <= k; j++)
							key = key " " cell(line[1, p, r], j)
						if (key in seen)
							dup = 1
						seen[key] = 1
					}
					if (!dup)
						break
				}
				continue
			}
			if (nc > 0 && (i > last || old == "")) nc = 0
			if (old == new) continue
			if (nc == 0) {
				printf "%s: %s -> %s\n", id[p], old, new
				continue
			}
			label = cell(old, 1)
			for (j = 2; j <= k; j++)
				label = label " " cell(old, j)
			for (j = 1; j <= nc; j++) {
				a = cell(old, j)
				b = cell(new, j)
				if (a != b)
					printf "%s: %s · %s · %s: %s -> %s%s\n", id[p], name, label, trim(cell(hdr, j)), a, b, rel(a, b)
			}
		}
	}
}
' "$tmp/base.tables" "$tmp/head.tables"

# Workloads: every exact row whose value differs, keyed by workload, seed
# and row name.
awk -F '\t' '
function num(s) { return s ~ /^[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?$/ }
NR == FNR { old[$1 "\t" $2] = $3; next }
{
	k = $1 "\t" $2
	if (old[k] != $3) {
		r = num(old[k]) && num($3) && old[k] + 0 != 0 ? sprintf(" (%+.1f%%)", ($3 - old[k]) / old[k] * 100) : ""
		printf "%s  %s: %s -> %s%s\n", $1, $2, old[k], $3, r
	}
}
' "$tmp/base.exact" "$tmp/head.exact"

# Example specs: by hash only.
awk 'NR == FNR { old[$2] = $1; next } old[$2] != $1 { printf "%s: sha256 %s -> %s\n", $2, old[$2], $1 }' \
	"$tmp/base.specs" "$tmp/head.specs"
