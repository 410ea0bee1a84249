#!/usr/bin/env bash
# Table gate: builds flexbench, runs every experiment at quick scale,
# drops the wall-clock "[<id> completed in …]" lines and requires the
# sha256 of the rest to equal the first line of tables-golden.sha256.
# The same bytes are also hashed per experiment — each id's piece is its
# output up to its timing line — and every later line of the file holds
# one "<sha256>  <id>"; after them comes one "<sha256>  <spec>" per
# examples/scenarios/*.json, the sha256 of the payload `flexbench run`
# prints for it. A mismatch names every id and spec that moved. Every
# table and payload is a function of the seeds alone, so the hashes do not
# depend on the machine or on -cores; a change that means to move one
# updates the file in the same PR and says so in its title.
set -euo pipefail
cd "$(dirname "$0")/.."
golden=.github/tables-golden.sha256
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/flexbench" ./cmd/flexbench
"$tmp/flexbench" "$@" >"$tmp/out"

# Split at the timing lines: piece.<n> holds the lines before the n-th,
# and ids maps n to the experiment id the line names.
awk -v dir="$tmp" -v n=0 '
/^\[.* completed in .*\]$/ {
	f = dir "/piece." n
	if (!(n in seen))
		printf "" > f
	close(f)
	print n, substr($1, 2) > (dir "/ids")
	n++
	next
}
{ seen[n] = 1; print > (dir "/piece." n) }
' "$tmp/out"
{
	printf '%s  flexbench (every experiment, quick scale, timing lines dropped)\n' \
		"$(grep -v '^\[.* completed in .*\]$' "$tmp/out" | sha256sum | awk '{print $1}')"
	while read -r n id; do
		printf '%s  %s\n' "$(sha256sum <"$tmp/piece.$n" | awk '{print $1}')" "$id"
	done <"$tmp/ids"
	for spec in examples/scenarios/*.json; do
		printf '%s  %s\n' "$("$tmp/flexbench" run "$spec" | sha256sum | awk '{print $1}')" "$spec"
	done
} >"$tmp/got"

if cmp -s "$tmp/got" "$golden"; then
	specs=$(grep -c '  examples/' "$golden")
	echo "tables: ok $(head -n 1 "$golden" | awk '{print $1}'), $(($(wc -l <"$golden") - 1 - specs)) experiments, $specs example specs"
	exit 0
fi
got=$(head -n 1 "$tmp/got" | awk '{print $1}') want=$(head -n 1 "$golden" | awk '{print $1}')
[ "$got" = "$want" ] || echo "tables: sha256 $got, committed $want"
# Name every experiment and spec whose hash differs, is new, or is gone.
awk '
NR == FNR { if (FNR > 1) { want[$2] = $1; order[++n] = $2 } next }
FNR > 1 { got[$2] = $1; if (!($2 in want)) order[++n] = $2 }
END {
	for (i = 1; i <= n; i++) {
		id = order[i]
		w = id in want ? want[id] : "-"
		g = id in got ? got[id] : "-"
		if (w != g) {
			printf "tables: %s sha256 %s, committed %s\n", id, g, w
			moved = moved sep id
			sep = " "
		}
	}
	print "tables: moved: " (moved == "" ? "none (every piece matches; the bytes after the last timing line moved)" : moved)
}
' "$golden" "$tmp/got"
exit 1
