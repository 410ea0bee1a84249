#!/usr/bin/env bash
# Driver coverage gate (ROADMAP item 22). Builds every driver with
# coverage over the whole module, runs each once at quick scale, and
# lists the functions no driver reaches (0.0 %). The list must equal
# .github/driver-coverage.txt, whose lines read `function class reason`:
# a function at 0.0 % that is not listed fails (drive it, delete it, or
# list it with its reason), and so does a listed function that a driver
# now reaches (take its line out), so the list only shrinks.
#
# A package no driver links is listed whole, as `<import path>/*`.
#
# The drivers: the module's own main (a usage banner); flexbench's
# seventeen quick-scale runners, named by id, and the three example
# specs; the four bench workloads (--trace 0, and rpc_baselines once more
# with --trace 1, which runs bench's layer drivers and the job service in
# process); the five examples; and `flexbench serve` on a loopback port
# (a usage error, the three example specs and a slow one posted, a spec
# that fails validation, list, status, stream, result, cancel, the
# canceled job's result, then SIGINT).
#
#   bash .github/driver-coverage.sh     # ~1.5 min on 2 vCPUs
set -euo pipefail
cd "$(dirname "$0")/.."
list=.github/driver-coverage.txt
work=$(mktemp -d)
serve=
cleanup() {
	[ -n "$serve" ] && kill "$serve" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
export GOCOVERDIR=$work/cov
mkdir -p "$GOCOVERDIR" "$work/bin"

for d in cmd/flexbench bench examples/firewall examples/memcached examples/quickstart examples/splicing examples/tracing; do
	go build -cover -coverpkg=flextoe/... -o "$work/bin/$(basename "$d")" "./$d"
done
go build -cover -coverpkg=flextoe/... -o "$work/bin/flextoe" .
bin=$work/bin
$bin/flextoe >/dev/null
# Every quick-scale runner, named one by one (the id lookup is a driver's
# path too).
$bin/flexbench $($bin/flexbench -list | awk '{ print $1 }') >/dev/null
for s in examples/scenarios/*.json; do $bin/flexbench run "$s" >/dev/null; done
for w in kv_flextoe bulk_adverse incast_fabric rpc_baselines; do
	$bin/bench --workload "$w" --seconds 1 >/dev/null
done
$bin/bench --workload rpc_baselines --seconds 1 --trace 1 >/dev/null
for e in firewall memcached quickstart splicing; do $bin/$e >/dev/null; done
$bin/tracing -w "$work/t.pcap" >/dev/null

# The serve leg. Port 0 lets the kernel pick; the banner names the port.
# A usage error and a spec that fails validation are a client's paths too.
$bin/flexbench frobnicate 2>/dev/null && exit 1
$bin/flexbench serve -addr 127.0.0.1:0 -dir "$work/jobs" -workers 1 >"$work/serve.out" 2>"$work/serve.err" &
serve=$!
for _ in $(seq 50); do
	grep -q listening "$work/serve.out" 2>/dev/null && break
	sleep 0.1
done
url=http://$(sed -n 's/.* listening on \([^ ]*\) .*/\1/p' "$work/serve.out")
submit() { curl -sf -X POST --data-binary @"$1" "$url/jobs" | sed 's/.*"id":"\([^"]*\)".*/\1/'; }
ids=
for s in examples/scenarios/*.json; do ids="$ids $(submit "$s")"; done
sed 's/"duration_us": 20000/"duration_us": 2000000/' examples/scenarios/fig15c-loss-sweep.json >"$work/slow.json"
slow=$(submit "$work/slow.json")
echo '{"name": "bad", "duration_us": -1}' >"$work/bad.json"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$work/bad.json" "$url/jobs")
[ "$code" = 400 ]
curl -sf "$url/jobs" >/dev/null
for id in $ids; do
	curl -sf "$url/jobs/$id" >/dev/null
	curl -sfN "$url/jobs/$id/stream" | tail -n 1 | grep -q '"type":"done"'
	curl -sf "$url/jobs/$id/result" >/dev/null
done
curl -sf -X POST "$url/jobs/$slow/cancel" >/dev/null
curl -sfN "$url/jobs/$slow/stream" | tail -n 1 | grep -q '"type":"canceled"'
curl -s "$url/jobs/$slow/result" | grep -q 'result only exists once done'
kill -INT "$serve"
wait "$serve"
serve=

go tool covdata func -i="$GOCOVERDIR" >"$work/func.txt"
awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1 ":" $2 }' "$work/func.txt" >"$work/zero.txt"
# A package no driver links has no counters at all: it is listed whole, as
# <import path>/*, when it holds any function.
for p in $(go list ./...); do
	grep -q "^$p/[^/]*\.go:" "$work/func.txt" && continue
	files=$(go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' "$p")
	if [ -n "$files" ] && grep -q '^func ' $files; then echo "$p/*"; fi
done >>"$work/zero.txt"
sort -u -o "$work/zero.txt" "$work/zero.txt"
awk '!/^#/ && NF { print $1 }' "$list" | sort -u >"$work/listed.txt"

fail=0
unlisted=$(comm -23 "$work/zero.txt" "$work/listed.txt")
reached=$(comm -13 "$work/zero.txt" "$work/listed.txt")
if [ -n "$unlisted" ]; then
	echo "driver-coverage: no driver reaches these, and $list does not list them (drive, delete or list each):"
	echo "$unlisted" | sed 's/^/  /'
	fail=1
fi
if [ -n "$reached" ]; then
	echo "driver-coverage: a driver now reaches these listed functions (take their lines out of $list):"
	echo "$reached" | sed 's/^/  /'
	fail=1
fi
[ $fail = 0 ] && echo "driver-coverage: ok, $(wc -l <"$work/zero.txt") functions at 0.0 %, every one listed"
exit $fail
