#!/usr/bin/env bash
# Payload gate: runs each benchmark workload for one second's worth of work
# (--seed 1 --seconds 1 --trace 0) and requires a correct run with nothing
# failed and the result_sha256 committed in bench-golden.sha256. The
# simulated work is fixed by the flags, so the hash does not depend on the
# machine; a change that means to move a table updates the file in the
# same PR and says so in its title.
set -euo pipefail
cd "$(dirname "$0")/.."
bad=0
while read -r want workload; do
	out=$(bash bench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0) || {
		echo "$workload: benchmark run failed"; echo "$out" | tail -n 3; bad=1; continue; }
	got=$(awk '/^result_sha256 /{print $2}' <<<"$out")
	if ! tail -n 1 <<<"$out" | grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,'; then
		echo "$workload: want correct:true and failed:0, got $(tail -n 1 <<<"$out" | cut -c1-60)"; bad=1
	elif [ "$got" != "$want" ]; then
		echo "$workload: result_sha256 $got, committed $want"; bad=1
	else
		echo "$workload: ok $got"
	fi
done < .github/bench-golden.sha256
exit $bad
