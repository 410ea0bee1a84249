#!/usr/bin/env bash
# Alternating-pairs comparison of two checkouts on one benchmark workload
# (ROADMAP item 1(a)'s measuring half):
#
#   bash .github/bench-pairs.sh PARENT CHANGE WORKLOAD SEED PAIRS
#
# Each pair runs `bash bench/run.sh --workload WORKLOAD --seed SEED --trace 0`
# once in each checkout, the parent first in odd pairs and the change first
# in even ones; the run length is the benchmark's own. For every
# end-to-end metric in the parent's BENCHMARK.json it prints each side's
# median, quartiles (bench/stats.go's rule, Python's exclusive
# statistics.quantiles) and runs in pair order, the
# number of pairs the change won, and a verdict against the metric's bound:
#   unresolved  the parent's interquartile range exceeds the bound, so the
#               runs cannot tell a regression of that size from noise
#               (unless every change run beats every parent run: ok);
#   worse       the change's median is worse than the parent's by more than
#               the bound;
#   ok          otherwise.
# `gain` says whether, over at least 10 pairs, the change's median is
# better by more than the parent's IQR with the change winning at least 9
# pairs in 10. The
# result_sha256 of both sides follows. It reads bench/ and BENCHMARK.json
# and edits neither; the exit code is 1 when a run fails, a verdict is not
# ok, or the two sides' hashes differ.
set -euo pipefail
if [ $# -ne 5 ] || ! [[ $5 =~ ^[1-9][0-9]*$ ]]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD SEED PAIRS" >&2
	exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) workload=$3 seed=$4 pairs=$5
spec="$parent/BENCHMARK.json"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE DIR PAIR: one benchmark run, its output kept as $out/SIDE.PAIR.
run() {
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0) >"$out/$1.$3" 2>&1; then
		echo "pair $3: $1 run failed:" >&2
		tail -n 5 "$out/$1.$3" >&2
		exit 1
	fi
	if ! tail -n 1 "$out/$1.$3" | jq -e '.correct and .failed == 0' >/dev/null; then
		echo "pair $3: $1 run not correct: $(tail -n 1 "$out/$1.$3" | cut -c1-80)" >&2
		exit 1
	fi
}

for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run parent "$parent" "$p"
		run change "$change" "$p"
	else
		run change "$change" "$p"
		run parent "$parent" "$p"
	fi
	echo "pair $p of $pairs done" >&2
done
grep -h '^machine ' "$out/parent.1" "$out/change.1"

# values SIDE METRIC: that metric's value in every run of SIDE, pair order.
values() {
	for ((p = 1; p <= pairs; p++)); do
		tail -n 1 "$out/$1.$p" | jq -r --arg m "$2" '.metrics[$m].value'
	done | paste -sd' '
}

bad=0
printf 'workload %s  seed %s  pairs %s  (parent first in odd pairs)\n' "$workload" "$seed" "$pairs"
while read -r metric better bound; do
	awk -v metric="$metric" -v better="$better" -v bound="$bound" \
		-v par="$(values parent "$metric")" -v chg="$(values change "$metric")" '
	function sorted(s, a,   n, i, j, t) {
		n = split(s, a, " ")
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return n
	}
	# q is bench/stats.go quantile on sorted a[1..n]: position f(n+1),
	# interpolated between its neighbours, clamped to the second and
	# next-to-last (so it extrapolates at the ends of short samples).
	function q(a, n, f,   pos, j) {
		if (n == 1) return a[1]
		pos = f * (n + 1); j = int(pos)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		return a[j] + (pos - j) * (a[j+1] - a[j])
	}
	function runs(a, n,   i, s) { for (i = 1; i <= n; i++) s = s sprintf(" %.4g", a[i]); return s }
	BEGIN {
		n = sorted(par, pa); sorted(chg, ca)
		split(par, pr, " "); split(chg, cr, " ")
		pm = q(pa, n, 0.5); cm = q(ca, n, 0.5); iqr = q(pa, n, 0.75) - q(pa, n, 0.25)
		sign = better == "lower" ? 1 : -1
		wins = 0
		for (i = 1; i <= n; i++) if (sign * (cr[i] - pr[i]) < 0) wins++
		allbetter = better == "lower" ? ca[n] < pa[1] : ca[1] > pa[n]
		verdict = "ok"
		if (iqr > bound * pm && !allbetter) verdict = "unresolved"
		else if (sign * (cm - pm) > bound * pm) verdict = "worse"
		gain = (n >= 10 && sign * (pm - cm) > iqr && wins >= 0.9 * n) ? "yes" : "no"
		printf "%s (%s better, bound %g %%)\n", metric, better, 100 * bound
		printf "  parent median %.4g (quartiles %.4g-%.4g; runs%s)\n", pm, q(pa, n, 0.25), q(pa, n, 0.75), runs(pr, n)
		printf "  change median %.4g (quartiles %.4g-%.4g; runs%s)\n", cm, q(ca, n, 0.25), q(ca, n, 0.75), runs(cr, n)
		printf "  change %+.2f %%, better in %d/%d pairs, parent IQR %.4g; verdict %s, gain %s\n",
			100 * (cm - pm) / pm, wins, n, iqr, verdict, gain
		exit verdict != "ok"
	}' || bad=1
done < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$spec")

for side in parent change; do
	printf 'result_sha256 %s: %s\n' "$side" "$(awk '/^result_sha256 /{print $2}' "$out/$side".* | sort | uniq -c | awk '{printf "%s%s x%d", sep, $2, $1; sep = ", "}')"
done
if [ "$(awk '/^result_sha256 /{print $2}' "$out"/*.* | sort -u | wc -l)" -ne 1 ]; then
	echo "result_sha256 differs between runs"
	bad=1
fi
exit $bad
