package main

import "sort"

// quantile returns the q-quantile of the values by the rule Python's
// statistics.quantiles uses (the "exclusive" method: position q(n+1) in
// the sorted data, interpolated, clamped to the data). The benchmark
// driver applies that rule to its ten runs, so a run's chunk statistics
// and -agree's run statistics are the same arithmetic. It needs at least
// two values.
func quantile(values []float64, q float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	pos := q * float64(m+1)
	j := min(max(int(pos), 1), m-1)
	frac := pos - float64(j)
	return data[j-1]*(1-frac) + data[j]*frac
}

// quartiles is statistics.quantiles(values, n=4).
func quartiles(values []float64) (q1, q2, q3 float64) {
	return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)
}

// median also accepts a single value.
func median(values []float64) float64 {
	if len(values) == 1 {
		return values[0]
	}
	return quantile(values, 0.5)
}

// ratio is a/b, 0 when b is 0: a share of work that did not happen.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
