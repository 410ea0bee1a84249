package stats

import "math"

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s via a precomputed CDF and binary search: O(n) setup,
// O(log n) per sample, zero allocations and fully deterministic for a
// given RNG stream (unlike rejection samplers, whose draw count varies
// per sample). Used by the connection-scaling experiments to model
// long-lived fleets where a small hot set carries most of the traffic.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s (s = 0 is
// uniform; s ≈ 1 is classic Zipf).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // exact upper bound despite rounding
	return &Zipf{cdf: cdf}
}

// Pick draws one rank in [0, N) using the caller's RNG.
func (z *Zipf) Pick(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
