// Package stats provides the deterministic random number generation and
// measurement primitives (histograms, percentiles, fairness indices) used
// by the FlexTOE simulation and its benchmark harness.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+). Every simulated experiment owns its own RNG seeded from
// the experiment parameters, so runs are reproducible.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed non-zero state for any input.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Split returns a new RNG deterministically derived from this one,
// useful to give each simulated entity an independent stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
