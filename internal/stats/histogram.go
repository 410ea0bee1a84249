package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Histogram records value observations in logarithmically spaced buckets
// (HDR-histogram style: a fixed number of sub-buckets per power of two),
// supporting percentile queries with bounded relative error. Values are
// int64 (the simulation records latencies in picoseconds and sizes in
// bytes).
type Histogram struct {
	subBits uint // sub-buckets per half-decade = 1<<subBits
	counts  []uint64
	n       uint64
	min     int64
	max     int64
}

// NewHistogram returns a histogram with roughly 1/(1<<subBits) relative
// precision. subBits = 7 gives <1% error, plenty for tail latencies.
func NewHistogram() *Histogram {
	return &Histogram{subBits: 7, min: math.MaxInt64, max: math.MinInt64}
}

func (h *Histogram) bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < int64(1)<<h.subBits {
		return int(v)
	}
	// exponent of the highest set bit beyond the linear range
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := uint(exp) - h.subBits
	sub := int(v>>shift) - (1 << h.subBits) // position within [2^exp, 2^(exp+1))
	base := int(1)<<h.subBits + int(shift)*(1<<h.subBits)
	return base + sub
}

// bucketLow returns the smallest value that maps to bucket b.
func (h *Histogram) bucketLow(b int) int64 {
	lin := int(1) << h.subBits
	if b < lin {
		return int64(b)
	}
	rel := b - lin
	shift := uint(rel / lin)
	sub := rel % lin
	return (int64(lin) + int64(sub)) << shift
}

// Record adds one observation.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds count observations of value v.
func (h *Histogram) RecordN(v int64, count uint64) {
	if count == 0 {
		return
	}
	b := h.bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+64)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b] += count
	h.n += count
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Percentile returns the value at quantile p in [0,100]. The result is the
// lower bound of the bucket containing the pth observation, clamped to
// the smallest and largest observation (p 0 and 100 return those).
func (h *Histogram) Percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			v := h.bucketLow(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.subBits != h.subBits {
		panic("stats: merging histograms with different precision")
	}
	for b, c := range other.counts {
		if c == 0 {
			continue
		}
		if b >= len(h.counts) {
			grown := make([]uint64, b+64)
			copy(grown, h.counts)
			h.counts = grown
		}
		h.counts[b] += c
	}
	h.n += other.n
	if other.n > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// JainFairness computes Jain's fairness index over per-entity allocations:
// (sum x)^2 / (n * sum x^2). 1.0 is perfectly fair; 1/n is maximally
// unfair. Empty input returns 1.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 1
	}
	return s * s / (float64(len(xs)) * s2)
}

// PercentileOf returns the pth percentile of a float64 sample (nearest-rank
// on a sorted copy).
func PercentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean of a sample (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
