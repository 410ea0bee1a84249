package stats

// LinearHist counts observations of a small discrete quantity in [0, max]
// with one exact bucket per value — occupancy-style statistics (queue
// depths, reassembly interval counts) where the HDR histogram's
// logarithmic buckets are overkill and its per-record cost too high for a
// per-segment hot path. Recording is one bounds check and one increment.
type LinearHist struct {
	counts []uint64
	n      uint64
	sum    uint64
}

// NewLinearHist returns a histogram for values 0..max inclusive; larger
// observations clamp to max.
func NewLinearHist(max int) *LinearHist {
	if max < 0 {
		max = 0
	}
	return &LinearHist{counts: make([]uint64, max+1)}
}

// Record adds one observation (clamped to the bucket range).
func (h *LinearHist) Record(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.n++
	h.sum += uint64(v)
}

// Reset clears every bucket (end of a warmup phase).
func (h *LinearHist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
}

// Count returns the number of observations.
func (h *LinearHist) Count() uint64 { return h.n }

// Mean returns the mean observation (0 when empty).
func (h *LinearHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// MaxSeen returns the largest recorded value (0 when empty).
func (h *LinearHist) MaxSeen() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return 0
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded values:
// the smallest value v such that at least ceil(q*n) observations are <= v
// — the same answer indexing a sorted slice of the observations at
// ceil(q*n)-1 would give. Returns 0 when empty; q <= 0 yields the
// minimum, q >= 1 the maximum.
func (h *LinearHist) Quantile(q float64) int {
	if h.n == 0 {
		return 0
	}
	rank := uint64(1)
	if q > 0 {
		// ceil(q*n) without float drift at the q=1 edge.
		if q >= 1 {
			rank = h.n
		} else {
			rank = uint64(q * float64(h.n))
			if float64(rank) < q*float64(h.n) {
				rank++
			}
			if rank == 0 {
				rank = 1
			}
			if rank > h.n {
				rank = h.n
			}
		}
	}
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= rank {
			return v
		}
	}
	return len(h.counts) - 1
}

// Add merges another histogram into this one bucket-wise, so per-analyzer
// histograms combine deterministically at readout: observations in
// buckets beyond this histogram's range clamp into the top bucket,
// exactly as Record would have clamped them.
func (h *LinearHist) Add(o *LinearHist) {
	if o == nil {
		return
	}
	top := len(h.counts) - 1
	for v, c := range o.counts {
		if c == 0 {
			continue
		}
		dst := v
		if dst > top {
			dst = top
		}
		h.counts[dst] += c
		h.n += c
		h.sum += uint64(dst) * c
	}
}

// Bucket returns the count of observations of exactly v (0 out of range).
func (h *LinearHist) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Dist returns a copy of the per-value counts, index = value.
func (h *LinearHist) Dist() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}
