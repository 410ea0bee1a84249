package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 collisions between different seeds", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRNG(7)
	var s float64
	const n = 100000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	if m := s / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", m)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(9)
	var s float64
	const n = 100000
	for i := 0; i < n; i++ {
		s += r.Exp(25)
	}
	if m := s / n; math.Abs(m-25) > 1 {
		t.Fatalf("exp mean = %v", m)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(17)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn did not cover range: %v", seen)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Percentile(0) != 0 || h.Percentile(100) != 99 {
		t.Fatalf("min/max = %d/%d", h.Percentile(0), h.Percentile(100))
	}
	// Small values are recorded exactly (linear buckets); nearest-rank p50
	// of 0..99 is the 50th observation, value 49.
	if got := h.Percentile(50); got != 49 {
		t.Fatalf("p50 = %d", got)
	}
	if got := h.Percentile(99); got != 98 {
		t.Fatalf("p99 = %d", got)
	}
	if got := h.Percentile(100); got != 99 {
		t.Fatalf("p100 = %d", got)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	values := []int64{1000, 5000, 25000, 100000, 1e6, 1e9, 1e12}
	for _, v := range values {
		h2 := NewHistogram()
		h2.Record(v)
		got := h2.Percentile(50)
		relErr := math.Abs(float64(got-v)) / float64(v)
		if relErr > 0.01 {
			t.Fatalf("value %d recovered as %d (err %.3f)", v, got, relErr)
		}
	}
	_ = h
}

func TestHistogramPercentileMonotone(t *testing.T) {
	r := NewRNG(3)
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Record(int64(r.Exp(1e6)))
	}
	prev := int64(-1)
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 99.99, 100} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotone at p=%v: %d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 50; i++ {
		a.Record(i)
		b.Record(1000 + i)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Percentile(0) != 0 || a.Percentile(100) != 1049 {
		t.Fatalf("min/max = %d/%d", a.Percentile(0), a.Percentile(100))
	}
}

func TestHistogramPropertyPercentileBounds(t *testing.T) {
	// Property: for any set of values, every percentile lies in [min, max].
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		lo, hi := int64(slices.Min(raw)), int64(slices.Max(raw))
		for _, p := range []float64{0, 1, 50, 99, 99.99, 100} {
			v := h.Percentile(p)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{1, 1, 1, 1}); got != 1 {
		t.Fatalf("equal shares JFI = %v", got)
	}
	got := JainFairness([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("single-winner JFI = %v", got)
	}
	if got := JainFairness(nil); got != 1 {
		t.Fatalf("empty JFI = %v", got)
	}
}

func TestJainFairnessPropertyRange(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		j := JainFairness(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOf(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := PercentileOf(xs, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := PercentileOf(xs, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := PercentileOf(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("PercentileOf mutated input")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("mean(nil) = %v", got)
	}
}

func TestLinearHist(t *testing.T) {
	h := NewLinearHist(4)
	if h.Count() != 0 || h.Mean() != 0 || h.MaxSeen() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []int{0, 1, 1, 2, 4, 9, -3} {
		h.Record(v) // 9 clamps to 4, -3 clamps to 0
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.MaxSeen() != 4 {
		t.Fatalf("max = %d", h.MaxSeen())
	}
	if want := []uint64{2, 2, 1, 0, 2}; !slices.Equal(h.counts, want) {
		t.Fatalf("dist = %v, want %v", h.counts, want)
	}
	want := float64(0+1+1+2+4+4+0) / 7
	if h.Mean() != want {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
}
