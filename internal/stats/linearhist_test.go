package stats

import (
	"sort"
	"testing"
)

// quantileRef indexes a sorted copy of the observations at ceil(q*n)-1 —
// the reference LinearHist.Quantile must reproduce.
func quantileRef(obs []int, q float64) int {
	if len(obs) == 0 {
		return 0
	}
	s := append([]int(nil), obs...)
	sort.Ints(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(q * float64(len(s)))
	if float64(rank) < q*float64(len(s)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func TestQuantileAgainstSortedSlice(t *testing.T) {
	r := NewRNG(77)
	for trial := 0; trial < 50; trial++ {
		max := 1 + r.Intn(200)
		n := 1 + r.Intn(500)
		h := NewLinearHist(max)
		obs := make([]int, 0, n)
		for i := 0; i < n; i++ {
			v := r.Intn(max + 1)
			h.Record(v)
			obs = append(obs, v)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got, want := h.Quantile(q), quantileRef(obs, q)
			if got != want {
				t.Fatalf("trial %d: Quantile(%g) = %d, sorted-slice reference = %d (n=%d max=%d)",
					trial, q, got, want, n, max)
			}
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := NewLinearHist(10)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", got)
	}
}

func TestQuantileSingleValue(t *testing.T) {
	h := NewLinearHist(100)
	h.Record(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%g) = %d, want 42", q, got)
		}
	}
}

// TestAddMatchesCombinedRecording: merging partial histograms must be
// indistinguishable from recording every observation into one histogram.
func TestAddMatchesCombinedRecording(t *testing.T) {
	r := NewRNG(78)
	for trial := 0; trial < 25; trial++ {
		max := 1 + r.Intn(100)
		a, b, combined := NewLinearHist(max), NewLinearHist(max), NewLinearHist(max)
		for i := 0; i < 300; i++ {
			v := r.Intn(max + 1)
			if i%2 == 0 {
				a.Record(v)
			} else {
				b.Record(v)
			}
			combined.Record(v)
		}
		a.Add(b)
		if a.Count() != combined.Count() || a.Mean() != combined.Mean() ||
			a.MaxSeen() != combined.MaxSeen() {
			t.Fatalf("trial %d: merged (n=%d mean=%g max=%d) != combined (n=%d mean=%g max=%d)",
				trial, a.Count(), a.Mean(), a.MaxSeen(),
				combined.Count(), combined.Mean(), combined.MaxSeen())
		}
		for v := 0; v <= max; v++ {
			if a.counts[v] != combined.counts[v] {
				t.Fatalf("trial %d: bucket %d: merged %d != combined %d",
					trial, v, a.counts[v], combined.counts[v])
			}
		}
		for _, q := range []float64{0.5, 0.99} {
			if a.Quantile(q) != combined.Quantile(q) {
				t.Fatalf("trial %d: Quantile(%g): merged %d != combined %d",
					trial, q, a.Quantile(q), combined.Quantile(q))
			}
		}
	}
}

// TestAddClampsWiderSource: observations beyond the destination's range
// clamp into the top bucket, exactly as Record would have.
func TestAddClampsWiderSource(t *testing.T) {
	narrow, wide := NewLinearHist(4), NewLinearHist(100)
	wide.Record(2)
	wide.Record(50)
	wide.Record(99)
	narrow.Add(wide)
	if narrow.Count() != 3 || narrow.counts[2] != 1 || narrow.counts[4] != 2 {
		t.Fatalf("clamped merge: count=%d b2=%d b4=%d, want 3/1/2",
			narrow.Count(), narrow.counts[2], narrow.counts[4])
	}
	if narrow.Quantile(1) != 4 {
		t.Fatalf("clamped max quantile = %d, want 4", narrow.Quantile(1))
	}
	narrow.Add(nil) // no-op
	if narrow.Count() != 3 {
		t.Fatalf("Add(nil) changed count")
	}
}
