package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"flextoe/internal/scenario"
)

// TestEventsPerSegmentBudget runs benchmark workloads at 1/16 of their
// duration through the public scenario path and counts, as the benchmark
// does, events executed per segment received by all machines over the
// measured window behind the first progress chunk. The count is exact for
// a spec and is the simulator's largest cost factor (ROADMAP item 7). Each
// budget sits just above the count it gates, with the margin a 1/16 window
// adds over the full one and nothing more, so an event added per segment
// anywhere on the path trips it:
//
//   - kv_flextoe: 29.3 while every FPC step cost two events and an idle
//     host core was kicked, 23.5 since a step is one wake-up and an idle
//     core starts its task directly, 22.5 since a switch hop books the
//     egress serializer at forward time instead of scheduling a crossbar
//     event, 21.5 since a kick arms the transmit pump only when the
//     carousel holds a flow (1.03 pumps a segment found nothing to send);
//   - incast_fabric: three switch hops a frame, so the crossbar events
//     were 3 of its 28.4; 25.4 without them, 22.3 without the empty pumps
//     (3.20 a segment).
func TestEventsPerSegmentBudget(t *testing.T) {
	for _, row := range []struct {
		workload string
		budget   float64
	}{
		{"kv_flextoe", 22.0},
		{"incast_fabric", 23.0},
	} {
		t.Run(row.workload, func(t *testing.T) {
			perSeg := eventsPerSegment(t, row.workload)
			if perSeg > row.budget {
				t.Errorf("%.2f engine events per received segment, budget %.1f", perSeg, row.budget)
			}
		})
	}
}

// eventsPerSegment runs bench/workloads/<workload>.json at 1/16 of its
// duration and returns its events per received segment.
func eventsPerSegment(t *testing.T, workload string) float64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	spec.DurationUs /= 16
	b, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	read := func() (events, segs uint64) {
		for _, m := range spec.Machines {
			segs += b.TB.M(m.Name).TOE.Counters.RxSegs
		}
		return b.TB.Eng.Processed(), segs
	}
	var ev0, seg0, ev1, seg1 uint64
	if _, err := b.Execute(func(doneUs, totalUs int64) bool {
		switch {
		case doneUs == 0:
		case ev0 == 0:
			ev0, seg0 = read()
		default:
			ev1, seg1 = read()
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seg1-seg0 < 50_000 {
		t.Fatalf("only %d segments in the window: not the benchmark's workload", seg1-seg0)
	}
	perSeg := float64(ev1-ev0) / float64(seg1-seg0)
	t.Logf("%d events / %d segments = %.2f events per segment", ev1-ev0, seg1-seg0, perSeg)
	return perSeg
}
