package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"flextoe/internal/scenario"
)

// eventsPerSegmentBudget is the gate on how many engine events the
// FlexTOE pipeline spends on one received segment of the kv_flextoe
// benchmark workload. The count is exact for a spec and is the simulator's
// largest cost factor (ROADMAP item 7): 29.3 while every FPC step cost two
// events and an idle host core was kicked, 23.6 since a step is one
// wake-up and an idle core starts its task directly. The margin is what a
// 1/16 window adds over the full one, nothing more: an event added per
// segment anywhere on the data path trips it.
const eventsPerSegmentBudget = 24.5

// TestEventsPerSegmentBudget runs bench/workloads/kv_flextoe.json at 1/16
// of its duration through the public scenario path and counts, as the
// benchmark does, events executed per segment received by all machines over
// the measured window behind the first progress chunk.
func TestEventsPerSegmentBudget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", "kv_flextoe.json"))
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
	if perSeg > eventsPerSegmentBudget {
		t.Errorf("%.2f engine events per received segment, budget %.1f", perSeg, eventsPerSegmentBudget)
	}
}
