package experiments

import (
	"reflect"
	"testing"

	"flextoe/internal/sim"
)

// TestCellsMatchSerial runs each figure's cell sweep on a worker pool and
// requires the results of the serial loop, slot for slot: cells share no
// mutable state, so -cores changes wall-clock only. This is the test that
// puts runCells with more than one worker in front of the race detector
// (CI's `go test -race ./...`). Durations are the figures' Quick-scale
// ones; each sweep has fewer rows than Quick to keep the run short.
func TestCellsMatchSerial(t *testing.T) {
	const d = 15 * sim.Millisecond
	sw17 := fig17SweepAt(Quick)
	sw17.fanIns = sw17.fanIns[:1]
	sweeps := map[string]func(workers int) any{
		"fig8": func(w int) any { return fig8Cells([]int{2}, d, w) },
		"fig15": func(w int) any {
			small, large := fig15Cells([]float64{0.02}, d, d, w)
			return [2][][]float64{small, large}
		},
		"fig17": func(w int) any {
			incast, ecmp, oversub := fig17Cells(sw17, w)
			return []any{incast, ecmp, oversub}
		},
	}
	for name, sweep := range sweeps {
		serial := sweep(1)
		for _, w := range []int{2, 4} {
			if got := sweep(w); !reflect.DeepEqual(got, serial) {
				t.Errorf("%s: %d workers diverged from the serial loop", name, w)
			}
		}
	}
}
