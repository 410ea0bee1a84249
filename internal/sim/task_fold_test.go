package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"flextoe/internal/nfp"
	"flextoe/internal/sim"
)

// fpcTrace runs tasks on one two-thread FPC, all submitted at time zero
// (two start, the rest wait in the run queue), and returns each completion
// as "at done i", in order, plus the number of events the engine ran.
func fpcTrace(tasks []sim.Task) (trace []string, processed uint64) {
	eng := sim.New()
	cfg := nfp.AgilioCX40()
	cfg.Threads = 2
	f := nfp.NewFPC(eng, "fpc", &cfg)
	done := func(a any) { trace = append(trace, fmt.Sprintf("%d done %d", eng.Now(), a.(int))) }
	eng.AtCall(0, func(any) {
		for i, task := range tasks {
			f.SubmitCall(task, done, i)
		}
	}, nil)
	eng.Run()
	return trace, eng.Processed()
}

// TestTaskFoldKeepsFPCEvents: Add folds a pure stall into a preceding step
// that does not stall, so a stage's "compute, then maybe stall" task is one
// step instead of two. No one outside the FPC must be able to tell: the
// folded tasks and the same tasks laid out step by step, as Add used to
// build them, complete at the same instants in the same order. An FPC
// wakes a thread once per step, so the folded form saves the wake-up at
// the folded boundary and never executes more events.
func TestTaskFoldKeepsFPCEvents(t *testing.T) {
	const us = sim.Microsecond
	type S = sim.Step
	cases := []struct {
		name     string
		folded   sim.Task
		unfolded sim.Task
		steps    int
	}{
		{"stage: compute then stall",
			sim.TaskC(120).Add(0, 2*us),
			sim.UnfoldedTask(S{Compute: 120}, S{Stall: 2 * us}), 1},
		{"stage: compute, cache hit (no stall)",
			sim.TaskC(90).Add(0, 0),
			sim.UnfoldedTask(S{Compute: 90}, S{}), 1},
		{"no compute, stall only",
			sim.TaskC(0).Add(0, us),
			sim.UnfoldedTask(S{}, S{Stall: us}), 1},
		{"run-to-completion shape: the leading stall folds, the trailing one follows a stalling step",
			sim.TaskC(50).Add(0, us).Add(50, 3*us).Add(0, us/2),
			sim.UnfoldedTask(S{Compute: 50}, S{Stall: us}, S{Compute: 50, Stall: 3 * us}, S{Stall: us / 2}), 3},
		{"the same with a zero DMA stall (a pure ACK): the trailing stall folds too",
			sim.TaskC(50).Add(0, us).Add(50, 0).Add(0, us/2),
			sim.UnfoldedTask(S{Compute: 50}, S{Stall: us}, S{Compute: 50}, S{Stall: us / 2}), 2},
		{"two stalls in a row stay two events",
			sim.TaskC(70).Add(0, us).Add(0, 2*us),
			sim.UnfoldedTask(S{Compute: 70}, S{Stall: us}, S{Stall: 2 * us}), 2},
	}
	var folded, unfolded []sim.Task
	for _, c := range cases {
		if got := c.folded.NumSteps(); got != c.steps {
			t.Errorf("%s: %d steps, want %d", c.name, got, c.steps)
		}
		if c.folded.Instructions() != c.unfolded.Instructions() || c.folded.StallTime() != c.unfolded.StallTime() {
			t.Errorf("%s: folded sums %d instr / %v stall, unfolded %d / %v (a host.Core charges the sums)", c.name,
				c.folded.Instructions(), c.folded.StallTime(), c.unfolded.Instructions(), c.unfolded.StallTime())
		}
		folded = append(folded, c.folded)
		unfolded = append(unfolded, c.unfolded)
	}
	// The deepest task in the tree, core's run-to-completion RX (one
	// TaskC and four Adds), fits MaxTaskSteps only because of the fold.
	mono := sim.TaskC(50).Add(0, us).Add(50, 3*us).Add(50, 4*us).Add(0, us/2)
	if n := mono.NumSteps(); n != sim.MaxTaskSteps {
		t.Errorf("run-to-completion RX task has %d steps, want MaxTaskSteps = %d", n, sim.MaxTaskSteps)
	}
	gotTrace, gotN := fpcTrace(folded)
	wantTrace, wantN := fpcTrace(unfolded)
	if gotN > wantN {
		t.Errorf("Engine.Processed() = %d folded, more than %d unfolded", gotN, wantN)
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Errorf("completion traces differ:\nfolded   %q\nunfolded %q", gotTrace, wantTrace)
	}
	// A completion per task, and the submit event plus a wake-up for each
	// folded step: the trace is not vacuous.
	var steps int
	for _, c := range cases {
		steps += c.steps
	}
	if len(gotTrace) != len(cases) || gotN != uint64(1+steps) {
		t.Errorf("%d completions, %d events; want %d and %d: %q", len(gotTrace), gotN, len(cases), 1+steps, gotTrace)
	}
}
