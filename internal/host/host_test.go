package host

import (
	"math/rand"
	"testing"

	"flextoe/internal/sim"
)

func TestCoreSerializesTasks(t *testing.T) {
	eng := sim.New()
	c := NewCore(eng, "cpu0", 2e9) // 2 GHz: 500ps/cycle
	var done []sim.Time
	eng.AfterCall(0, func(any) {
		c.SubmitCall(sim.TaskC(1000), func(any) { done = append(done, eng.Now()) }, nil) // 500ns
		c.SubmitCall(sim.TaskC(1000), func(any) { done = append(done, eng.Now()) }, nil)
	}, nil)
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if done[0] != 500*sim.Nanosecond || done[1] != 1000*sim.Nanosecond {
		t.Fatalf("completion times = %v", done)
	}
	if c.Tasks != 2 || c.Instructions != 2000 {
		t.Fatalf("counters: %d tasks, %d instr", c.Tasks, c.Instructions)
	}
}

func TestCoreStallsDoNotOverlap(t *testing.T) {
	// Unlike an FPC, a host core blocks on stalls.
	eng := sim.New()
	c := NewCore(eng, "cpu0", 2e9)
	var last sim.Time
	eng.AfterCall(0, func(any) {
		for i := 0; i < 4; i++ {
			c.SubmitCall(sim.TaskC(1000).Add(0, sim.Microsecond), func(any) { last = eng.Now() }, nil)
		}
	}, nil)
	eng.Run()
	want := 4 * (500*sim.Nanosecond + sim.Microsecond)
	if last != want {
		t.Fatalf("last = %v, want %v", last, want)
	}
}

func TestCoreBusyAndQueue(t *testing.T) {
	eng := sim.New()
	c := NewCore(eng, "cpu0", 2e9)
	eng.AfterCall(0, func(any) {
		if c.Busy() {
			t.Error("idle core reports busy")
		}
		c.SubmitCall(sim.TaskC(100), nil, nil)
		c.SubmitCall(sim.TaskC(100), nil, nil)
		if !c.Busy() {
			t.Error("core with work reports idle")
		}
	}, nil)
	eng.Run()
	if c.Busy() {
		t.Error("drained core reports busy")
	}
}

func TestCoreUtilization(t *testing.T) {
	eng := sim.New()
	c := NewCore(eng, "cpu0", 2e9)
	eng.AfterCall(0, func(any) { c.SubmitCall(sim.TaskC(2000), nil, nil) }, nil) // 1us busy
	eng.AfterCall(2*sim.Microsecond, func(any) {}, nil)                          // extend sim to 2us
	eng.Run()
	if u := c.Utilization(); u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// TestSubmitCallOrderAndArgs: call-form tasks run serially in submission
// order with their own arguments, interleaved with plain Submits.
func TestSubmitCallOrderAndArgs(t *testing.T) {
	eng := sim.New()
	c := NewCore(eng, "cpu", 2e9)
	var order []int
	record := func(a any) { order = append(order, a.(int)) }
	c.SubmitCall(sim.TaskC(100), record, 1)
	c.SubmitCall(sim.TaskC(100), func(any) { order = append(order, 2) }, nil)
	c.SubmitCall(sim.TaskC(100), record, 3)
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Tasks != 3 {
		t.Fatalf("tasks = %d", c.Tasks)
	}
}

// TestSubmitCallAllocFree: steady-state SubmitCall (pointer arg, warm
// queue) performs no heap allocation.
func TestSubmitCallAllocFree(t *testing.T) {
	eng := sim.New()
	c := NewCore(eng, "cpu", 2e9)
	nop := func(a any) {}
	// Warm the queue capacity and the engine wheel.
	for i := 0; i < 128; i++ {
		c.SubmitCall(sim.TaskC(10), nop, c)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		c.SubmitCall(sim.TaskC(10), nop, c)
		eng.Run()
	})
	if allocs > 0 {
		t.Fatalf("SubmitCall allocates %.1f/op in steady state", allocs)
	}
}

// TestCoreStartsIdleSubmitDirectly: an idle core starts a submitted task on
// the spot — no kick event in between — and nobody outside can tell. Two
// tasks handed to an idle core in one instant by two callbacks complete
// FIFO at the times a kicked core gave (the first from the submit instant,
// the second behind it), Busy() holds from the first submit to the last
// completion, a task submitted from a completion callback waits its turn,
// and every task costs exactly one engine event.
func TestCoreStartsIdleSubmitDirectly(t *testing.T) {
	eng := sim.New()
	first := eng.NewOwner()
	c := NewCore(eng, "cpu0", 2e9) // 500 ps/cycle
	last := eng.NewOwner()
	const at = 10 * sim.Nanosecond
	type done struct {
		id   int
		at   sim.Time
		busy bool
	}
	var got []done
	note := func(a any) { got = append(got, done{a.(int), eng.Now(), c.Busy()}) }
	busyBetween := true
	look := func(any) { busyBetween = busyBetween && c.Busy() }

	first.AtCall(at, func(any) {
		c.SubmitCall(sim.TaskC(1000), func(a any) { // 500 ns
			note(a)
			c.SubmitCall(sim.TaskC(100), note, 2) // queues behind task 1
		}, 0)
		if !c.Busy() || c.QueueLen() != 0 {
			t.Errorf("after the first submit: Busy %v, QueueLen %d; want a running task and an empty queue", c.Busy(), c.QueueLen())
		}
	}, nil)
	last.AtCall(at, func(any) {
		c.SubmitCall(sim.TaskC(600).Add(0, 100*sim.Nanosecond), note, 1) // 400 ns
		if c.QueueLen() != 1 {
			t.Errorf("after the second submit: QueueLen %d, want 1", c.QueueLen())
		}
	}, nil)
	for _, d := range []sim.Time{0, 1, 499_999, 500_000, 899_999, 900_000, 949_999} {
		last.AtCall(at+d, look, nil)
	}
	before := eng.Processed()
	eng.Run()

	want := []done{
		{0, at + 500*sim.Nanosecond, true}, // task 1 is still queued
		{1, at + 900*sim.Nanosecond, true}, // task 2 is queued by now
		{2, at + 950*sim.Nanosecond, true}, // a callback runs before the core goes idle
	}
	if len(got) != len(want) {
		t.Fatalf("completions %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("completion %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if !busyBetween {
		t.Error("Busy() read false between the first submit and the last completion")
	}
	if c.Busy() || c.Tasks != 3 || c.Instructions != 1700 {
		t.Errorf("at the end: Busy %v, %d tasks, %d instructions", c.Busy(), c.Tasks, c.Instructions)
	}
	// Two submit events, seven looks, and one completion per task.
	if n := eng.Processed() - before; n != 2+7+3 {
		t.Errorf("%d events executed, want %d: a task is one event", n, 2+7+3)
	}
}

// TestStepSubmitMatchesTask: a core runs a task as one interval whose
// stalls block it, so a Task and the one Step carrying its summed
// instructions and stall are the same charge. Two cores on two engines
// take one seeded stream of 1–4-step tasks, several with two stalls
// (TaskC(c).Add(0, s1).Add(0, s2) keeps both, where an FPC would wait
// twice): one core as Tasks through SubmitCall, the other as Steps through
// SubmitStepCall. Completion instants and order, Busy and QueueLen at
// every completion, and Tasks, Instructions and Utilization at the end
// must be equal, and a directed pair pins the instants. Kills, each
// applied and seen failing: the Task reduced by its first step only, a
// second stall or burst lost (instants, Instructions); the stall dropped,
// or a step started over a running task (the directed instants).
func TestStepSubmitMatchesTask(t *testing.T) {
	type done struct {
		at         sim.Time
		id         int
		busy       bool
		queued     int
		tasks, ins uint64
	}
	run := func(seed int64, asStep bool) ([]done, *Core) {
		eng := sim.New()
		c := NewCore(eng, "cpu0", 2_100_000_000) // 476 ps/cycle, rounded
		rng := rand.New(rand.NewSource(seed))
		var got []done
		note := func(a any) {
			got = append(got, done{eng.Now(), a.(int), c.Busy(), c.QueueLen(), c.Tasks, c.Instructions})
		}
		stall := func() sim.Time { return sim.Time([]int64{0, 0, 1, 3, 250}[rng.Intn(5)]) * sim.Nanosecond }
		id := 0
		submit := func(any) {
			task := sim.TaskC(rng.Int63n(3000)).Add(0, stall())
			if rng.Intn(3) == 0 {
				task = task.Add(0, stall()) // a second stall of its own
			}
			for n := rng.Intn(3); n > 0; n-- {
				task = task.Add(rng.Int63n(500), stall())
			}
			if asStep {
				c.SubmitStepCall(sim.Step{Compute: task.Instructions(), Stall: task.StallTime()}, note, id)
			} else {
				c.SubmitCall(task, note, id)
			}
			id++
		}
		at := sim.Time(0)
		for i := 0; i < 400; i++ {
			at += sim.Time(rng.Intn(1500)) * sim.Nanosecond
			eng.AfterCall(at, submit, nil)
			if rng.Intn(4) == 0 {
				eng.AfterCall(at, submit, nil) // a burst: the second queues
			}
		}
		eng.Run()
		return got, c
	}
	for seed := int64(1); seed <= 5; seed++ {
		wantDone, wantCore := run(seed, false)
		gotDone, gotCore := run(seed, true)
		if len(gotDone) != len(wantDone) {
			t.Fatalf("seed %d: %d completions as steps, %d as tasks", seed, len(gotDone), len(wantDone))
		}
		queued := 0
		for i := range wantDone {
			if gotDone[i] != wantDone[i] {
				t.Fatalf("seed %d: completion %d = %+v as a step, %+v as a task", seed, i, gotDone[i], wantDone[i])
			}
			if wantDone[i].queued > 0 {
				queued++
			}
		}
		if gotCore.Tasks != wantCore.Tasks || gotCore.Instructions != wantCore.Instructions ||
			gotCore.Utilization() != wantCore.Utilization() {
			t.Fatalf("seed %d: steps end at %d tasks, %d instructions, utilization %v; tasks at %d, %d, %v", seed,
				gotCore.Tasks, gotCore.Instructions, gotCore.Utilization(),
				wantCore.Tasks, wantCore.Instructions, wantCore.Utilization())
		}
		if queued < 50 {
			t.Errorf("seed %d: only %d completions with work queued behind them: no contention", seed, queued)
		}
	}

	// Directed: two stalls in a Task are one Step with their sum.
	eng := sim.New()
	c := NewCore(eng, "cpu0", 2e9) // 500 ps/cycle
	var at []sim.Time
	rec := func(any) { at = append(at, eng.Now()) }
	c.SubmitCall(sim.TaskC(1000).Add(0, 300*sim.Nanosecond).Add(0, 200*sim.Nanosecond), rec, nil)
	c.SubmitStepCall(sim.Step{Compute: 1000, Stall: 500 * sim.Nanosecond}, rec, nil)
	eng.Run()
	if len(at) != 2 || at[0] != sim.Microsecond || at[1] != 2*sim.Microsecond {
		t.Fatalf("two-stall task and summed step completed at %v, want [1us 2us]", at)
	}
}
