package host

import (
	"testing"

	"flextoe/internal/sim"
)

func TestCoreSerializesTasks(t *testing.T) {
	eng := sim.New()
	c := NewCore(eng, "cpu0", 2e9) // 2 GHz: 500ps/cycle
	var done []sim.Time
	eng.AtCall(0, func(any) {
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
	eng.AtCall(0, func(any) {
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
	eng.AtCall(0, func(any) {
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
	eng.AtCall(0, func(any) { c.SubmitCall(sim.TaskC(2000), nil, nil) }, nil) // 1us busy
	eng.AtCall(2*sim.Microsecond, func(any) {}, nil)                          // extend sim to 2us
	eng.Run()
	if u := c.Utilization(); u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestMachineLeastLoaded(t *testing.T) {
	eng := sim.New()
	m := NewMachine(eng, "host", 4, 2e9)
	if len(m.Cores) != 4 {
		t.Fatalf("cores = %d", len(m.Cores))
	}
	eng.AtCall(0, func(any) {
		m.Cores[0].SubmitCall(sim.TaskC(10000), nil, nil)
		m.Cores[1].SubmitCall(sim.TaskC(10000), nil, nil)
		ll := m.LeastLoaded()
		if ll == m.Cores[0] || ll == m.Cores[1] {
			t.Error("LeastLoaded picked a busy core over an idle one")
		}
	}, nil)
	eng.Run()
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

func TestCountersAccessors(t *testing.T) {
	c := Counters{Driver: 1, TCPIP: 4, Sockets: 2, App: 1, Other: 3, Instructions: 14.3}
	if c.Total() != 11 {
		t.Fatalf("total = %v", c.Total())
	}
	if ipc := c.IPC(); ipc < 1.29 || ipc > 1.31 {
		t.Fatalf("IPC = %v", ipc)
	}
	var zero Counters
	if zero.IPC() != 0 {
		t.Fatal("zero counters IPC")
	}
}
