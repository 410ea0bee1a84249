package sim

import "testing"

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := (2 * Microsecond).String(); got != "2.000us" {
		t.Fatalf("2 us prints as %s", got)
	}
	if got := (1500 * Nanosecond).String(); got != "1.500us" {
		t.Fatalf("1500 ns prints as %s", got)
	}
	if got := (3 * Second / 2).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestCyclesExactAt800MHz(t *testing.T) {
	// One 800 MHz FPC cycle is exactly 1250 ps.
	if got := Cycles(1, 800e6); got != 1250*Picosecond {
		t.Fatalf("Cycles(1, 800MHz) = %v", got)
	}
	if got := Cycles(1000, 800e6); got != 1250*Nanosecond {
		t.Fatalf("Cycles(1000, 800MHz) = %v", got)
	}
	// 2 GHz host core: 500 ps.
	if got := Cycles(3, 2e9); got != 1500*Picosecond {
		t.Fatalf("Cycles(3, 2GHz) = %v", got)
	}
}

func TestCyclesRounds(t *testing.T) {
	// 3 cycles at 2.35 GHz = 1276.59... ps, rounds to 1277.
	if got := Cycles(3, 2_350_000_000); got != 1277 {
		t.Fatalf("Cycles(3, 2.35GHz) = %v", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.AtCall(30, func(any) { order = append(order, 3) }, nil)
	e.AtCall(10, func(any) { order = append(order, 1) }, nil)
	e.AtCall(20, func(any) { order = append(order, 2) }, nil)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.AtCall(100, func(any) { order = append(order, i) }, nil)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.AtCall(5, func(any) {
		hits = append(hits, e.Now())
		e.AfterCall(7, func(any) { hits = append(hits, e.Now()) }, nil)
	}, nil)
	e.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := New()
	e.AtCall(100, func(any) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.AtCall(50, func(any) {}, nil)
	}, nil)
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	e.AtCall(10, func(any) { ran++ }, nil)
	e.AtCall(20, func(any) { ran++ }, nil)
	e.AtCall(30, func(any) { ran++ }, nil)
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	// RunUntil advances the clock even with no events in range.
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEveryCall(t *testing.T) {
	e := New()
	n := 0
	Unowned(e, "the test's periodic source").EveryCall(100, 50, func(a any) bool {
		p := a.(*int)
		*p++
		return *p < 4
	}, &n)
	e.Run()
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	if e.Now() != 100+3*50 {
		t.Fatalf("now = %v", e.Now())
	}
}

// TestEveryCallAllocFree: steady-state firings of an armed EveryCall
// must not allocate (the arming itself may allocate its one carrier).
func TestEveryCallAllocFree(t *testing.T) {
	e := New()
	n := 0
	Unowned(e, "the test's periodic source").EveryCall(0, 10, func(a any) bool { n++; return true }, nil)
	e.RunUntil(100) // warm up past the arming
	allocs := testing.AllocsPerRun(50, func() {
		e.RunUntil(e.Now() + 1000)
	})
	if allocs > 0 {
		t.Fatalf("EveryCall firing allocates %.1f/run", allocs)
	}
	if n == 0 {
		t.Fatal("callback never fired")
	}
}

func TestResourceSerializes(t *testing.T) {
	e := New()
	// 1000 units/second => 1e9 ps per unit.
	r := NewResource(e, "link", 1000)
	var done []Time
	e.AtCall(0, func(any) {
		r.AcquireCall(1, 0, func(any) { done = append(done, e.Now()) }, nil)
		r.AcquireCall(1, 0, func(any) { done = append(done, e.Now()) }, nil)
	}, nil)
	e.Run()
	if len(done) != 2 {
		t.Fatalf("done = %v", done)
	}
	if done[0] != Time(1e9) || done[1] != Time(2e9) {
		t.Fatalf("completion times = %v", done)
	}
}

func TestResourceExtraLatencyDoesNotBlockPipe(t *testing.T) {
	e := New()
	r := NewResource(e, "pcie", 1000)
	var done []Time
	e.AtCall(0, func(any) {
		// extra latency applies per transfer but doesn't occupy the wire.
		r.AcquireCall(1, 500, func(any) { done = append(done, e.Now()) }, nil)
		r.AcquireCall(1, 500, func(any) { done = append(done, e.Now()) }, nil)
	}, nil)
	e.Run()
	if done[0] != Time(1e9+500) || done[1] != Time(2e9+500) {
		t.Fatalf("completion times = %v", done)
	}
}

func TestTaskAccessors(t *testing.T) {
	task := TaskC(100).Add(50, 10*Nanosecond).Add(25, 5*Nanosecond)
	if task.Instructions() != 175 {
		t.Fatalf("instructions = %d", task.Instructions())
	}
	if task.StallTime() != 15*Nanosecond {
		t.Fatalf("stall = %v", task.StallTime())
	}
}

// lendCount is a test pool: n objects out.
type lendCount struct{ n int }

func (l *lendCount) Lent() int { return l.n }

// TestUnreturnedNamesOpenPools: nil while every registered pool is even,
// and otherwise every pool that is out or over, by name, in registration
// order.
func TestUnreturnedNamesOpenPools(t *testing.T) {
	e := New()
	if err := e.Unreturned(); err != nil {
		t.Fatalf("no pools: %v", err)
	}
	frames, packets, timers := &lendCount{}, &lendCount{}, &lendCount{}
	e.Lends("frames", frames)
	e.Lends("packets", packets)
	e.Lends("timers", timers)
	if err := e.Unreturned(); err != nil {
		t.Fatalf("all returned: %v", err)
	}
	timers.n, frames.n = 2, -1
	err := e.Unreturned()
	if err == nil || err.Error() != "sim: loans not returned: frames -1, timers +2" {
		t.Fatalf("Unreturned = %v", err)
	}
}
