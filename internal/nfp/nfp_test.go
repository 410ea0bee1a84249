package nfp

import (
	"testing"
	"testing/quick"

	"flextoe/internal/sim"
)

func TestFPCSingleTaskTiming(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	var doneAt sim.Time
	eng.AtCall(0, func(any) {
		f.SubmitCall(sim.TaskC(100), func(any) { doneAt = eng.Now() }, nil)
	}, nil)
	eng.Run()
	// 100 cycles at 800 MHz = 125 ns.
	if doneAt != 125*sim.Nanosecond {
		t.Fatalf("done at %v", doneAt)
	}
	if f.Instructions != 100 || f.Tasks != 1 {
		t.Fatalf("counters: instr=%d tasks=%d", f.Instructions, f.Tasks)
	}
}

func TestFPCComputeSerializesAcrossThreads(t *testing.T) {
	// Two pure-compute tasks cannot overlap: one issue slot.
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	var times []sim.Time
	eng.AtCall(0, func(any) {
		f.SubmitCall(sim.TaskC(100), func(any) { times = append(times, eng.Now()) }, nil)
		f.SubmitCall(sim.TaskC(100), func(any) { times = append(times, eng.Now()) }, nil)
	}, nil)
	eng.Run()
	if times[0] != 125*sim.Nanosecond || times[1] != 250*sim.Nanosecond {
		t.Fatalf("times = %v", times)
	}
}

func TestFPCThreadsHideStalls(t *testing.T) {
	// Tasks that stall let other threads' compute proceed: with 8
	// threads, 8 tasks of (100 compute, 1000ns stall) finish in
	// ~(8*125ns serial compute) + 1000ns, not 8*(125+1000).
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	var last sim.Time
	eng.AtCall(0, func(any) {
		for i := 0; i < 8; i++ {
			f.SubmitCall(sim.TaskC(100).Add(0, 1000*sim.Nanosecond), func(any) { last = eng.Now() }, nil)
		}
	}, nil)
	eng.Run()
	want := 8*125*sim.Nanosecond + 1000*sim.Nanosecond
	if last != want {
		t.Fatalf("last = %v, want %v", last, want)
	}
}

func TestFPCSingleThreadSerializesStalls(t *testing.T) {
	// The Table 3 ablation: with 1 thread, stalls serialize too.
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	f.SetThreads(1)
	var last sim.Time
	eng.AtCall(0, func(any) {
		for i := 0; i < 4; i++ {
			f.SubmitCall(sim.TaskC(100).Add(0, 1000*sim.Nanosecond), func(any) { last = eng.Now() }, nil)
		}
	}, nil)
	eng.Run()
	want := 4 * (125*sim.Nanosecond + 1000*sim.Nanosecond)
	if last != want {
		t.Fatalf("last = %v, want %v", last, want)
	}
}

func TestFPCFreeThreadsAndRunq(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	done := 0
	eng.AtCall(0, func(any) {
		if f.FreeThreads() != 8 {
			t.Errorf("FreeThreads = %d", f.FreeThreads())
		}
		for i := 0; i < 12; i++ { // 4 beyond thread count
			f.SubmitCall(sim.TaskC(10), func(any) { done++ }, nil)
		}
		if f.FreeThreads() != 0 {
			t.Errorf("FreeThreads after submit = %d", f.FreeThreads())
		}
	}, nil)
	eng.Run()
	if done != 12 {
		t.Fatalf("done = %d", done)
	}
}

func TestFPCIdleCallback(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	idleCalls := 0
	f.Idle = func() { idleCalls++ }
	eng.AtCall(0, func(any) {
		f.SubmitCall(sim.TaskC(10), nil, nil)
	}, nil)
	eng.Run()
	if idleCalls == 0 {
		t.Fatal("Idle never invoked")
	}
}

func TestFPCUtilization(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	f := NewFPC(eng, "fpc0", &cfg)
	eng.AtCall(0, func(any) { f.SubmitCall(sim.TaskC(800), nil, nil) }, nil) // 1 us busy
	eng.AtCall(0, func(any) {}, nil)
	eng.Run()
	// Engine ends at 1us; utilization should be 1.0.
	if u := f.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestCacheDirectMappedConflicts(t *testing.T) {
	c := NewCache(4, 1)
	// Keys 0 and 4 conflict (same set).
	c.Access(0)
	if !c.Access(0) {
		t.Fatal("immediate re-access missed")
	}
	c.Access(4)
	if c.Access(0) {
		t.Fatal("conflicting key not evicted in direct-mapped cache")
	}
}

func TestCacheLRUFullyAssociative(t *testing.T) {
	c := NewCache(4, 4)
	for k := uint64(0); k < 4; k++ {
		c.Access(k)
	}
	// Touch 0 to make it most recent; insert 4 -> evicts 1.
	c.Access(0)
	c.Access(4)
	if !c.Contains(0) {
		t.Fatal("recently used entry evicted")
	}
	if c.Contains(1) {
		t.Fatal("LRU entry not evicted")
	}
}

func TestCacheHitRate(t *testing.T) {
	c := NewCache(16, 16)
	for i := 0; i < 100; i++ {
		c.Access(uint64(i % 8)) // working set fits
	}
	if c.Hits < 90 || c.Hits+c.Misses != 100 {
		t.Fatalf("%d hits, %d misses of 100 accesses, want >= 90 hits", c.Hits, c.Misses)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(8, 2)
	c.Access(3)
	c.Invalidate(3)
	if c.Contains(3) {
		t.Fatal("entry survives invalidate")
	}
}

func TestCachePropertyInstallAfterMiss(t *testing.T) {
	// Property: immediately after any access, the key is present.
	f := func(keys []uint64) bool {
		c := NewCache(32, 4)
		for _, k := range keys {
			c.Access(k)
			if !c.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateCacheLatencyLevels(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	cls := NewCLSCache(&cfg)
	emem := NewEMEMCache(&cfg)
	sc := NewStateCache(&cfg, cls, emem)
	_ = eng

	// First access: miss everywhere -> DRAM latency.
	if got := sc.Access(1); got != cfg.CyclesTime(cfg.DRAMCycles) {
		t.Fatalf("cold access stall = %v", got)
	}
	// Second access: local CAM hit.
	if got := sc.Access(1); got != cfg.CyclesTime(cfg.LocalMemCycles) {
		t.Fatalf("warm access stall = %v", got)
	}
	// Evict from local CAM by touching 16 other connections; CLS keeps it.
	for k := uint64(100); k < 116; k++ {
		sc.Access(k)
	}
	if got := sc.Access(1); got != cfg.CyclesTime(cfg.CLSCycles) {
		t.Fatalf("CLS access stall = %v", got)
	}
}

func TestStateCacheScalingKnee(t *testing.T) {
	// With a working set beyond CLS capacity, mean stall grows — the
	// Fig. 13 mechanism.
	cfg := AgilioCX40()
	measure := func(conns int) float64 {
		cls := NewCLSCache(&cfg)
		emem := NewEMEMCache(&cfg)
		sc := NewStateCache(&cfg, cls, emem)
		var total sim.Time
		n := 0
		for round := 0; round < 20; round++ {
			for c := 0; c < conns; c++ {
				total += sc.Access(uint64(c))
				n++
			}
		}
		return float64(total) / float64(n)
	}
	small := measure(256)  // fits CLS
	large := measure(4096) // spills to EMEM
	huge := measure(40000) // spills to DRAM
	if !(small < large && large < huge) {
		t.Fatalf("no scaling knee: %v %v %v", small, large, huge)
	}
}

func TestDMAEngineLatencyAndBandwidth(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	d := NewDMAEngine(eng, &cfg)
	var doneAt sim.Time
	eng.AtCall(0, func(any) {
		d.IssueCall(788, func(any) { doneAt = eng.Now() }, nil) // 100ns of wire + latency
	}, nil)
	eng.Run()
	want := sim.Time(float64(788)/cfg.PCIeBytesPerSec*1e12) + cfg.PCIeLatency
	if doneAt < want-2 || doneAt > want+2 {
		t.Fatalf("done at %v, want ~%v", doneAt, want)
	}
}

func TestDMAEngineInflightLimit(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	cfg.DMAMaxInflight = 4
	d := NewDMAEngine(eng, &cfg)
	completed := 0
	eng.AtCall(0, func(any) {
		for i := 0; i < 20; i++ {
			d.IssueCall(1000, func(any) { completed++ }, nil)
		}
		if d.Inflight() != 4 {
			t.Errorf("inflight = %d, want 4", d.Inflight())
		}
	}, nil)
	eng.Run()
	if completed != 20 {
		t.Fatalf("completed = %d", completed)
	}
	if d.PeakInflight != 4 {
		t.Fatalf("peak inflight = %d", d.PeakInflight)
	}
}

// TestSaturatedQueuesAllocFree: an FPC whose run queue and a DMA engine
// whose wait queue never drain (a thread-starved core, a burst beyond the
// transaction slots) must recycle their queue storage. Every completion
// resubmits from a fresh event — after the freed thread or slot has gone
// to the head of the queue — so each completion is one pop and one push
// and the queues hold a few waiting entries for the whole run; a measured
// run makes enough pushes to walk a pop-from-the-front slice off its
// backing array many times.
func TestSaturatedQueuesAllocFree(t *testing.T) {
	eng := sim.New()
	cfg := AgilioCX40()
	cfg.Threads = 1
	cfg.DMAMaxInflight = 2
	f := NewFPC(eng, "fpc0", &cfg)
	d := NewDMAEngine(eng, &cfg)
	task := sim.TaskC(10).Add(5, 20*sim.Nanosecond)
	var taskDone, dmaDone func(any)
	submit := func(any) { f.SubmitCall(task, taskDone, f) }
	issue := func(any) { d.IssueCall(1448, dmaDone, d) }
	taskDone = func(any) { eng.ImmediatelyCall(submit, f) }
	dmaDone = func(any) { eng.ImmediatelyCall(issue, d) }
	for i := 0; i < 4; i++ { // one running, three queued
		f.SubmitCall(task, taskDone, f)
	}
	for i := 0; i < 6; i++ { // two in flight, four waiting
		d.IssueCall(1448, dmaDone, d)
	}
	step := func() { eng.RunUntil(eng.Now() + 50*sim.Microsecond) }
	for i := 0; i < 8; i++ { // warm queue capacity, freelists and the wheel
		step()
	}
	tasks, dmas := f.Tasks, d.Transactions
	allocs := testing.AllocsPerRun(20, step)
	if f.Tasks-tasks < 20*64 || d.Transactions-dmas < 20*64 {
		t.Fatalf("measured runs completed %d tasks and %d DMAs, want >= 64 of each per run",
			f.Tasks-tasks, d.Transactions-dmas)
	}
	if !f.Busy() || f.FreeThreads() != 0 || d.Inflight() != 2 {
		t.Fatal("queues drained: the run no longer exercises the saturated path")
	}
	if allocs > 0 {
		t.Fatalf("saturated FPC run queue + DMA wait queue allocate %.0f/run, want 0", allocs)
	}
}

func TestDMAOverlapsTransactions(t *testing.T) {
	// Two transactions issued together: bandwidth serializes the wire,
	// but latency overlaps — total well under 2*(wire+latency).
	eng := sim.New()
	cfg := AgilioCX40()
	d := NewDMAEngine(eng, &cfg)
	var last sim.Time
	wire := sim.Time(float64(7880) / cfg.PCIeBytesPerSec * 1e12) // 1us
	eng.AtCall(0, func(any) {
		d.IssueCall(7880, func(any) {}, nil)
		d.IssueCall(7880, func(any) { last = eng.Now() }, nil)
	}, nil)
	eng.Run()
	want := 2*wire + cfg.PCIeLatency
	if last < want-2 || last > want+2 {
		t.Fatalf("last = %v, want ~%v", last, want)
	}
}

func TestConfigCycleTime(t *testing.T) {
	cfg := AgilioCX40()
	if cfg.CyclePs() != 1250*sim.Picosecond {
		t.Fatalf("cycle = %v", cfg.CyclePs())
	}
	if cfg.CyclesTime(1500) != 1875*sim.Nanosecond {
		// The paper's ECN-gradient example: 1,500 cycles = 1.9us.
		t.Fatalf("1500 cycles = %v", cfg.CyclesTime(1500))
	}
}
