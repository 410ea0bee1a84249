// Package nfp models the Netronome NFP-4000 network processor that the
// Agilio-CX40 implementation of FlexTOE targets (§2.3, §4): flow
// processing cores (FPCs) with eight hardware threads over a single issue
// slot, islands with local memories (CLS, CTM), shared SRAM (IMEM) and
// DRAM (EMEM) with the paper's published access latencies, content-
// addressable caches, and an asynchronous PCIe DMA engine with 256
// transaction slots.
//
// The model captures the properties the paper's design arguments rest on:
// wimpy single-issue cores where sequential execution is slow, hardware
// multithreading that hides memory stalls (Table 3's 2.25× step), and an
// order-of-magnitude spread in memory access latency that makes caching
// decisive (Fig. 13).
package nfp

import (
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// Config describes an NFP-4000-class part.
type Config struct {
	FPCHz   int64 // FPC clock (Agilio CX: 800 MHz; Agilio LX: 1.2 GHz)
	Threads int   // hardware threads per FPC (8)

	// Memory access latencies in FPC cycles (§2.3: CLS/CTM up to 100,
	// IMEM up to 250, EMEM up to 500; DRAM behind the EMEM cache costs
	// more).
	LocalMemCycles int
	CLSCycles      int
	CTMCycles      int
	IMEMCycles     int
	EMEMCycles     int
	DRAMCycles     int

	// Cache geometry (§4.1).
	LocalCAMEntries  int // per-FPC fully associative LRU (16)
	CLSCacheEntries  int // per-island direct-mapped (512)
	EMEMCacheEntries int // EMEM's 3 MB SRAM cache, in connection states
	PreLookupEntries int // pre-processor's direct-mapped lookup cache (128)

	// PCIe Gen3 x8 DMA engine (§2.3).
	PCIeBytesPerSec float64
	PCIeLatency     sim.Time // per-transaction round-trip latency
	DMAMaxInflight  int      // asynchronous transaction slots (256)

	// MMIO doorbell write latency observed by the host.
	MMIOLatency sim.Time
}

// AgilioCX40 returns the configuration of the Netronome Agilio-CX40 used
// in the paper's evaluation.
func AgilioCX40() Config {
	return Config{
		FPCHz:   800e6,
		Threads: 8,

		LocalMemCycles: 1,
		CLSCycles:      100,
		CTMCycles:      100,
		IMEMCycles:     250,
		EMEMCycles:     500,
		DRAMCycles:     900,

		LocalCAMEntries:  16,
		CLSCacheEntries:  512,
		EMEMCacheEntries: 8192,
		PreLookupEntries: 128,

		PCIeBytesPerSec: 7.88e9, // PCIe Gen3 x8 effective
		PCIeLatency:     850 * sim.Nanosecond,
		DMAMaxInflight:  256,

		MMIOLatency: 300 * sim.Nanosecond,
	}
}

// CyclePs returns the FPC cycle time in picoseconds.
func (c *Config) CyclePs() sim.Time { return sim.Cycles(1, c.FPCHz) }

// CyclesTime converts FPC cycles to simulated time.
func (c *Config) CyclesTime(n int) sim.Time { return sim.Cycles(int64(n), c.FPCHz) }

// FPC is one flow processing core: an independent single-issue 32-bit core
// with a fixed number of hardware threads. Compute bursts from different
// threads serialize on the single issue slot; memory stalls overlap with
// other threads' compute (this is exactly why intra-FPC parallelism buys
// the paper's 2.25×).
type FPC struct {
	Name string

	eng     *sim.Engine
	own     sim.Owner
	cyclePs sim.Time
	threads int

	// idle is the stack of free hardware threads, each as the scheduling
	// handle its events carry (own.Sub(thread index)): wake-ups of two
	// threads that fall on one instant run in thread order, whichever
	// step was issued first.
	idle      []sim.Owner
	runq      []*fpcTask // FIFO of tasks waiting for a thread, from runqHead
	runqHead  int
	issueBusy sim.Time // accumulated issue-slot busy time
	issueFree sim.Time // next instant the issue slot is free

	// free is the freelist of per-task execution records; tasks running or
	// queued hold at most threads+runq of them, so the list stays tiny.
	free shm.Freelist[fpcTask]

	// Idle runs whenever a hardware thread frees up, letting the owning
	// pipeline stage pull more work.
	Idle func()

	// Statistics.
	Tasks        uint64
	Instructions uint64
}

// fpcTask is the execution record of one submitted task, from submission
// to completion: its steps (the only copy the FPC keeps — a queued task
// waits in its record), the step cursor and the completion callback.
// Records are recycled via the FPC's freelist so steady-state submission
// allocates nothing.
type fpcTask struct {
	f     *FPC
	own   sim.Owner // the hardware thread the task occupies
	steps [sim.MaxTaskSteps]sim.Step
	n     int // steps in use
	idx   int // next step to run
	cb    func(any)
	arg   any
}

// fpcStepDone is the long-lived event callback of the step state machine
// (see sim.Engine.AfterCall): a step's one wake-up, when its stall expires.
func fpcStepDone(a any) { a.(*fpcTask).runStep() }

// NewFPC creates a core with the config's thread count and clock.
func NewFPC(eng *sim.Engine, name string, cfg *Config) *FPC {
	f := &FPC{
		Name:    name,
		eng:     eng,
		own:     eng.NewOwner(),
		cyclePs: cfg.CyclePs(),
	}
	f.SetThreads(cfg.Threads)
	return f
}

// Lent returns the task records out on loan: the tasks running or queued.
func (f *FPC) Lent() int { return f.free.Lent() }

// SetThreads sets the hardware thread count of an idle core (the Table 3
// ablation runs with 1 thread to disable intra-FPC parallelism).
func (f *FPC) SetThreads(n int) {
	if n < 1 {
		panic("nfp: FPC needs at least one thread")
	}
	if f.Busy() {
		panic("nfp: SetThreads on a busy FPC")
	}
	f.threads = n
	f.idle = f.idle[:0]
	for i := n - 1; i >= 0; i-- { // thread 0 on top
		f.idle = append(f.idle, f.own.Sub(i))
	}
}

// FreeThreads returns the number of idle hardware threads.
func (f *FPC) FreeThreads() int { return len(f.idle) }

// Busy reports whether any thread is occupied.
func (f *FPC) Busy() bool { return len(f.idle) < f.threads || f.runqHead < len(f.runq) }

// SubmitStepCall queues a one-step task; cb(arg) runs when it completes
// (nil cb: nothing runs), with cb a long-lived function value and arg the
// per-task state (typically the pipeline work item). If all hardware
// threads are busy the task waits in the core's run queue (callers gate on
// FreeThreads for backpressure; the run queue only absorbs same-instant
// races). The step arrives in registers and is stored once, in the task's
// pooled execution record; the run queue holds records, not tasks. Every
// pipeline stage charges its work this way.
func (f *FPC) SubmitStepCall(step sim.Step, cb func(any), arg any) {
	ft := f.record(cb, arg)
	ft.steps[0], ft.n = step, 1
	f.submit(ft)
}

// SubmitCall is SubmitStepCall for a multi-step task (the run-to-
// completion ablation): its steps are copied into the record and run
// through the same step loop, one wake-up per step.
func (f *FPC) SubmitCall(task sim.Task, cb func(any), arg any) {
	ft := f.record(cb, arg)
	ft.n = task.NumSteps()
	for i := 0; i < ft.n; i++ {
		ft.steps[i] = task.Step(i)
	}
	f.submit(ft)
}

// record takes an execution record from the freelist, cursor at step 0.
func (f *FPC) record(cb func(any), arg any) *fpcTask {
	ft := f.free.Get()
	if ft == nil {
		ft = &fpcTask{f: f}
	}
	ft.idx, ft.cb, ft.arg = 0, cb, arg
	return ft
}

func (f *FPC) submit(ft *fpcTask) {
	if len(f.idle) > 0 {
		f.begin(ft)
		return
	}
	f.runq = append(f.runq, ft)
}

func (f *FPC) begin(ft *fpcTask) {
	top := len(f.idle) - 1
	ft.own, f.idle = f.idle[top], f.idle[:top]
	f.Tasks++
	ft.runStep()
}

// runStep runs the task from its current step. A step's compute burst
// takes the issue slot FIFO behind the bursts already reserved and its
// stall elapses off-slot, so the step's end is known when it starts: the
// slot is booked through issueFree and the thread sleeps until issueFree +
// stall, one wake-up per step. The retirement in between is not an event:
// a one-shot module runs to completion (§3.1), and all another module can
// see of it is the booked slot and the thread it holds.
func (ft *fpcTask) runStep() {
	f := ft.f
	now := f.eng.Now()
	for ft.idx < ft.n {
		step := ft.steps[ft.idx]
		ft.idx++
		end := now
		if step.Compute > 0 {
			f.Instructions += uint64(step.Compute)
			dur := sim.Time(step.Compute) * f.cyclePs
			end = max(now, f.issueFree) + dur
			f.issueFree = end
			f.issueBusy += dur
		}
		if end += step.Stall; end > now {
			ft.own.AtCall(end, fpcStepDone, ft)
			return
		}
	}
	f.finish(ft)
}

func (f *FPC) finish(ft *fpcTask) {
	cb, arg := ft.cb, ft.arg
	ft.cb, ft.arg = nil, nil
	f.idle = append(f.idle, ft.own)
	f.free.Put(ft)
	if cb != nil {
		cb(arg)
	}
	// Start queued work before announcing idleness.
	for len(f.idle) > 0 && f.runqHead < len(f.runq) {
		next := f.runq[f.runqHead]
		f.runq, f.runqHead = shm.PopRing(f.runq, f.runqHead)
		f.begin(next)
	}
	if len(f.idle) > 0 && f.Idle != nil {
		f.Idle()
	}
}
