package nfp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flextoe/internal/sim"
)

// refFPC is the two-event core the fused FPC replaced, kept as its oracle:
// a step's compute burst retires in one event, and only then is the stall's
// expiry scheduled as a second. Same issue slot, same thread handles, same
// run queue.
type refFPC struct {
	eng     *sim.Engine
	cyclePs sim.Time
	idle    []sim.Owner
	runq    []*refTask

	issueBusy, issueFree sim.Time
	instructions         uint64
}

type refTask struct {
	f    *refFPC
	own  sim.Owner
	task sim.Task
	idx  int
	cb   func(any)
	arg  any
}

func (f *refFPC) SubmitCall(task sim.Task, cb func(any), arg any) {
	rt := &refTask{f: f, task: task, cb: cb, arg: arg}
	if len(f.idle) == 0 {
		f.runq = append(f.runq, rt)
		return
	}
	f.begin(rt)
}

func (f *refFPC) begin(rt *refTask) {
	top := len(f.idle) - 1
	rt.own, f.idle = f.idle[top], f.idle[:top]
	rt.runStep()
}

func (rt *refTask) runStep() {
	f := rt.f
	if rt.idx >= rt.task.NumSteps() {
		f.idle = append(f.idle, rt.own)
		rt.cb(rt.arg)
		for len(f.idle) > 0 && len(f.runq) > 0 {
			next := f.runq[0]
			f.runq = f.runq[1:]
			f.begin(next)
		}
		return
	}
	if c := rt.task.Step(rt.idx).Compute; c > 0 {
		f.instructions += uint64(c)
		dur := sim.Time(c) * f.cyclePs
		f.issueFree = max(f.issueFree, f.eng.Now()) + dur
		f.issueBusy += dur
		rt.own.AtCall(f.issueFree, func(any) { rt.afterCompute() }, nil)
		return
	}
	rt.afterCompute()
}

func (rt *refTask) afterCompute() {
	if stall := rt.task.Step(rt.idx).Stall; stall > 0 {
		rt.own.AfterCall(stall, func(any) { rt.nextStep() }, nil)
		return
	}
	rt.nextStep()
}

func (rt *refTask) nextStep() {
	rt.idx++
	rt.runStep()
}

// fpcView is what the driver needs of either core.
type fpcView struct {
	submit func(sim.Task, func(any), any)
	free   func() int
	busy   func() sim.Time
	instr  func() uint64
	util   func() float64
}

func fusedView(eng *sim.Engine, cfg *Config, threads int) fpcView {
	f := NewFPC(eng, "fused", cfg)
	f.SetThreads(threads)
	return fpcView{f.SubmitCall, f.FreeThreads, func() sim.Time { return f.issueBusy },
		func() uint64 { return f.Instructions }, f.Utilization}
}

func refView(eng *sim.Engine, cfg *Config, threads int) fpcView {
	own := eng.NewOwner()
	f := &refFPC{eng: eng, cyclePs: cfg.CyclePs()}
	for i := threads - 1; i >= 0; i-- {
		f.idle = append(f.idle, own.Sub(i))
	}
	util := func() float64 {
		busy := f.issueBusy
		if f.issueFree > eng.Now() {
			busy -= f.issueFree - eng.Now()
		}
		return float64(busy) / float64(eng.Now())
	}
	return fpcView{f.SubmitCall, func() int { return len(f.idle) }, func() sim.Time { return f.issueBusy },
		func() uint64 { return f.instructions }, util}
}

// driveFPC runs one seeded stream of 1–4-step tasks through a core and
// returns everything an outsider can see of it. Every time in the stream
// sits on a 5 ns grid — four FPC cycles — so step ends of different
// threads, submissions and the probes of two other owners, one ranked
// before the core and one behind it, keep falling on the same picosecond.
// Submissions come from unowned events, from both neighbours and from
// completion callbacks, in bursts that overrun the threads and fill the
// run queue.
func driveFPC(mk func(*sim.Engine, *Config, int) fpcView, seed int64, threads int) (trace []string, queued, tied int) {
	const grid = 5 * sim.Nanosecond
	cfg := AgilioCX40()
	eng := sim.New()
	before := eng.NewOwner()
	f := mk(eng, &cfg, threads)
	behind := eng.NewOwner()
	rng := rand.New(rand.NewSource(seed))

	see := func(what string, id int) {
		trace = append(trace, fmt.Sprintf("%d %s %d free=%d busy=%d instr=%d",
			eng.Now(), what, id, f.free(), f.busy(), f.instr()))
	}
	newTask := func() sim.Task {
		pick := func(vals ...int64) int64 { return vals[rng.Intn(len(vals))] }
		t := sim.TaskC(pick(0, 4, 8, 12, 40)).Add(0, sim.Time(pick(0, 0, 1, 2, 10, 20))*grid)
		for n := rng.Intn(4); n > 0; n-- {
			t = t.Add(pick(0, 4, 8, 12, 40), sim.Time(pick(0, 0, 1, 2, 10, 20))*grid)
		}
		return t
	}
	doneAt := map[sim.Time]bool{}
	nextID := 0
	var done func(any)
	submit := func() {
		id := nextID
		nextID++
		if f.free() == 0 {
			queued++
		}
		f.submit(newTask(), done, id)
	}
	done = func(a any) {
		see("done", a.(int))
		doneAt[eng.Now()] = true
		if rng.Intn(4) == 0 { // a stage handing the core its next item
			submit()
		}
	}
	submitCb := func(any) { submit() }
	var probedAt []sim.Time
	probe := func(a any) {
		probedAt = append(probedAt, eng.Now())
		see("probe", a.(int))
	}
	// Fewer threads take the same bursts further apart, so the run queue
	// fills and drains on every width.
	spread := grid * sim.Time(min(4, 8/threads))
	at := sim.Time(0)
	for i := 0; i < 300; i++ {
		at += sim.Time([]int64{0, 0, 0, 1, 4, 20, 60}[rng.Intn(7)]) * spread
		switch rng.Intn(3) {
		case 0:
			eng.AtCall(at, submitCb, nil)
		case 1:
			before.AtCall(at, submitCb, nil)
		default:
			behind.AtCall(at, submitCb, nil)
		}
		before.AtCall(at+sim.Time(rng.Intn(40))*grid, probe, -1)
		behind.AtCall(at+sim.Time(rng.Intn(40))*grid, probe, -2)
	}
	eng.Run()
	for _, t := range probedAt {
		if doneAt[t] {
			tied++
		}
	}
	trace = append(trace, fmt.Sprintf("end %d util=%v", eng.Now(), f.util()))
	return trace, queued, tied
}

// TestFPCFusedMatchesTwoEventOracle: the FPC wakes a thread once per
// step, at issueFree + stall, where the core it replaced ran a retirement
// event and then a stall-expiry event. Nobody outside may be able to tell:
// completions at the same instants in the same order, the same free
// threads, issue-slot busy time and instruction count at every completion
// and at every probe of a neighbouring owner, the same utilisation — on
// one, two and eight threads. Scheduling the wake-up under the core's key
// in place of the thread's, or with another step's stall, fails it.
func TestFPCFusedMatchesTwoEventOracle(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			got, queued, tied := driveFPC(fusedView, seed, threads)
			want, _, _ := driveFPC(refView, seed, threads)
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("threads %d seed %d: traces diverge at entry %d:\nfused  %q\noracle %q",
							threads, seed, i, got[max(0, i-2):min(len(got), i+3)], want[max(0, i-2):i+1])
					}
				}
				t.Fatalf("threads %d seed %d: fused trace has %d entries, oracle %d", threads, seed, len(got), len(want))
			}
			if queued < 20 || tied < 10 {
				t.Errorf("threads %d seed %d: %d submissions queued, %d probes tied with a completion: the stream is too easy",
					threads, seed, queued, tied)
			}
		}
	}
}
