// Package host models the server and client machines of the testbed: CPU
// cores that execute application and network-stack work serially, with
// per-core busy-time and instruction accounting (Table 1's kilocycles
// per request are read from it; the component split and the top-down
// shares are calibrated profiles in internal/experiments).
package host

import (
	"strconv"

	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// Core is one host CPU core. Unlike an FPC, a core runs one task at a
// time and its stalls do not overlap with other work (the OS thread
// blocks).
type Core struct {
	Name string

	eng     *sim.Engine
	own     sim.Owner
	hz      int64
	cyclePs sim.Time

	queue   []hostTask
	qHead   int
	running bool
	curCb   func(any) // completion of the task currently executing
	curArg  any

	// Statistics.
	Tasks        uint64
	Instructions uint64
	busyAcc      sim.Time
}

// hostTask is what a core keeps of a submitted task. It runs the task as
// one interval, so the steps reduce at submit to their total duration on
// this core's clock and their instruction count.
type hostTask struct {
	dur   sim.Time
	instr uint64
	cb    func(any)
	arg   any
}

// NewCore creates a core with the given clock.
func NewCore(eng *sim.Engine, name string, hz int64) *Core {
	return &Core{Name: name, eng: eng, own: eng.NewOwner(), hz: hz, cyclePs: sim.Cycles(1, hz)}
}

// Hz returns the core clock.
func (c *Core) Hz() int64 { return c.hz }

// SubmitStepCall queues a one-step task for serial execution; cb(arg)
// runs when it completes (nil cb: nothing runs). cb should be a long-lived
// function value and arg the per-task state, so queueing a task performs
// no heap allocation beyond amortized queue growth. The core stores the
// step's duration on its clock and its instruction count (see hostTask).
// An idle core starts the task on the spot: one event per task, its
// completion.
func (c *Core) SubmitStepCall(step sim.Step, cb func(any), arg any) {
	dur := sim.Time(step.Compute)*c.cyclePs + step.Stall
	c.queue = append(c.queue, hostTask{dur, uint64(step.Compute), cb, arg})
	if !c.running {
		c.running = true
		c.next()
	}
}

// SubmitCall is SubmitStepCall for a multi-step task. A core runs a task
// as one interval whose stalls do not overlap other work, so the task
// reduces to one step carrying its summed instructions and stall.
func (c *Core) SubmitCall(task sim.Task, cb func(any), arg any) {
	c.SubmitStepCall(sim.Step{Compute: task.Instructions(), Stall: task.StallTime()}, cb, arg)
}

// Busy reports whether the core has queued or running work.
func (c *Core) Busy() bool { return c.running || c.QueueLen() > 0 }

// QueueLen returns the number of tasks waiting (excluding the running one).
func (c *Core) QueueLen() int { return len(c.queue) - c.qHead }

func (c *Core) next() {
	if c.qHead >= len(c.queue) {
		c.running = false
		return
	}
	t := c.queue[c.qHead]
	c.queue, c.qHead = shm.PopRing(c.queue, c.qHead)
	c.Tasks++
	c.Instructions += t.instr
	c.busyAcc += t.dur
	c.curCb, c.curArg = t.cb, t.arg
	c.own.AfterCall(t.dur, coreTaskDone, c)
}

// coreTaskDone completes the running task and starts the next (see
// sim.Engine.AfterCall; the core runs one task at a time, so curCb/curArg
// are unambiguous).
func coreTaskDone(a any) {
	c := a.(*Core)
	cb, arg := c.curCb, c.curArg
	c.curCb, c.curArg = nil, nil
	if cb != nil {
		cb(arg)
	}
	c.next()
}

// Utilization returns the core's busy fraction of simulated time.
func (c *Core) Utilization() float64 {
	now := c.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(c.busyAcc) / float64(now)
}

// Machine is a host with several cores.
type Machine struct {
	Name  string
	Cores []*Core
}

// NewMachine builds a host with n identical cores.
func NewMachine(eng *sim.Engine, name string, n int, hz int64) *Machine {
	m := &Machine{Name: name}
	for i := 0; i < n; i++ {
		m.Cores = append(m.Cores, NewCore(eng, name+"/cpu"+strconv.Itoa(i), hz))
	}
	return m
}
