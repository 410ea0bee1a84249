package sim

// Step is one segment of work on a simulated processor: a burst of
// straight-line computation followed by a stall (memory access, DMA wait,
// lock wait) during which the processor's issue slot is free for other
// hardware threads. It is two words, so the data path hands a step to
// nfp.FPC.SubmitStepCall or host.Core.SubmitStepCall in registers: every
// pipeline stage, libTOE call, responder and baseline charge is one step.
type Step struct {
	Compute int64 // instructions, executed at 1 instruction/cycle
	Stall   Time  // latency hidden from the issue slot
}

// MaxTaskSteps bounds the steps in one Task. A Task is a value with a
// fixed-size step array, so building one performs no heap allocation; the
// run-to-completion ablation's RX task, four steps once Add has folded its
// trailing stall, is the deepest in the tree.
const MaxTaskSteps = 4

// Task is a multi-step unit of work: alternating compute bursts and
// stalls, for SubmitCall. Only the run-to-completion ablation (core's
// mono path) and the benchmark drivers build one; the data path charges
// single Steps.
type Task struct {
	n     int
	steps [MaxTaskSteps]Step
}

// TaskC returns a Task consisting of a single compute burst.
func TaskC(instr int64) Task {
	var t Task
	t.steps[0] = Step{Compute: instr}
	t.n = 1
	return t
}

// Add appends a step and returns the task for chaining. A pure stall
// (instr == 0) after a step that does not stall itself becomes that
// step's stall instead of a step of its own: a processor runs {c, 0},
// {0, s} and {c, s} to the same completion instant — the compute retires,
// then the stall expires. A step that already stalls is never folded
// onto: on an nfp.FPC its stall and the next are two waits (a host.Core
// sums every stall of a task anyway).
func (t Task) Add(instr int64, stall Time) Task {
	if instr == 0 && t.n > 0 && t.steps[t.n-1].Stall == 0 {
		t.steps[t.n-1].Stall = stall
		return t
	}
	if t.n >= MaxTaskSteps {
		panic("sim: task step overflow")
	}
	t.steps[t.n] = Step{Compute: instr, Stall: stall}
	t.n++
	return t
}

// NumSteps returns the number of steps in the task.
func (t *Task) NumSteps() int { return t.n }

// Step returns the i-th step.
func (t *Task) Step(i int) Step { return t.steps[i] }

// Instructions returns the total compute in the task.
func (t *Task) Instructions() int64 {
	var n int64
	for i := 0; i < t.n; i++ {
		n += t.steps[i].Compute
	}
	return n
}

// StallTime returns the total stall time in the task.
func (t *Task) StallTime() Time {
	var d Time
	for i := 0; i < t.n; i++ {
		d += t.steps[i].Stall
	}
	return d
}
