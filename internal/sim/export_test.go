package sim

// UnfoldedTask builds a task from explicit steps, the way Add laid them
// out before it folded pure stalls: the reference TestTaskFoldKeepsFPCEvents
// compares against.
func UnfoldedTask(steps ...Step) Task {
	var t Task
	t.n = copy(t.steps[:], steps)
	if t.n != len(steps) {
		panic("sim: task step overflow")
	}
	return t
}

// OutsideNear returns how many pending events wait in the far wheel or the
// heap: what TestNearEventsStayInTheWheel requires to stay zero.
func (e *Engine) OutsideNear() int { return e.farCnt + len(e.overflow) }
