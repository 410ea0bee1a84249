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

// Next reports the time and callback of the event Step would run next.
func (e *Engine) Next() (at Time, cb func(any), ok bool) {
	if e.wheelCnt == 0 {
		if len(e.overflow) == 0 {
			return 0, nil, false
		}
		return e.overflow[0].at, e.overflow[0].cb, true
	}
	bk := e.wheelMin()
	ev := &bk.evs[bk.head]
	return ev.at, ev.cb, true
}
