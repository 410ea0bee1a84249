//go:build flexdebug

package sim

import "fmt"

// running is the flexdebug owner check: the key of the event whose
// callback is running, 0 outside any event.
type running struct{ key uint64 }

func (r *running) enter(dkey uint64) uint64 {
	prev := r.key
	r.key = dkey
	return prev
}

func (r *running) leave(prev uint64) { r.key = prev }

// checkUnowned panics when an owned event's or a delivery's callback
// schedules an unowned event through the engine directly: its place at
// the instant would then be decided by who called first. A component
// schedules through its Owner; what stands outside the modelled machines
// says so with Unowned.
func checkUnowned(e *Engine, method string) {
	if k := e.run.key; k != 0 {
		panic(fmt.Sprintf("sim: Engine.%s called from an event with key %#x: schedule through the component's Owner, or through sim.Unowned for an application or generator", method, k))
	}
}
