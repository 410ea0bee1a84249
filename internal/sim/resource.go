package sim

// Resource models a serially-shared facility with a fixed service rate in
// bytes (or other units) per second: a PCIe link, a MAC serializer, a
// memory port. AcquireCall reserves the next free slot long enough to move
// n units and invokes cb(arg) when the transfer completes; ReserveFrom
// books a slot without scheduling anything.
type Resource struct {
	eng       *Engine
	own       Owner // completions order by the resource's rank
	name      string
	psPerUnit float64 // picoseconds to move one unit
	free      Time    // next instant the facility is idle
}

// NewResource returns a resource that moves unitsPerSecond units each
// simulated second.
func NewResource(eng *Engine, name string, unitsPerSecond float64) *Resource {
	r := &Resource{eng: eng, own: eng.NewOwner(), name: name}
	r.SetRate(unitsPerSecond)
	return r
}

// SetRate changes the service rate for transfers reserved from now on. The
// time already booked stays booked, so a transfer reserved after the change
// still completes after every transfer reserved before it.
func (r *Resource) SetRate(unitsPerSecond float64) {
	if unitsPerSecond <= 0 {
		panic("sim: non-positive resource rate")
	}
	r.psPerUnit = 1e12 / unitsPerSecond
}

// AcquireCall schedules a transfer of n units plus a fixed latency;
// cb(arg) runs when the transfer finishes, with cb a long-lived function
// value (see Engine.AfterCall). It returns the completion time.
func (r *Resource) AcquireCall(n int64, extra Time, cb func(any), arg any) Time {
	end := r.ReserveFrom(r.eng.Now(), n, extra)
	r.own.AtCall(end, cb, arg)
	return end
}

// ReserveFrom books the facility for n units, starting no earlier than
// instant at, without scheduling anything, and returns the completion
// time (transfer end plus extra). The transfer starts at the later of at
// and the end of the time already booked, and occupies at least one
// picosecond when n > 0, so the returned time is always strictly after at
// plus extra. Callers that need delivery-ordered scheduling (netsim's link
// egress) reserve first, then schedule through Engine.AtLinkCall with the
// completion time. A caller that knows, at now, everything that will be
// booked before a later at (a switch port: its crossbar latency is
// constant and the switch is its only sender) books from now what a
// reservation made at at would book.
func (r *Resource) ReserveFrom(at Time, n int64, extra Time) Time {
	start := r.free
	if start < at {
		start = at
	}
	dur := Time(float64(n) * r.psPerUnit)
	if dur < 1 && n > 0 {
		dur = 1
	}
	r.free = start + dur
	return r.free + extra
}
