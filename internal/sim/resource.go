package sim

// Resource models a serially-shared facility with a fixed service rate in
// bytes (or other units) per second: a PCIe link, a MAC serializer, a
// memory port. AcquireCall reserves the next free slot long enough to move
// n units and invokes cb(arg) when the transfer completes.
type Resource struct {
	eng       *Engine
	own       Owner // completions order by the resource's rank
	name      string
	psPerUnit float64 // picoseconds to move one unit
	free      Time    // next instant the facility is idle
	busyAcc   Time    // total busy time, for utilization accounting
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
// value (see Engine.AtCall). It returns the completion time.
func (r *Resource) AcquireCall(n int64, extra Time, cb func(any), arg any) Time {
	end := r.Reserve(n, extra)
	r.own.AtCall(end, cb, arg)
	return end
}

// Reserve books the facility for n units without scheduling anything and
// returns the completion time (transfer end plus extra). Callers that
// need delivery-ordered scheduling (netsim's link egress) reserve first,
// then schedule through Engine.AtLinkCall with the completion time. The
// transfer occupies at least one picosecond when n > 0, so the returned
// time is always strictly after now plus extra.
func (r *Resource) Reserve(n int64, extra Time) Time {
	now := r.eng.Now()
	start := r.free
	if start < now {
		start = now
	}
	dur := Time(float64(n) * r.psPerUnit)
	if dur < 1 && n > 0 {
		dur = 1
	}
	r.free = start + dur
	r.busyAcc += dur
	return r.free + extra
}

// Utilization returns the fraction of simulated time the resource was busy.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	if now == 0 {
		return 0
	}
	busy := r.busyAcc
	if r.free > now {
		busy -= r.free - now // don't count reserved future time
	}
	return float64(busy) / float64(now)
}
