// Package sim provides the deterministic discrete-event simulation engine
// that every FlexTOE substrate model (NFP-4000 SmartNIC, host CPUs, links,
// switch) runs on.
//
// Time advances in integer picoseconds so that hardware clocks with
// non-nanosecond periods (the NFP-4000's 800 MHz FPCs tick every 1250 ps)
// stay exact. All state mutation happens inside events executed by a single
// goroutine, so simulations are reproducible bit-for-bit from their seed.
//
// The event core is a sliding two-level timing wheel over a small heap.
// Time is cut into blocks of 33.5 us. The near wheel — 1024 buckets of
// 65.5 ns — always holds the block the clock is in and the one after it,
// so an event due less than a block ahead lands in a bucket wherever in
// its block the clock stands: the window moves with the clock, one block at
// a time, and never waits to drain. That is where the dense
// sub-microsecond traffic of the data path lives (FPC issue slots, memory
// stalls, PCIe completions). It keeps several live events in a bucket and
// schedules most of them behind the bucket's tail, so a bucket is kept in
// execution order at all times: an insert appends and shifts the event
// back to its place — a handful of slots — and running the next event is
// one lookup and one pop from the bucket's head.
//
// The far wheel has one unordered bucket for each of the next 2048 blocks
// (68.7 ms: serializer backlogs, retransmission and delayed-work timers);
// queueing an event there is a list push. When the clock enters block k,
// the far bucket of block k+1 is emptied into the near wheel through the
// same ordered insert a direct scheduling takes. The binary heap is left
// with what lies beyond the far wheel's span — backed-off retransmission
// timeouts, experiment end markers — and hands events down as the span
// reaches them. An event so passes through at most three structures, and
// its place among the events of its bucket is decided by (at, dkey, seq)
// when it gets there, seq being the one it was scheduled with: which
// structures it crossed, and when, cannot be seen in the execution order.
//
// Bucket storage, the far wheel's nodes and the heap are reused, and an
// event carries only a long-lived func(any) plus an argument (AtCall and
// its siblings are the one scheduling API; RunFunc adapts an
// application-owned func()), so steady-state event scheduling performs no
// heap allocation.
//
// Execution order is the total order (at, dkey, seq), and what happens at
// one instant is declared, never an accident of who called a scheduler
// first. Every engine-resident component takes an Owner when it is built
// (Engine.NewOwner: a rank, in construction order) and schedules through
// it; an owner that schedules for several contexts of its own — an FPC's
// hardware threads — gives each a sub-key (Owner.Sub). At one instant:
//
//   - unowned events (Engine.AtCall and siblings) run first, FIFO. They
//     are for what stands outside the modelled machines: applications,
//     workload generators, tests, the benchmark drivers.
//   - then owned events by (rank, sub); seq only ever decides between two
//     events of one owner and one sub-context, which run FIFO.
//   - then frame deliveries by link id, as before (Engine.AtLinkCall).
//
// The owner key rides in event.dkey below the first link key:
//
//	0                    unowned
//	rank<<8 | sub        owned: rank 1 .. 2^24-1, sub 0 .. 255
//	link<<32 | txSeq     delivery: link ids come from the same allocator
//
// so an event stays 48 bytes and event.before stays a three-field compare.
// Because a tie between two components is settled by their ranks, removing
// an event that only existed to schedule another (a fused wake-up) moves no
// other event: such a change is a speed change and nothing else.
package sim

import (
	"fmt"
)

// Time is a simulated instant or duration in picoseconds.
type Time int64

// Duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns the time as a float64 millisecond count.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Cycles converts a cycle count at the given clock frequency to a Time.
// The conversion rounds to the nearest picosecond.
func Cycles(n int64, hz int64) Time {
	if hz <= 0 {
		panic("sim: non-positive clock frequency")
	}
	// n cycles * 1e12 ps/s / hz. Split to avoid overflow for large n.
	whole := n / hz
	rem := n % hz
	return Time(whole*1e12 + (rem*1e12+hz/2)/hz)
}

// event is one scheduled callback: cb is a long-lived function value and
// arg carries the per-event state, so scheduling never allocates a
// closure.
//
// dkey is the same-instant ordering key (see before and the package
// comment): 0 for an unowned event, the scheduling Owner's key for a
// component's event, and a link-scoped key at or above firstLinkKey (link
// id in the high bits, per-link transmit sequence in the low bits) for a
// frame delivery scheduled through AtLinkCall.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among same-instant events of one dkey
	dkey uint64 // same-instant ordering key; 0 = unowned
	cb   func(any)
	arg  any
}

// Owner-key layout inside event.dkey: rank<<subBits | sub, all of it below
// the first link key.
const (
	subBits      = 8
	firstLinkKey = 1 << 32
	maxRank      = firstLinkKey>>subBits - 1

	// MaxSub is the largest sub-key Owner.Sub accepts.
	MaxSub = 1<<subBits - 1
)

// before reports whether a orders strictly before b in execution order.
//
// Same-instant ordering is part of the model: unowned events (dkey 0)
// first, then each component's events in rank and sub-key order, then
// deliveries in link order, however the scheduling calls interleaved; seq
// decides only among the events of one key, FIFO. Two deliveries never
// share (at, dkey): a link serializes, so per-link delivery instants are
// strictly increasing, and distinct links have distinct ids.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dkey != b.dkey {
		return a.dkey < b.dkey
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. One bucket spans 2^tickBits ps (65.536 ns) and
// the near wheel has wheelSize of them, two blocks of 2^blockBits ps
// (33.55 us) each: the block the clock is in and the one after it. The far
// wheel has one unordered bucket per block for the farSize blocks from the
// clock's on (68.7 ms); the heap holds what lies beyond.
const (
	tickBits  = 16
	tickSpan  = Time(1) << tickBits
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1

	blockBits  = tickBits + wheelBits - 1
	blockTicks = wheelSize / 2
	farSize    = 1 << 11
	farMask    = farSize - 1
)

// bucket is one near-wheel slot. evs[head:] is the live suffix, always in
// execution order (see event.before); evs[:head] has already run and is
// dropped when the cursor moves on.
type bucket struct {
	evs  []event
	head int
}

// farNode is one far-wheel event and the index of the next in its block.
type farNode struct {
	ev   event
	next int32
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	nRun    uint64
	ranks   uint32 // owner ranks and link ids handed out so far

	// Near wheel: buckets[i&wheelMask] holds, in execution order, the
	// events whose tick index (at>>tickBits) is i, for the ticks of blocks
	// blk and blk+1. blk is the clock's block whenever a callback or the
	// caller can schedule; blockEnd and horizon cache the instants where
	// block blk and the near window end, so the hot paths decide with one
	// compare each (insert: near or not; step: new block or not).
	buckets  []bucket
	blk      int64
	blockEnd Time
	horizon  Time
	curTick  int64 // cursor: no near event lives below this tick
	nearCnt  int

	// spare is a stack of emptied near-bucket storage. A bucket the cursor
	// has drained gives its slice up, and the next bucket to receive its
	// first event takes the most recently drained one: that memory was
	// read a moment ago and is still in cache, where the bucket's own
	// slice from the previous rotation is long evicted.
	spare [][]event

	// Far wheel: far[b&farMask] heads the list of block b's events, in no
	// order, for blocks blk+2 up to farEnd's. Entering a block cascades the
	// list of the block after it into the near wheel through insert, which
	// is where the order comes from. The lists are linked by index through
	// one arena (index 0 ends a list; farFree heads the unused nodes), so
	// the far wheel's memory is its high-water population however that
	// spreads over blocks — a slice per block would pin every block's
	// own high water.
	far      []int32
	farNodes []farNode
	farFree  int32
	farEnd   Time
	farCnt   int

	// Overflow heap, in execution order, for events at or beyond farEnd:
	// backed-off retransmission timeouts, experiment end markers. Every
	// slide of the window moves what farEnd has passed into the wheels.
	overflow []event

	// locals holds per-engine singletons (pools, freelists) keyed by an
	// arbitrary comparable key; see Local.
	locals map[any]any
}

// New returns an empty engine at time zero.
func New() *Engine {
	e := &Engine{buckets: make([]bucket, wheelSize), far: make([]int32, farSize), farNodes: make([]farNode, 1)}
	e.setWindow(0)
	return e
}

// Group holds a testbed's one engine. It is what is left of the sharded
// engine (taken out; CHANGES.md has the measurements) and stays only
// because the frozen bench/ reads Testbed.Group.Engines(): the follow-up
// benchmark PR that retires sim.shard2_speedup removes it too.
type Group [1]*Engine

// Engines returns the one engine.
func (g *Group) Engines() []*Engine { return g[:] }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// schedule queues cb(arg) at t under the same-instant key dkey: the one
// path every scheduler takes. Scheduling in the past panics: it would
// silently reorder causality.
func (e *Engine) schedule(t Time, dkey uint64, cb func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.insert(event{at: t, seq: e.seq, dkey: dkey, cb: cb, arg: arg})
}

// AtCall schedules cb(arg) at absolute time t as an unowned event: at its
// instant it runs before every component's events, FIFO among its like.
// Unowned scheduling is for applications, workload generators, tests and
// benchmark drivers; a modelled component schedules through its Owner
// (flexvet/detrange flags the rest). cb should be a long-lived function
// value (package-level or cached on a struct) and arg the per-event state,
// so scheduling performs no closure allocation. arg must not be a pooled
// object that could be recycled before the event fires.
func (e *Engine) AtCall(t Time, cb func(any), arg any) { e.schedule(t, 0, cb, arg) }

// AtLinkCall schedules cb(arg) at absolute time t as a frame-delivery
// event carrying the link-scoped ordering key dkey (link id, from
// NewLinkID, in the high 32 bits). Deliveries at the same instant execute
// after local events and in dkey order (see the package comment).
func (e *Engine) AtLinkCall(t Time, dkey uint64, cb func(any), arg any) {
	if dkey < firstLinkKey {
		panic("sim: AtLinkCall requires a delivery key with a link id in its high 32 bits")
	}
	e.schedule(t, dkey, cb, arg)
}

// newRank hands out the next rank. Owners and links share the allocator,
// so a testbed's components order by construction and nothing else.
func (e *Engine) newRank() uint32 {
	if e.ranks == maxRank {
		panic("sim: out of owner ranks")
	}
	e.ranks++
	return e.ranks
}

// NewLinkID returns a link id for AtLinkCall keys, unique on this engine
// and increasing in construction order.
func (e *Engine) NewLinkID() uint32 { return e.newRank() }

// Owner is an engine-resident component's scheduling handle: the engine
// plus the component's same-instant key. Events scheduled through an
// owner run, at their instant, after unowned events and before frame
// deliveries, in key order across owners and FIFO within one (see the
// package comment). The zero Owner is not usable.
type Owner struct {
	eng *Engine
	key uint64
}

// NewOwner returns an owner ranked behind every owner and link made on
// this engine so far. Components call it once, where they are constructed;
// a component whose deferred same-instant work must run behind its own
// parts' completions (a transmit pump behind its cores) takes its owner
// after building the parts.
func (e *Engine) NewOwner() Owner { return Owner{e, uint64(e.newRank()) << subBits} }

// Sub returns the owner's handle for its i-th sub-context (a hardware
// thread): same rank, ordered by i at one instant. i beyond MaxSub
// panics, so a component derives its handles where it is built.
func (o Owner) Sub(i int) Owner {
	if i < 0 || i > MaxSub {
		panic(fmt.Sprintf("sim: owner sub-key %d outside 0..%d", i, MaxSub))
	}
	return Owner{o.eng, o.key&^MaxSub | uint64(i)}
}

// AtCall schedules cb(arg) at absolute time t (see Engine.AtCall for the
// callback contract).
func (o Owner) AtCall(t Time, cb func(any), arg any) { o.eng.schedule(t, o.key, cb, arg) }

// AfterCall schedules cb(arg) d picoseconds from now. Negative d panics.
func (o Owner) AfterCall(d Time, cb func(any), arg any) {
	o.eng.schedule(o.eng.now+d, o.key, cb, arg)
}

// ImmediatelyCall schedules cb(arg) at the current instant, in the owner's
// place among the events still queued for it.
func (o Owner) ImmediatelyCall(cb func(any), arg any) {
	o.eng.schedule(o.eng.now, o.key, cb, arg)
}

// EveryCall schedules cb(arg) at start and then every interval thereafter,
// for as long as cb returns true (see Engine.EveryCall).
func (o Owner) EveryCall(start, interval Time, cb func(any) bool, arg any) {
	if interval <= 0 {
		panic("sim: non-positive interval")
	}
	o.AtCall(start, periodicTick, &periodic{own: o, interval: interval, cb: cb, arg: arg})
}

// Local returns the per-engine singleton stored under key, constructing
// it with mk on first use. Pools and freelists are single-threaded by
// design; hanging one instance off each engine keeps the hot path
// allocation-free while concurrent jobs and cells, each on its own
// engine, share nothing.
func (e *Engine) Local(key any, mk func() any) any {
	if v, ok := e.locals[key]; ok {
		return v
	}
	if e.locals == nil {
		e.locals = make(map[any]any)
	}
	v := mk()
	e.locals[key] = v
	return v
}

// AfterCall schedules cb(arg) d picoseconds from now (see AtCall).
// Negative d panics.
func (e *Engine) AfterCall(d Time, cb func(any), arg any) { e.schedule(e.now+d, 0, cb, arg) }

// ImmediatelyCall schedules cb(arg) at the current instant, behind the
// unowned events already queued for it (see AtCall).
func (e *Engine) ImmediatelyCall(cb func(any), arg any) { e.schedule(e.now, 0, cb, arg) }

// periodic carries one EveryCall arming: who armed it, the long-lived
// callback, its argument, and the rearm interval.
type periodic struct {
	own      Owner
	interval Time
	cb       func(any) bool
	arg      any
}

// periodicTick fires one EveryCall iteration and rearms while the
// callback returns true.
func periodicTick(a any) {
	p := a.(*periodic)
	if p.cb(p.arg) {
		p.own.AfterCall(p.interval, periodicTick, p)
	}
}

// EveryCall schedules cb(arg) at start and then every interval
// thereafter, for as long as cb returns true. cb should be a long-lived
// function value and arg the periodic state, so arming allocates one small
// carrier and each firing allocates nothing.
func (e *Engine) EveryCall(start, interval Time, cb func(any) bool, arg any) {
	Owner{eng: e}.EveryCall(start, interval, cb, arg)
}

// RunFunc is the one adapter for firing an application-owned func() as an
// event or completion: pass it as cb with the stored func() as arg.
func RunFunc(a any) { a.(func())() }

// insert puts an event where its distance from the window says: its near
// bucket, its block's far bucket, or the heap. In a near bucket it goes
// straight to its execution-order position: append, then shift later
// events up one slot. The shift stops at the consumed head, so an event
// that orders before one already run (a local event scheduled from a
// same-instant delivery) still runs next. Out of order is the common case
// on the data path — several events per bucket, most arriving behind the
// tail — which is why the order is paid for here, a few slots at a time,
// and not by a sort at drain time.
func (e *Engine) insert(ev event) {
	if ev.at >= e.horizon {
		if ev.at >= e.farEnd {
			e.heapPush(ev)
			return
		}
		i := e.farFree
		if i != 0 {
			e.farFree = e.farNodes[i].next
		} else {
			e.farNodes = append(e.farNodes, farNode{})
			i = int32(len(e.farNodes) - 1)
		}
		head := &e.far[int(ev.at>>blockBits)&farMask]
		e.farNodes[i] = farNode{ev, *head}
		*head = i
		e.farCnt++
		return
	}
	tick := int64(ev.at >> tickBits)
	if tick < e.curTick {
		// The cursor peeked ahead of now (RunUntil); rescan from here.
		e.curTick = tick
	}
	bk := &e.buckets[int(tick)&wheelMask]
	if n := len(e.spare); bk.evs == nil && n > 0 {
		bk.evs, e.spare[n-1] = e.spare[n-1], nil
		e.spare = e.spare[:n-1]
	}
	evs := append(bk.evs, ev)
	j := len(evs) - 1
	for ; j > bk.head && ev.before(&evs[j-1]); j-- {
		evs[j] = evs[j-1]
	}
	evs[j] = ev
	bk.evs = evs
	e.nearCnt++
}

// setWindow makes b the window's first block.
func (e *Engine) setWindow(b int64) {
	e.blk = b
	e.blockEnd = Time(b+1) << blockBits
	e.horizon = Time(b+2) << blockBits
	e.farEnd = Time(b+farSize) << blockBits
}

// slideTo moves the window up to block b and brings into the wheels what
// now belongs there: the far buckets of blocks b and b+1 cascade into the
// near wheel and the heap gives up what lies below the new farEnd. All of
// it goes through insert, so a cascaded event takes the place (at, dkey,
// seq) gives it among the events scheduled straight into its bucket, its
// seq being the one it was scheduled with. The caller guarantees that no
// pending event lies in a block below b; the window never moves past the
// clock's block, or an insert between the clock and the window would land
// one turn of the ring later.
func (e *Engine) slideTo(b int64) {
	c := e.blk + 2 // first block still in the far wheel
	if c < b {
		c = b // a jump: the blocks skipped hold nothing
	}
	e.setWindow(b)
	if first := b * blockTicks; e.curTick < first {
		e.curTick = first
	}
	for ; c <= b+1; c++ {
		head := &e.far[int(c)&farMask]
		for i := *head; i != 0; {
			n := &e.farNodes[i]
			e.insert(n.ev)
			next := n.next
			*n = farNode{next: e.farFree}
			e.farFree = i
			i = next
			e.farCnt--
		}
		*head = 0
	}
	for len(e.overflow) > 0 && e.overflow[0].at < e.farEnd {
		e.insert(e.heapPop())
	}
}

// nextBlock returns the earliest block holding an event when the near
// wheel holds none.
func (e *Engine) nextBlock() (int64, bool) {
	if e.farCnt > 0 {
		for b := e.blk + 2; ; b++ {
			if e.far[int(b)&farMask] != 0 {
				return b, true
			}
		}
	}
	if len(e.overflow) > 0 {
		return int64(e.overflow[0].at >> blockBits), true
	}
	return 0, false
}

// wheelMin advances the cursor to the first non-empty near bucket and
// returns it; its earliest event is evs[head]. Only valid when nearCnt > 0.
func (e *Engine) wheelMin() *bucket {
	for {
		bk := &e.buckets[int(e.curTick)&wheelMask]
		if bk.head < len(bk.evs) {
			return bk
		}
		// Bucket exhausted: hand its storage to the next bucket to fill.
		if bk.evs != nil {
			e.spare = append(e.spare, bk.evs[:0])
			bk.evs, bk.head = nil, 0
		}
		e.curTick++
	}
}

// step executes the next event if it is due at or before limit, and
// reports whether it did: the one pop path under Step, Run and RunUntil.
// The minimum is looked up once and read in place; its slot is
// released and the head advanced before the callback runs, because the
// callback may append to, grow or reorder the very bucket being drained.
// The window slides only for an event that is about to run, so it is
// never ahead of the clock when step gives up at limit.
func (e *Engine) step(limit Time) bool {
	if e.stopped {
		return false
	}
	if e.nearCnt == 0 {
		b, ok := e.nextBlock()
		if !ok || Time(b)<<blockBits > limit {
			return false
		}
		e.slideTo(b)
	}
	bk := e.wheelMin()
	ev := &bk.evs[bk.head]
	if ev.at > limit {
		return false
	}
	if ev.at >= e.blockEnd {
		// The cascade fills the ring half the cursor has left behind,
		// never the bucket ev is in.
		e.slideTo(e.blk + 1)
	}
	at, cb, arg := ev.at, ev.cb, ev.arg
	ev.cb, ev.arg = nil, nil
	bk.head++
	e.nearCnt--
	e.now = at
	e.nRun++
	cb(arg)
	return true
}

// maxTime is the limit that admits every event.
const maxTime = Time(1<<63 - 1)

// Step executes the next event. It reports whether an event was executed.
func (e *Engine) Step() bool { return e.step(maxTime) }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (even if the queue still holds later events).
func (e *Engine) RunUntil(t Time) {
	for e.step(t) {
	}
	if !e.stopped && e.now < t {
		e.now = t
		if t >= e.blockEnd {
			// Everything left is later than t: park the window with the clock.
			e.slideTo(int64(t >> blockBits))
		}
	}
}

// Stop halts the engine: Step, Run and RunUntil become no-ops.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.nearCnt + e.farCnt + len(e.overflow) }

// ---------------------------------------------------------------------
// Overflow heap: a plain binary min-heap in execution order, hand-rolled so
// pushes and pops never box events through container/heap's interface.
// ---------------------------------------------------------------------

func (e *Engine) heapPush(ev event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) heapPop() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].before(&h[min]) {
			min = l
		}
		if r < n && h[r].before(&h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.overflow = h
	return top
}
