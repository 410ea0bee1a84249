package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// refEngine is the pre-timing-wheel event core (a container/heap binary
// heap), kept as the ordering oracle for the engine's whole sort key (at,
// dkey, seq): ascending timestamp; at one instant unowned events (dkey 0)
// first, then owned events by owner key, then link deliveries in
// delivery-key order, FIFO within one key.
type refEngine struct {
	now    Time
	events refHeap
	seq    uint64
}

type refEvent struct {
	at   Time
	dkey uint64
	seq  uint64
	fn   func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].dkey != h[j].dkey {
		return h[i].dkey < h[j].dkey
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = refEvent{}
	*h = old[:n-1]
	return ev
}

// schedule queues fn at t: an unowned event when dkey is 0, an owned one
// when it is below firstLinkKey, else a link delivery with that key.
func (e *refEngine) schedule(t Time, dkey uint64, fn func()) {
	if t < e.now {
		panic("ref: past")
	}
	e.seq++
	heap.Push(&e.events, refEvent{at: t, dkey: dkey, seq: e.seq, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *refEngine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// scheduler abstracts both engines for the differential driver.
type scheduler interface {
	schedule(t Time, dkey uint64, fn func())
	now() Time
	step() bool
	runUntil(t Time)
}

type wheelSched struct{ e *Engine }

func (w wheelSched) schedule(t Time, dkey uint64, fn func()) {
	switch {
	case dkey == 0:
		w.e.AtCall(t, RunFunc, fn)
	case dkey < firstLinkKey:
		Owner{w.e, dkey}.AtCall(t, RunFunc, fn)
	default:
		w.e.AtLinkCall(t, dkey, RunFunc, fn)
	}
}
func (w wheelSched) now() Time       { return w.e.Now() }
func (w wheelSched) step() bool      { return w.e.Step() }
func (w wheelSched) runUntil(t Time) { w.e.RunUntil(t) }

// Spans of the wheel's two levels, for picking deltas on either side.
const (
	blockSpan = Time(1) << blockBits
	farSpan   = Time(farSize) << blockBits
)

type refSched struct{ e *refEngine }

func (r refSched) schedule(t Time, dkey uint64, fn func()) { r.e.schedule(t, dkey, fn) }
func (r refSched) now() Time                               { return r.e.now }
func (r refSched) step() bool                              { return r.e.Step() }
func (r refSched) runUntil(t Time)                         { r.e.RunUntil(t) }

// driveSchedule runs one pseudo-random scenario on a scheduler and records
// the (event id, execution time) trace. Events reschedule follow-ups from
// inside their handlers — same-instant bursts, near deltas that stay in
// one wheel bucket, mid-range deltas that cross buckets and blocks, a fifth
// of them between one block and the far wheel's span (33 us – 68 ms: far
// buckets and their cascade) and one in twenty beyond it (the heap, then
// the far wheel, then the near one). One follow-up in three is a link delivery and one in three belongs to
// one of three owners (two sub-contexts each), and half of all follow-ups
// snap to a 4 ns grid, so unowned events, owners and deliveries from
// several links meet at equal instants — the dkey arm of event.before.
func driveSchedule(s scheduler, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var trace []int64
	nextID := 0
	var linkSeq [4]uint64 // per-link transmit sequence: (at, dkey) never repeats
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			trace = append(trace, int64(id), int64(s.now()))
			if depth <= 0 {
				return
			}
			kids := rng.Intn(3)
			for k := 0; k < kids; k++ {
				var d Time
				switch c := rng.Intn(20); {
				case c < 4:
					d = 0 // same instant (FIFO tie-break)
				case c < 8:
					d = Time(rng.Intn(int(tickSpan))) // same/next bucket
				case c < 12:
					d = Time(rng.Intn(1 << 22)) // a few microseconds
				case c < 15:
					d = Time(rng.Intn(1 << 27)) // ~100 us: the near window's edge
				case c < 19:
					d = blockSpan + Time(rng.Int63n(int64(farSpan-blockSpan))) // the far wheel
				default:
					d = farSpan + Time(rng.Int63n(int64(farSpan))) // beyond it: the heap
				}
				at := s.now() + d
				if rng.Intn(2) == 0 {
					at = s.now() + d&^0xfff
				}
				var dkey uint64
				switch k := rng.Intn(9); {
				case k >= 6:
					dkey = uint64(k-5)<<subBits | uint64(rng.Intn(2))
				case k >= 3:
					linkSeq[k-2]++
					dkey = uint64(k-2)<<32 | linkSeq[k-2]
				}
				s.schedule(at, dkey, spawn(depth-1))
			}
		}
	}
	// Seed events, including same-instant collisions.
	for i := 0; i < 40; i++ {
		s.schedule(Time(rng.Intn(1<<30)), 0, spawn(4))
	}
	for i := 0; i < 8; i++ {
		s.schedule(12345, 0, spawn(2))
	}
	// Interleave stepping with RunUntil jumps that park the clock between
	// events, up to 60 blocks ahead (the cursor pull-back path, and the
	// window sliding with the clock while events wait beyond it).
	for i := 0; i < 10; i++ {
		s.runUntil(s.now() + Time(rng.Intn(1<<31)))
	}
	for s.step() {
	}
	// The same on an empty engine, then a second burst from where the
	// clock was parked.
	s.runUntil(s.now() + 7*blockSpan + Time(rng.Intn(1<<20)))
	for i := 0; i < 10; i++ {
		s.schedule(s.now()+Time(rng.Intn(1<<26)), 0, spawn(2))
	}
	for s.step() {
	}
	return trace
}

// TestWheelMatchesHeapOrder pins the timing wheel's execution order to the
// old binary-heap engine across randomized schedules: identical event IDs
// at identical times, in identical order.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := driveSchedule(wheelSched{New()}, seed)
		want := driveSchedule(refSched{&refEngine{}}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: wheel %d vs heap %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at %d: wheel %d vs heap %d", seed, i, got[i], want[i])
			}
		}
	}
}

// directedCases are small programs aimed at one hazard of the ordered
// wheel each. They run on both engines like driveSchedule; mark appends an
// event's id to the trace when it runs.
var directedCases = []struct {
	name string
	run  func(s scheduler, mark func(id int) func())
}{
	// A callback schedules into the bucket being drained, alternately
	// before and after events of that bucket that have not run yet, often
	// enough that the bucket's slice is reallocated under the drain.
	{"insert into the draining bucket", func(s scheduler, mark func(int) func()) {
		const base = 3 * tickSpan
		for i := 0; i < 4; i++ {
			s.schedule(base+Time(10+10*i)*Nanosecond, 0, mark(i))
		}
		s.schedule(base+Nanosecond, 0, func() {
			for i := 0; i < 300; i++ {
				at := base + 5*Nanosecond + Time(i%7)*Nanosecond // before the waiting events
				if i%2 == 1 {
					at = base + 60*Nanosecond - Time(i%5)*Nanosecond // after them
				}
				s.schedule(at, 0, mark(100+i))
			}
		})
		s.runUntil(base + tickSpan)
	}},
	// A delivery at now schedules a local event at now: it orders before
	// the delivery that is running and before the deliveries still queued
	// for the instant, and must run next — placed after the consumed
	// prefix, not lost behind it.
	{"local event from a same-instant delivery", func(s scheduler, mark func(int) func()) {
		const at = 5*tickSpan + 100
		s.schedule(at, 1<<32|1, func() {
			mark(0)()
			s.schedule(at, 0, mark(1))
			s.schedule(at, 1<<32|2, mark(2))
		})
		s.schedule(at, 2<<32|1, mark(3))
		s.schedule(at, 0, mark(4))
		s.runUntil(at)
	}},
	// RunUntil finds nothing due and leaves the cursor on the first
	// pending event, beyond the clock; later inserts land below the cursor.
	{"insert below a cursor that peeked ahead", func(s scheduler, mark func(int) func()) {
		s.schedule(50*Microsecond, 0, mark(0))
		s.runUntil(10 * Microsecond)
		s.schedule(30*Microsecond, 0, mark(1))
		s.schedule(20*Microsecond, 1<<32|1, mark(2))
		s.schedule(20*Microsecond, 0, mark(3))
		s.schedule(10*Microsecond, 0, mark(4))
		s.runUntil(60 * Microsecond)
	}},
	// The near wheel is empty and the next events wait in the far wheel:
	// the window slides to their block, they cascade into their bucket,
	// and the inserts then land around them.
	{"migration beside an earlier insert", func(s scheduler, mark func(int) func()) {
		const far = 100 * Microsecond
		s.schedule(far+50*Nanosecond, 0, mark(0))
		s.schedule(far+40*Nanosecond, 3<<32|1, mark(1))
		s.schedule(far+40*Nanosecond, 0, mark(2))
		s.runUntil(far - 10*Microsecond)
		s.schedule(far+45*Nanosecond, 0, mark(3))
		s.schedule(far+10*Nanosecond, 0, mark(4))
		s.schedule(far+40*Nanosecond, 0, mark(5))
		s.runUntil(far + tickSpan)
	}},
	// An idle engine jumps many blocks, then takes two events of one block
	// in reverse time order, on either side of the ring position the
	// cursor was left at: a cursor that stays behind the window reaches
	// the later event first. Once in the clock's block, once in the next.
	{"reverse-order inserts after an idle jump", func(s scheduler, mark func(int) func()) {
		s.schedule(300*tickSpan, 0, mark(0))
		s.runUntil(1000 * blockSpan)
		s.schedule(1000*blockSpan+400*tickSpan, 0, mark(1))
		s.schedule(1000*blockSpan+200*tickSpan, 0, mark(2))
		s.runUntil(1001 * blockSpan)
		s.runUntil(3000*blockSpan + 5)
		s.schedule(3001*blockSpan+400*tickSpan, 0, mark(3))
		s.schedule(3001*blockSpan+200*tickSpan, 0, mark(4))
	}},
	// RunUntil gives up with the near wheel empty and the next far block
	// starting beyond its limit; the inserts that follow lie between the
	// clock and that block. A window that ran ahead to the waiting block
	// would file them one turn of the ring later.
	{"insert between a parked clock and the next far block", func(s scheduler, mark func(int) func()) {
		s.schedule(10*blockSpan+100, 0, mark(0))
		s.runUntil(3*blockSpan + 50)
		s.schedule(5*blockSpan+7, 0, mark(1))
		s.schedule(3*blockSpan+60, 0, mark(2))
		s.schedule(10*blockSpan+50, 0, mark(3))
		s.schedule(4*blockSpan, 2<<32|1, mark(4))
	}},
	// One instant and one key reached three ways: through the heap, then
	// the far wheel, then the near one; straight into the far wheel; and
	// straight into its near bucket. seq alone orders the three, and an
	// owner's event that went into the heap first still runs behind them.
	{"heap, far and near inserts tied on (at, dkey)", func(s scheduler, mark func(int) func()) {
		const at = farSpan + 10*blockSpan + 123
		s.schedule(at, 5<<subBits, mark(3))
		s.schedule(at, 0, mark(0))
		s.runUntil(20 * blockSpan) // at is now within the far wheel's span
		s.schedule(at, 0, mark(1))
		s.runUntil(at - blockSpan/2) // and now within the near window
		s.schedule(at, 0, mark(2))
		s.schedule(at, 1<<32|1, mark(4))
	}},
}

// TestWheelDirectedOrder runs each directed case on the wheel and on the
// reference heap and requires the same events at the same times in the
// same order, every event run, and the clock never stepping back.
func TestWheelDirectedOrder(t *testing.T) {
	for _, c := range directedCases {
		drive := func(s scheduler) (trace []int64) {
			c.run(s, func(id int) func() {
				return func() { trace = append(trace, int64(id), int64(s.now())) }
			})
			for s.step() {
			}
			return trace
		}
		e := New()
		got, want := drive(wheelSched{e}), drive(refSched{&refEngine{}})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wheel ran (id, time) %v, reference heap %v", c.name, got, want)
		}
		if e.Pending() != 0 {
			t.Errorf("%s: %d events left pending", c.name, e.Pending())
		}
		for i := 3; i < len(got); i += 2 {
			if got[i] < got[i-2] {
				t.Errorf("%s: clock stepped back from %d to %d", c.name, got[i-2], got[i])
			}
		}
	}
}

// TestWheelSameInstantDeliveryOrder spells out the second directed case's
// expected order, so the oracle itself is pinned: local events first
// (FIFO), then deliveries by key, and the local event a delivery
// schedules for its own instant runs right after it.
func TestWheelSameInstantDeliveryOrder(t *testing.T) {
	e := New()
	var order []int
	directedCases[1].run(wheelSched{e}, func(id int) func() {
		return func() { order = append(order, id) }
	})
	if want := []int{4, 0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestStopInsideCallback: Stop from a callback halts every run loop
// before the next event — even one queued for the same instant — and
// freezes the clock there.
func TestStopInsideCallback(t *testing.T) {
	loops := map[string]func(e *Engine){
		"Run":      func(e *Engine) { e.Run() },
		"RunUntil": func(e *Engine) { e.RunUntil(100) },
		"Step": func(e *Engine) {
			for e.Step() {
			}
		},
	}
	for name, loop := range loops {
		e := New()
		ran := 0
		e.AtCall(10, func(any) { ran++; e.Stop() }, nil)
		e.AtCall(10, func(any) { ran++ }, nil)
		e.AtCall(20, func(any) { ran++ }, nil)
		loop(e)
		if ran != 1 || e.Pending() != 2 || e.Now() != 10 || e.Processed() != 1 {
			t.Errorf("%s: ran %d events, %d pending, now %v; want 1, 2, 10ps", name, ran, e.Pending(), e.Now())
		}
	}
}

// TestWheelFarFutureMigration schedules events far beyond the wheel span
// and checks they fire in order after migrating from the overflow heap.
func TestWheelFarFutureMigration(t *testing.T) {
	e := New()
	var order []Time
	times := []Time{5 * Second, 3 * Millisecond, 70 * Microsecond, 100 * Nanosecond, 70*Microsecond + 1}
	for _, at := range times {
		at := at
		e.AtCall(at, func(any) { order = append(order, at) }, nil)
	}
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("out of order: %v", order)
		}
	}
	if len(order) != len(times) {
		t.Fatalf("ran %d events, want %d", len(order), len(times))
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

// TestWheelSameInstantAcrossOverflow checks the seq tie-break survives the
// wheel/overflow split: events at one far instant, scheduled at different
// points, still run FIFO.
func TestWheelSameInstantAcrossOverflow(t *testing.T) {
	e := New()
	const at = 10 * Millisecond
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		e.AtCall(at, func(any) { order = append(order, i) }, nil)
		if i == 9 {
			// Advance close to the target so later schedulings land in
			// the wheel while earlier ones migrated from the overflow.
			e.RunUntil(at - 10*Microsecond)
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

// TestAtCallOrdering checks events with and without an argument
// interleave in strict schedule order.
func TestAtCallOrdering(t *testing.T) {
	e := New()
	var order []int
	push := func(a any) { order = append(order, a.(int)) }
	e.AtCall(100, push, 0)
	e.AtCall(100, func(any) { order = append(order, 1) }, nil)
	e.AtCall(100, push, 2)
	e.AfterCall(50, push, 3) // at 50: runs first
	e.Run()
	want := []int{3, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEngineSteadyStateAllocs verifies the event core schedules and runs
// without heap allocation once warm (the pooled-event contract the
// zero-allocation data path builds on).
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := New()
	var tick func(any)
	tick = func(a any) {
		n := a.(int)
		if n > 0 {
			e.AfterCall(Time(n%3)*tickSpan, tick, n-1)
		}
	}
	// Warm up bucket capacity across a few full wheel rotations (bucket
	// slices grow lazily as the clock first visits them).
	e.AfterCall(1, tick, 5000)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.AfterCall(1, tick, 50)
		e.Run()
	})
	// The arg int boxes into an interface on the first 256 values only;
	// steady state should be allocation-free.
	if allocs > 1 {
		t.Fatalf("engine steady-state allocs/run = %v, want <= 1", allocs)
	}
}

// TestEventLayout pins the single-arm event: (at, seq, dkey, cb, arg) in
// 48 bytes and no func()-typed field, so a closure-carrying second arm
// cannot creep back into the engine.
func TestEventLayout(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 48 {
		t.Errorf("sizeof(event) = %d, want 48", sz)
	}
	typ := reflect.TypeOf(event{})
	plainFunc := reflect.TypeOf(func() {})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type == plainFunc {
			t.Errorf("event.%s is a func(): events carry only (cb func(any), arg any)", f.Name)
		}
	}
}

// TestPendingCountsEveryLevel: one event in the near wheel, one in the far
// wheel and one in the heap are three pending events, and each leaves the
// count as it runs.
func TestPendingCountsEveryLevel(t *testing.T) {
	e := New()
	for _, at := range []Time{tickSpan, 5 * blockSpan, 2 * farSpan} {
		e.AtCall(at, func(any) {}, nil)
	}
	if e.nearCnt != 1 || e.farCnt != 1 || len(e.overflow) != 1 {
		t.Fatalf("near/far/heap hold %d/%d/%d events, want 1/1/1", e.nearCnt, e.farCnt, len(e.overflow))
	}
	for want := 3; want >= 0; want-- {
		if e.Pending() != want {
			t.Fatalf("Pending() = %d, want %d", e.Pending(), want)
		}
		e.Step()
	}
}

// TestNearEventsStayInTheWheel is the regression test for the hopping
// window this engine replaced, which sent every event scheduled in the tail
// of its 67 us span through the overflow heap however near it was due. 64
// chains reschedule themselves 0–30 us ahead for 50 turns of the near
// wheel; the window slides with the clock, so none of those events may ever
// be found in the far wheel or the heap. The chains start where an idle
// RunUntil parked the clock, which must have brought the window along.
func TestNearEventsStayInTheWheel(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	const start = 123*blockSpan + 17
	const end = start + 50*wheelSize*tickSpan
	e.RunUntil(start)
	strayed := 0
	var fire func(any)
	fire = func(any) {
		if e.Now() < end {
			e.AfterCall(Time(rng.Int63n(int64(30*Microsecond))), fire, nil)
		}
		strayed += e.OutsideNear()
	}
	for i := 0; i < 64; i++ {
		e.AtCall(start+Time(i)*Nanosecond, fire, nil)
	}
	strayed += e.OutsideNear()
	e.Run()
	if strayed != 0 {
		t.Errorf("%d sightings of an event outside the near wheel, want none", strayed)
	}
	if e.Processed() < 64*50 {
		t.Fatalf("only %d events ran", e.Processed())
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	b.ReportAllocs()
	var tick func(any)
	tick = func(a any) {}
	for i := 0; i < b.N; i++ {
		e.AfterCall(Time(i%4096), tick, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkEngineScheduleFar(b *testing.B) {
	e := New()
	b.ReportAllocs()
	var tick func(any)
	tick = func(a any) {}
	span := Time(wheelSize) << tickBits
	for i := 0; i < b.N; i++ {
		e.AfterCall(span+Time(i%4096), tick, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineDense reproduces the event regime measured on the
// kv_flextoe benchmark workload, which BenchmarkEngineSchedule (in-order,
// under one event per bucket) never enters: 560 self-rearming chains with
// delays uniform over 64 ticks keep about nine live events in the bucket
// an insert lands in, about four inserts in five order before that
// bucket's tail, and a few percent tie on the instant — same-instant
// local events and link deliveries (dkey) both. One op is one event
// scheduled and executed.
func BenchmarkEngineDense(b *testing.B) {
	const chains = 560
	const horizon = 64 * tickSpan
	e := New()
	rng := uint64(0x9e3779b97f4a7c15)
	var link uint64
	var fire func(any)
	fire = func(a any) {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		d := Time(rng>>8) % horizon
		switch rng & 63 {
		case 0, 1: // same instant, FIFO behind whatever is queued for it
			e.ImmediatelyCall(fire, a)
		case 2, 3: // a frame delivery on a tick boundary: ties with its like
			link++
			e.AtLinkCall((e.Now()+d)&^(tickSpan-1)+tickSpan, 1<<32|link, fire, a)
		default:
			e.AfterCall(d, fire, a)
		}
	}
	for i := 0; i < chains; i++ {
		e.AtCall(Time(i)*horizon/chains, fire, nil)
	}
	e.RunUntil(4 * horizon) // reach the steady-state shape
	b.ReportAllocs()
	b.ResetTimer()
	for end := e.Processed() + uint64(b.N); e.Processed() < end; {
		e.RunUntil(e.Now() + Microsecond)
	}
}

// BenchmarkEngineFarBand is the regime between the near window and the far
// wheel's span: 4096 self-rearming chains, each due 100 us – 5 ms ahead
// (serializer backlogs, retransmission timers), so every event waits in a
// far bucket and reaches the near wheel by a cascade. One op is one event
// scheduled and executed.
func BenchmarkEngineFarBand(b *testing.B) {
	const chains = 4096
	e := New()
	rng := uint64(0x9e3779b97f4a7c15)
	var fire func(any)
	fire = func(a any) {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		e.AfterCall(100*Microsecond+Time(rng>>8)%(4900*Microsecond), fire, a)
	}
	for i := 0; i < chains; i++ {
		e.AtCall(Time(i)*Microsecond, fire, nil)
	}
	e.RunUntil(20 * Millisecond) // reach the steady-state shape
	b.ReportAllocs()
	b.ResetTimer()
	for end := e.Processed() + uint64(b.N); e.Processed() < end; {
		e.RunUntil(e.Now() + 10*Microsecond)
	}
}
