package sched

import (
	"math/rand"
	"slices"
	"testing"

	"flextoe/internal/sim"
)

func TestUncongestedRoundRobin(t *testing.T) {
	eng := sim.New()
	c := New(eng, 2*sim.Microsecond, 1024)
	c.Submit(1)
	c.Submit(2)
	c.Submit(3)
	var order []uint32
	for {
		id, ok := c.Next(1448)
		if !ok {
			break
		}
		order = append(order, id)
		// Re-submit each flow once, emulating "still has data".
		if len(order) <= 3 {
			c.Submit(id)
		}
	}
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// First three pops are FIFO; second round repeats the rotation.
	want := []uint32{1, 2, 3, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDuplicateSubmitIgnored(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 64)
	c.Submit(7)
	c.Submit(7)
	c.Submit(7)
	n := 0
	for {
		if _, ok := c.Next(100); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("flow popped %d times", n)
	}
}

func TestRateConformance(t *testing.T) {
	// A flow paced at 1000 ps/byte sending 1000-byte bursts must emerge
	// once per microsecond.
	eng := sim.New()
	c := New(eng, sim.Microsecond/2, 4096)
	c.SetInterval(5, 1000*sim.Picosecond)
	c.Submit(5)

	var sendTimes []sim.Time
	var pump func()
	pump = func() {
		for {
			id, ok := c.Next(1000)
			if !ok {
				break
			}
			sendTimes = append(sendTimes, eng.Now())
			if len(sendTimes) >= 10 {
				return
			}
			c.Submit(id)
		}
		if dl, ok := c.NextDeadline(); ok {
			eng.AfterCall(dl-eng.Now(), sim.RunFunc, pump)
		}
	}
	eng.AfterCall(0, sim.RunFunc, pump)
	eng.Run()

	if len(sendTimes) != 10 {
		t.Fatalf("sends = %d", len(sendTimes))
	}
	total := sendTimes[len(sendTimes)-1] - sendTimes[0]
	// 9 intervals of 1us each, quantized by the half-us wheel.
	if total < 8*sim.Microsecond || total > 11*sim.Microsecond {
		t.Fatalf("10 sends spread over %v", total)
	}
}

func TestRateChangeTakesEffect(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 1024)
	c.SetInterval(1, 10*sim.Nanosecond)
	c.Submit(1)
	id, ok := c.Next(100) // charges 1us
	if !ok || id != 1 {
		t.Fatal("first pop failed")
	}
	// Uncongest the flow: immediate eligibility on next submit, even
	// though the pacer deadline is in the future.
	c.SetInterval(1, 0)
	c.Submit(1)
	if _, ok := c.Next(100); !ok {
		t.Fatal("uncongested flow not immediately eligible")
	}
}

func TestWheelDefersRateLimitedFlow(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 1024)
	c.SetInterval(9, 100*sim.Nanosecond) // 100ns/byte
	c.Submit(9)
	if _, ok := c.Next(1000); !ok { // charges 100us
		t.Fatal("first send refused")
	}
	c.Submit(9)
	if _, ok := c.Next(1000); ok {
		t.Fatal("flow eligible before pacing deadline")
	}
	dl, ok := c.NextDeadline()
	if !ok {
		t.Fatal("no deadline despite queued flow")
	}
	if dl < 99*sim.Microsecond || dl > 102*sim.Microsecond {
		t.Fatalf("deadline = %v", dl)
	}
	eng.AfterCall(dl-eng.Now(), func(any) {
		if _, ok := c.Next(1000); !ok {
			t.Error("flow not eligible at deadline")
		}
	}, nil)
	eng.Run()
}

func TestHorizonClamp(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 16) // 16us horizon
	c.SetInterval(3, sim.Millisecond)  // absurdly slow: 1ms/byte
	c.Submit(3)
	c.Next(1000) // deadline 1 second out
	c.Submit(3)
	dl, ok := c.NextDeadline()
	if !ok {
		t.Fatal("no deadline")
	}
	if dl > c.Horizon()+sim.Microsecond {
		t.Fatalf("deadline %v beyond horizon %v", dl, c.Horizon())
	}
}

func TestRemove(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 64)
	c.Submit(1)
	c.Submit(2)
	c.Remove(1)
	id, ok := c.Next(100)
	if !ok || id != 2 {
		t.Fatalf("Next = %d, %v", id, ok)
	}
	if _, ok := c.Next(100); ok {
		t.Fatal("removed flow still scheduled")
	}
}

func TestRemoveWhileInWheel(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 64)
	c.SetInterval(4, 100*sim.Nanosecond)
	c.Submit(4)
	c.Next(1000)
	c.Submit(4) // now in wheel
	c.Remove(4)
	eng.AfterCall(200*sim.Microsecond, func(any) {
		if _, ok := c.Next(100); ok {
			t.Error("removed flow emerged from wheel")
		}
	}, nil)
	eng.Run()
}

// TestSlotReuseAcrossPages: ids are connection slot numbers, so they span
// state pages and come back after Remove. A reused slot must start from
// nothing — no rate limit, no conformance debt, not queued — and an id that
// was never programmed reads as unlimited, in whichever page it falls.
func TestSlotReuseAcrossPages(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 64)
	ids := []uint32{3, statePage - 1, statePage, 70000}
	for _, id := range ids {
		if c.Interval(id) != 0 {
			t.Fatalf("flow %d: interval %v before it was programmed", id, c.Interval(id))
		}
		c.SetInterval(id, 100*sim.Nanosecond)
		c.Submit(id)
	}
	for range ids {
		c.Next(1000) // charges 100 us of conformance debt each
	}
	for _, id := range ids {
		c.Submit(id) // rate-limited now: into the wheel
	}
	if c.Pending() != len(ids) || c.Scheduled != uint64(len(ids)) {
		t.Fatalf("pending %d, wheel insertions %d, want %d of each", c.Pending(), c.Scheduled, len(ids))
	}
	for _, id := range ids {
		c.Remove(id)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after removing every flow", c.Pending())
	}
	// The slots come back for new connections while the old ids still sit
	// in wheel slots.
	for _, id := range ids {
		if c.Interval(id) != 0 {
			t.Errorf("reused slot %d inherited interval %v", id, c.Interval(id))
		}
		c.Submit(id)
	}
	for i := range ids {
		if id, ok := c.Next(1000); !ok || id != ids[i] {
			t.Fatalf("Next = %d, %v; want flow %d straight from the round-robin list", id, ok, ids[i])
		}
	}
	if _, ok := c.Next(1000); ok {
		t.Fatal("a flow was scheduled twice")
	}
}

func TestPending(t *testing.T) {
	eng := sim.New()
	c := New(eng, sim.Microsecond, 64)
	c.Submit(1)
	c.Submit(2)
	if c.Pending() != 2 {
		t.Fatalf("pending = %d", c.Pending())
	}
	c.Next(100)
	if c.Pending() != 1 {
		t.Fatalf("pending = %d", c.Pending())
	}
}

func TestManyFlowsFairShare(t *testing.T) {
	// 64 uncongested flows pumped for many rounds each get equal service.
	eng := sim.New()
	c := New(eng, sim.Microsecond, 1024)
	counts := make(map[uint32]int)
	for id := uint32(0); id < 64; id++ {
		c.Submit(id)
	}
	for i := 0; i < 64*100; i++ {
		id, ok := c.Next(1448)
		if !ok {
			t.Fatalf("starved at %d", i)
		}
		counts[id]++
		c.Submit(id)
	}
	for id, n := range counts {
		if n != 100 {
			t.Fatalf("flow %d served %d times", id, n)
		}
	}
}

// walkHand is advanceHand as it was before an empty wheel was skipped in
// one step: the hand visits every slot up to now, collecting each one.
// Run right before a call that advances the hand (Next, NextDeadline, a
// Submit of a flow not yet queued), it leaves that call's own advanceHand
// nothing to do.
func walkHand(c *Carousel, now sim.Time) {
	if !c.handInit {
		c.hand = now - now%c.gran
		c.handInit = true
		return
	}
	for c.hand+c.gran <= now {
		if c.wheel != nil {
			due := c.wheel[c.cur]
			c.wheel[c.cur] = due[:0]
			c.wheelItems -= len(due)
			for _, id := range due {
				st := c.flow(id)
				if !st.inWheel {
					continue
				}
				st.inWheel = false
				st.inRR = true
				c.rr = append(c.rr, id)
			}
		}
		if c.cur++; c.cur == c.slots {
			c.cur = 0
		}
		c.hand += c.gran
	}
}

// TestIdleSkipMatchesSlotWalk holds the carousel's one-step crossing of an
// empty wheel to the slot-by-slot walk. Two carousels on one engine take
// the same seeded calls — submits of paced and unpaced flows, pops,
// removals, rate changes — at instants apart by anything from nothing to
// 100 ms of idle time, hundreds of horizons long; before each call on the
// reference that advances the hand, walkHand visits every slot. After
// every call the hand, the slot under it, the round-robin order and
// NextDeadline must agree.
func TestIdleSkipMatchesSlotWalk(t *testing.T) {
	const gran, slots = 2 * sim.Microsecond, 64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		got, ref := New(eng, gran, slots), New(eng, gran, slots)
		now := sim.Time(rng.Int63n(int64(sim.Millisecond)))
		skipped := 0
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(20); {
			case r < 12: // busy: within a few slots
				now += sim.Time(rng.Int63n(int64(4 * gran)))
			case r < 18: // a pause of up to a few horizons
				now += sim.Time(rng.Int63n(int64(3 * slots * gran)))
			case r < 19: // idle for up to 100 ms, 50 000 slots
				now += sim.Time(rng.Int63n(int64(100 * sim.Millisecond)))
			}
			eng.RunUntil(now)
			if got.wheelItems == 0 && got.handInit && now-got.hand >= 2*gran {
				skipped++
			}
			id := uint32(rng.Intn(12))
			switch op := rng.Intn(10); {
			case op < 4:
				got.Submit(id)
				if st := ref.flow(id); !st.inWheel && !st.inRR {
					walkHand(ref, now)
				}
				ref.Submit(id)
			case op < 7:
				n := uint32(64 + rng.Intn(1448))
				walkHand(ref, now)
				a, aok := got.Next(n)
				b, bok := ref.Next(n)
				if a != b || aok != bok {
					t.Fatalf("seed %d step %d: Next = %d, %v; slot walk %d, %v", seed, step, a, aok, b, bok)
				}
			case op < 9:
				per := sim.Time(0)
				if rng.Intn(3) > 0 {
					per = sim.Time(1+rng.Intn(200)) * sim.Nanosecond
				}
				got.SetInterval(id, per)
				ref.SetInterval(id, per)
			default:
				got.Remove(id)
				ref.Remove(id)
			}
			a, aok := got.NextDeadline()
			walkHand(ref, now)
			b, bok := ref.NextDeadline()
			if got.hand != ref.hand || got.cur != ref.cur || a != b || aok != bok ||
				!slices.Equal(got.rr[got.rrHead:], ref.rr[ref.rrHead:]) {
				t.Fatalf("seed %d step %d at %v: hand %v cur %d rr %v deadline %v,%v; slot walk hand %v cur %d rr %v deadline %v,%v",
					seed, step, now, got.hand, got.cur, got.rr[got.rrHead:], a, aok,
					ref.hand, ref.cur, ref.rr[ref.rrHead:], b, bok)
			}
		}
		if skipped == 0 {
			t.Errorf("seed %d: the wheel was never empty across an idle gap", seed)
		}
	}
}

// TestWheelAllocatedOnFirstPacedSubmit: a carousel that only ever sees
// unpaced flows never allocates its wheel, and its horizon is the full
// geometry all the same.
func TestWheelAllocatedOnFirstPacedSubmit(t *testing.T) {
	eng := sim.New()
	c := New(eng, 2*sim.Microsecond, 4096)
	if c.Horizon() != 8192*sim.Microsecond {
		t.Fatalf("horizon %v, want 8.192 ms", c.Horizon())
	}
	for i := 0; i < 100; i++ {
		c.Submit(uint32(i % 7))
		c.Next(1448)
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	if c.wheel != nil {
		t.Fatal("unpaced flows allocated the wheel")
	}
	c.SetInterval(3, sim.Nanosecond)
	c.Submit(3)
	c.Next(1448)
	c.Submit(3)
	if len(c.wheel) != 4096 || c.wheelItems != 1 {
		t.Fatalf("after a paced submit: wheel of %d slots holding %d, want 4096 holding 1", len(c.wheel), c.wheelItems)
	}
}
