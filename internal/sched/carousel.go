// Package sched implements FlexTOE's work-conserving flow scheduler
// (§3.4), based on Carousel [53]: a time wheel of hardware queues for
// rate-limited flows plus a round-robin active list that bypasses the
// rate limiter for uncongested flows.
//
// Rates arrive from the control plane pre-converted to time-per-byte
// intervals, because the NFP-4000 has no divide unit: the data-path
// computes deadlines with a single multiplication (§3.4).
package sched

import "flextoe/internal/sim"

// Carousel schedules flows by connection index (§3.4): an id is the data
// path's connection slot number, and every per-flow lookup indexes by it.
type Carousel struct {
	eng      *sim.Engine
	gran     sim.Time // slot granularity
	wheel    [][]uint32
	cur      int      // slot under the hand
	hand     sim.Time // time at the start of the current slot
	handInit bool

	// Round-robin list: due and uncongested flows. Consumed from rrHead
	// and compacted periodically so the backing array recycles instead of
	// reallocating on every append (the old head-slicing grew a fresh
	// array per wheel rotation).
	rr     []uint32
	rrHead int

	// wheelItems counts entries sitting in wheel slots (including stale
	// ones not yet drained), so NextDeadline's slot scan — 4096 probes —
	// only runs when something is actually rate-limited.
	wheelItems int

	// state is indexed by connection id in pages of statePage entries, as
	// the data path's connection slab is: ids are slot numbers, handed out
	// densely and reused, so a page is allocated once and a lookup is two
	// indexations. A flow that was never programmed, or was removed, is
	// the zero flowState.
	state [][]flowState

	// Statistics.
	Scheduled uint64 // wheel insertions
	Bypassed  uint64 // RR insertions
}

// State-page geometry: 256 entries, one connection-slab block's worth.
const (
	statePageShift = 8
	statePage      = 1 << statePageShift
)

type flowState struct {
	inWheel  bool
	inRR     bool
	interval sim.Time // ps per byte; 0 = uncongested (bypass)
	nextSend sim.Time // earliest next transmission (rate conformance)
}

// New creates a wheel with the given slot granularity and slot count. The
// horizon is gran*slots; deadlines beyond it clamp to the furthest slot.
func New(eng *sim.Engine, gran sim.Time, slots int) *Carousel {
	if gran <= 0 || slots <= 0 {
		panic("sched: bad wheel geometry")
	}
	return &Carousel{
		eng:   eng,
		gran:  gran,
		wheel: make([][]uint32, slots),
	}
}

// Horizon returns the wheel's reach.
func (c *Carousel) Horizon() sim.Time { return c.gran * sim.Time(len(c.wheel)) }

// flow returns id's state, allocating its page on first touch.
func (c *Carousel) flow(id uint32) *flowState {
	pg := int(id >> statePageShift)
	if pg >= len(c.state) {
		c.state = append(c.state, make([][]flowState, pg+1-len(c.state))...)
	}
	if c.state[pg] == nil {
		c.state[pg] = make([]flowState, statePage)
	}
	return &c.state[pg][id&(statePage-1)]
}

// SetInterval programs a flow's pacing interval in time-per-byte (the
// control plane's cycles/byte, pre-divided). 0 removes the rate limit.
func (c *Carousel) SetInterval(id uint32, perByte sim.Time) {
	c.flow(id).interval = perByte
}

// Interval returns the flow's programmed pacing interval.
func (c *Carousel) Interval(id uint32) sim.Time { return c.flow(id).interval }

// Submit makes a flow eligible for transmission: uncongested flows join
// the round-robin list; rate-limited flows enter the wheel at their next
// conforming deadline. Duplicate submissions are ignored (§3.4: the
// scheduler only tracks whether a flow has data and quota).
func (c *Carousel) Submit(id uint32) {
	st := c.flow(id)
	if st.inWheel || st.inRR {
		return
	}
	now := c.eng.Now()
	c.advanceHand(now)
	if st.interval == 0 || st.nextSend <= now {
		st.inRR = true
		c.rr = append(c.rr, id)
		c.Bypassed++
		return
	}
	// A flow in slot k becomes ready when the hand passes it, at
	// hand+(k+1)*gran; pick the first slot whose collection time covers
	// the deadline.
	slots := int((st.nextSend-c.hand+c.gran-1)/c.gran) - 1
	if slots < 0 {
		slots = 0
	}
	if slots >= len(c.wheel) {
		slots = len(c.wheel) - 1
	}
	idx := c.slot(slots)
	c.wheel[idx] = append(c.wheel[idx], id)
	c.wheelItems++
	st.inWheel = true
	c.Scheduled++
}

// slot returns the wheel index k slots past the hand, 0 <= k < len(wheel):
// one compare for the wrap, as the hardware's queue index does it.
func (c *Carousel) slot(k int) int {
	idx := c.cur + k
	if idx >= len(c.wheel) {
		idx -= len(c.wheel)
	}
	return idx
}

// advanceHand rotates the wheel so the hand covers now, collecting due
// flows into the round-robin ready list. Note the order of flows within a
// slot is not preserved relative to sub-slot deadlines, matching the
// hardware-queue implementation (§4).
func (c *Carousel) advanceHand(now sim.Time) {
	if !c.handInit {
		c.hand = now - now%c.gran
		c.handInit = true
		return
	}
	for c.hand+c.gran <= now {
		due := c.wheel[c.cur]
		if len(due) > 0 {
			c.wheel[c.cur] = due[:0] // keep the slot's array for its next turn
			c.wheelItems -= len(due)
			for _, id := range due {
				st := c.flow(id)
				if !st.inWheel {
					continue // removed while queued
				}
				st.inWheel = false
				st.inRR = true
				c.rr = append(c.rr, id)
			}
		}
		if c.cur++; c.cur == len(c.wheel) {
			c.cur = 0
		}
		c.hand += c.gran
	}
}

// Next pops the next flow eligible to send one burst of n bytes. It
// charges the flow's rate limiter for those bytes and reports false when
// nothing is eligible now. The caller re-Submits the flow if it still has
// data and quota after transmitting; re-submission lands at the charged
// deadline, which is how rate conformance emerges.
func (c *Carousel) Next(bytes uint32) (uint32, bool) {
	now := c.eng.Now()
	c.advanceHand(now)
	for c.rrHead < len(c.rr) {
		id := c.rr[c.rrHead]
		c.rrHead++
		if c.rrHead == len(c.rr) {
			c.rr = c.rr[:0]
			c.rrHead = 0
		} else if c.rrHead > 64 && c.rrHead*2 >= len(c.rr) {
			n := copy(c.rr, c.rr[c.rrHead:])
			c.rr = c.rr[:n]
			c.rrHead = 0
		}
		st := c.flow(id)
		if !st.inRR {
			continue // removed while queued
		}
		st.inRR = false
		if st.interval > 0 {
			base := st.nextSend
			if base < now {
				base = now
			}
			st.nextSend = base + sim.Time(bytes)*st.interval
		}
		return id, true
	}
	return 0, false
}

// NextDeadline returns the earliest instant the scheduler will have work,
// so the transmit pump can sleep precisely. ok is false when the
// scheduler is empty.
func (c *Carousel) NextDeadline() (sim.Time, bool) {
	c.advanceHand(c.eng.Now())
	if c.rrHead < len(c.rr) {
		return c.eng.Now(), true
	}
	if c.wheelItems == 0 {
		return 0, false
	}
	for i := 0; i < len(c.wheel); i++ {
		if len(c.wheel[c.slot(i)]) > 0 {
			return c.hand + sim.Time(i+1)*c.gran, true
		}
	}
	return 0, false
}

// Empty reports whether the scheduler holds no flow, ready or on the
// wheel (stale entries of removed flows count as held until drained).
func (c *Carousel) Empty() bool { return c.rrHead == len(c.rr) && c.wheelItems == 0 }

// Pending returns the number of flows waiting (wheel + RR).
func (c *Carousel) Pending() int {
	n := 0
	for _, pg := range c.state {
		for i := range pg {
			if pg[i].inWheel || pg[i].inRR {
				n++
			}
		}
	}
	return n
}

// Remove drops a flow entirely (connection teardown). Stale wheel or RR
// entries are skipped when encountered.
func (c *Carousel) Remove(id uint32) { *c.flow(id) = flowState{} }
