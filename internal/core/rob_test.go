package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// refROB is the reorder buffer as it was before the ring: two maps keyed by
// ticket. It stays here as the oracle the ring is driven against.
type refROB struct {
	next    uint64
	issued  uint64
	held    map[uint64]*segItem
	skipped map[uint64]bool
	out     func(*segItem)

	Holds    uint64
	Releases uint64
}

func newRefROB(out func(*segItem)) *refROB {
	return &refROB{held: make(map[uint64]*segItem), skipped: make(map[uint64]bool), out: out}
}

func (r *refROB) ticket() uint64 {
	t := r.issued
	r.issued++
	return t
}

func (r *refROB) submit(t uint64, s *segItem) {
	if t != r.next {
		r.held[t] = s
		r.Holds++
		return
	}
	r.release(s)
	r.drain()
}

func (r *refROB) skip(t uint64) {
	if t == r.next {
		r.next++
		r.drain()
		return
	}
	r.skipped[t] = true
}

func (r *refROB) release(s *segItem) {
	r.next++
	r.Releases++
	r.out(s)
}

func (r *refROB) drain() {
	for {
		if r.skipped[r.next] {
			delete(r.skipped, r.next)
			r.next++
			continue
		}
		s, ok := r.held[r.next]
		if !ok {
			return
		}
		delete(r.held, r.next)
		r.release(s)
	}
}

func (r *refROB) pendingHeld() int { return len(r.held) }

// robPair drives the ring and the oracle with one stream of operations and
// compares everything observable after each: the segments released so far
// (identity and order), next, pendingHeld, Holds and Releases.
type robPair struct {
	t        *testing.T
	ring     *rob
	ref      *refROB
	got      []*segItem
	want     []*segItem
	items    map[uint64]*segItem
	nextSeen int
}

func newROBPair(t *testing.T) *robPair {
	p := &robPair{t: t, items: make(map[uint64]*segItem)}
	p.ring = newROB(func(s *segItem) { p.got = append(p.got, s) })
	p.ref = newRefROB(func(s *segItem) { p.want = append(p.want, s) })
	return p
}

func (p *robPair) ticket() uint64 {
	a, b := p.ring.ticket(), p.ref.ticket()
	if a != b {
		p.t.Fatalf("ticket %d, oracle %d", a, b)
	}
	p.items[a] = &segItem{ticket: a}
	return a
}

func (p *robPair) submit(tk uint64) {
	s := p.items[tk]
	delete(p.items, tk)
	p.ring.submit(tk, s)
	p.ref.submit(tk, s)
	p.check("submit", tk)
}

func (p *robPair) skip(tk uint64) {
	delete(p.items, tk)
	p.ring.skip(tk)
	p.ref.skip(tk)
	p.check("skip", tk)
}

func (p *robPair) check(op string, tk uint64) {
	p.t.Helper()
	if len(p.got) != len(p.want) {
		p.t.Fatalf("after %s(%d): %d segments released, oracle %d", op, tk, len(p.got), len(p.want))
	}
	for ; p.nextSeen < len(p.got); p.nextSeen++ {
		if g, w := p.got[p.nextSeen], p.want[p.nextSeen]; g != w {
			p.t.Fatalf("after %s(%d): release %d is ticket %d, oracle ticket %d", op, tk, p.nextSeen, g.ticket, w.ticket)
		}
	}
	if p.ring.next != p.ref.next || p.ring.pendingHeld() != p.ref.pendingHeld() ||
		p.ring.Holds != p.ref.Holds || p.ring.Releases != p.ref.Releases {
		p.t.Fatalf("after %s(%d): next/held/Holds/Releases %d/%d/%d/%d, oracle %d/%d/%d/%d", op, tk,
			p.ring.next, p.ring.pendingHeld(), p.ring.Holds, p.ring.Releases,
			p.ref.next, p.ref.pendingHeld(), p.ref.Holds, p.ref.Releases)
	}
}

// released returns the tickets released so far, in order.
func (p *robPair) released() []uint64 {
	out := make([]uint64, len(p.got))
	for i, s := range p.got {
		out[i] = s.ticket
	}
	return out
}

// TestROBDirected: one case per way the ring can go wrong, each with the
// mutation of seg.go it is there to kill.
func TestROBDirected(t *testing.T) {
	issue := func(p *robPair, n int) {
		for i := 0; i < n; i++ {
			p.ticket()
		}
	}
	cases := []struct {
		name string
		run  func(p *robPair)
		want []uint64
	}{
		// Kills: skip at the head forgetting to drain what it unblocks.
		{"skip at the head", func(p *robPair) {
			issue(p, 3)
			p.submit(1)
			p.submit(2)
			p.skip(0)
		}, []uint64{1, 2}},
		// Kills: the sentinel treated as an item (drain without the
		// robSkipped arm hands it to out and counts a release), and a
		// skip that counts as a held segment.
		{"skip of a held-behind ticket", func(p *robPair) {
			issue(p, 4)
			p.submit(3)
			p.skip(1)
			p.submit(2)
			p.submit(0)
		}, []uint64{0, 2, 3}},
		// Kills: drain stopping after one skipped slot.
		{"run of skips", func(p *robPair) {
			issue(p, 8)
			for tk := uint64(6); tk >= 1; tk-- {
				p.skip(tk)
			}
			p.submit(7)
			p.submit(0)
		}, []uint64{0, 7}},
		// Kills: a slot not cleared on release. Ticket 1 waits in slot 1
		// and is released; a ring's length of tickets later, ticket
		// 1+robInitialRing must find that slot empty or segment 1 goes out
		// twice.
		{"a slot is empty one turn later", func(p *robPair) {
			issue(p, 2)
			p.submit(1)
			p.submit(0)
			for i := 0; i < robInitialRing; i++ {
				p.submit(p.ticket())
			}
			p.skip(p.ticket())
		}, seqTickets(0, 2+robInitialRing)},
		// Kills: the wrap at issued-next == len(ring) — growth left out, or
		// at > and not >=. A ticket a full ring ahead of the head shares
		// the head's slot: stored there it survives only until the ring
		// grows, which copies slot by ticket and would file it under the
		// head's. One further ahead shares held ticket 1's slot and would
		// overwrite segment 1.
		{"tickets a ring ahead of the head", func(p *robPair) {
			issue(p, robInitialRing+2)
			p.submit(1)
			p.submit(robInitialRing)
			p.submit(robInitialRing + 1)
			p.submit(0)
			for tk := uint64(2); tk < robInitialRing; tk++ {
				p.submit(tk)
			}
		}, seqTickets(0, robInitialRing+2)},
		// Kills: growth that copies by old index, or only the live prefix:
		// the head sits mid-ring, so the held tickets straddle the old
		// ring's end when it doubles twice.
		{"growth with the head mid-ring", func(p *robPair) {
			for i := 0; i < robInitialRing/2+3; i++ {
				p.submit(p.ticket())
			}
			base := p.ring.next
			issue(p, 4*robInitialRing)
			for tk := base + 4*robInitialRing - 1; tk > base; tk -= 3 {
				p.submit(tk)
			}
			p.skip(base + 4)
			for tk := base; tk < base+4*robInitialRing; tk++ {
				if _, out := p.items[tk]; out {
					p.submit(tk)
				}
			}
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newROBPair(t)
			c.run(p)
			if c.want != nil && !reflect.DeepEqual(p.released(), c.want) {
				t.Errorf("released %v, want %v", p.released(), c.want)
			}
			if p.ring.next != p.ring.issued || p.ring.pendingHeld() != 0 {
				t.Errorf("not drained: next %d, issued %d, held %d", p.ring.next, p.ring.issued, p.ring.pendingHeld())
			}
			for i, s := range p.ring.ring {
				if s != nil {
					t.Errorf("slot %d still set at quiescence", i)
				}
			}
		})
	}
}

func seqTickets(from, to uint64) []uint64 {
	var out []uint64
	for tk := from; tk < to; tk++ {
		out = append(out, tk)
	}
	return out
}

// TestROBMatchesMapOracle drives ring and oracle with seeded streams: up to
// window tickets outstanding, completed in random order, a share of them by
// skip. The windows straddle the initial ring (below it, at it, above it
// so the ring grows mid-stream), and the skip shares run from none to
// nearly all, which makes runs of skips the common case.
func TestROBMatchesMapOracle(t *testing.T) {
	for _, window := range []int{1, 7, robInitialRing, robInitialRing + 1, 5 * robInitialRing} {
		for _, skipShare := range []float64{0, 0.3, 0.9} {
			rng := rand.New(rand.NewSource(int64(window)*131 + int64(skipShare*10)))
			p := newROBPair(t)
			var outstanding []uint64
			for ops := 0; ops < 20000 || len(outstanding) > 0; ops++ {
				if ops < 20000 && len(outstanding) < window && (len(outstanding) == 0 || rng.Intn(2) == 0) {
					outstanding = append(outstanding, p.ticket())
					continue
				}
				// Completion order: mostly near the head, sometimes anywhere,
				// so both long holds and in-order runs occur.
				i := rng.Intn(len(outstanding))
				if rng.Intn(3) > 0 {
					i = rng.Intn(min(len(outstanding), 4))
				}
				tk := outstanding[i]
				outstanding = append(outstanding[:i], outstanding[i+1:]...)
				if rng.Float64() < skipShare {
					p.skip(tk)
				} else {
					p.submit(tk)
				}
			}
			if p.ring.next != p.ring.issued || p.ring.pendingHeld() != 0 {
				t.Errorf("window %d skips %.1f: not drained: next %d, issued %d, held %d",
					window, skipShare, p.ring.next, p.ring.issued, p.ring.pendingHeld())
			}
			if window > robInitialRing && len(p.ring.ring) == robInitialRing {
				t.Errorf("window %d: the ring never grew", window)
			}
		}
	}
}

// TestROBRefusesATicketBehindTheHead: a ticket completed twice would index
// the ring a whole turn behind; it is a bug in the caller and must stop the
// run, not grow the ring without bound.
func TestROBRefusesATicketBehindTheHead(t *testing.T) {
	r := newROB(func(*segItem) {})
	r.ticket()
	r.ticket()
	r.skip(0)
	defer func() {
		if recover() == nil {
			t.Fatal("skip of a ticket behind the head did not panic")
		}
	}()
	r.skip(0)
}
