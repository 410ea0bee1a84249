package core

import (
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/tcpseg"
)

// segKind discriminates the three data-path workflows (§3.1).
type segKind uint8

const (
	segRX segKind = iota
	segTX
	segHC
)

// segItem is the work unit flowing between pipeline stages: a segment (or
// host-control descriptor) plus the metadata modules forward along the
// pipeline (§3.3: state that later stages need travels as metadata, never
// as shared state).
//
// Items are pooled per TOE (allocSeg/putSeg) and reference-counted:
// allocSeg hands out one reference, nbiSubmit takes a second for the
// reorder buffer, and the item recycles when the last holder drops its
// reference. This keeps the item alive whether the NBI releases it
// synchronously (in-order ticket) or long after the submitting stage
// moved on (held behind an earlier ticket).
type segItem struct {
	kind segKind
	conn uint32
	fg   int

	// toe owns the item's pool; set once at first allocation and
	// preserved across recycling so pooled completion callbacks
	// (sim.Engine.AtCall) can find their way back without a closure.
	toe  *TOE
	refs int8

	// connRef pins the connection across an asynchronous DMA so the
	// completion continues against the same state the issuing stage saw
	// (matching the closure capture the pipeline used to do).
	connRef *Conn

	// Sequencing (§3.2).
	ticket    uint64 // protocol-stage admission order, per flow group
	nbiTicket uint64 // NBI transmission order, per flow group
	hasNBI    bool

	// RX workflow.
	pkt  *packet.Packet
	info tcpseg.SegInfo
	rx   tcpseg.RXResult

	// TX workflow.
	tx tcpseg.TXResult

	// HC workflow.
	hc   shm.Desc
	hcOp tcpseg.HCOp

	// XDP stage carry-through.
	xdp *xdpWork

	// dropped marks a segment abandoned mid-pipeline (window closed,
	// connection removed); downstream stages release its resources.
	dropped bool
}

// allocSeg takes a zeroed item from the TOE's pool with one reference.
func (t *TOE) allocSeg() *segItem {
	if s := t.segFree.Get(); s != nil {
		s.refs = 1
		return s
	}
	return &segItem{toe: t, refs: 1}
}

// putSeg drops one reference; the last drop recycles the item. The caller
// must not touch the item afterwards.
func (t *TOE) putSeg(s *segItem) {
	s.refs--
	if s.refs > 0 {
		return
	}
	if s.refs < 0 {
		panic("core: segItem over-released")
	}
	*s = segItem{toe: s.toe}
	t.segFree.Put(s)
}

// nbiSubmit hands the item to the island's NBI reorder buffer, which holds
// its own reference until nbiOut transmits it (possibly synchronously,
// inside this call).
func (t *TOE) nbiSubmit(isl *island, s *segItem) {
	s.refs++
	isl.nbi.submit(s.nbiTicket, s)
}

// rob is a reorder buffer (§3.2): segments carry tickets assigned at
// pipeline entry; the rob releases them to its output strictly in ticket
// order. Cancelled tickets (e.g. XDP_DROP after ticketing) are skipped so
// the stream never stalls.
//
// Tickets are dense, so what waits behind the head waits in a power-of-two
// ring indexed by ticket: ring[t&mask] is the segment submitted under
// ticket t, robSkipped if t was cancelled, nil if t is still in the
// pipeline. Only tickets in (next, next+len(ring)) are ever stored, and a
// slot is cleared as the head passes it, so two tickets never meet in one
// slot; the ring doubles before a ticket further ahead than that is stored
// (tickets outstanding are bounded by the segment and descriptor pools, so
// it stops growing early).
type rob struct {
	next   uint64
	issued uint64
	ring   []*segItem
	held   int
	out    func(*segItem)

	// Statistics.
	Holds    uint64 // segments that arrived out of ticket order
	Releases uint64
}

// robSkipped marks a cancelled ticket's ring slot.
var robSkipped = new(segItem)

// robInitialRing is the ring's first size: wider than the window the
// pipeline's stage queues hold in a steady run.
const robInitialRing = 64

func newROB(out func(*segItem)) *rob {
	return &rob{ring: make([]*segItem, robInitialRing), out: out}
}

// ticket hands out the next ticket in this rob's order domain.
func (r *rob) ticket() uint64 {
	t := r.issued
	r.issued++
	return t
}

// submit delivers a ticketed segment; the rob releases it (and any
// segments it unblocks) in order.
func (r *rob) submit(t uint64, s *segItem) {
	if t != r.next {
		r.put(t, s)
		r.held++
		r.Holds++
		return
	}
	r.release(s)
	r.drain()
}

// skip cancels a ticket (segment dropped mid-pipeline).
func (r *rob) skip(t uint64) {
	if t == r.next {
		r.next++
		r.drain()
		return
	}
	r.put(t, robSkipped)
}

// put stores v under ticket t, which is ahead of the head.
func (r *rob) put(t uint64, v *segItem) {
	if t < r.next || t >= r.issued {
		panic("core: rob ticket outside (next, issued)")
	}
	for t-r.next >= uint64(len(r.ring)) {
		old := r.ring
		r.ring = make([]*segItem, 2*len(old))
		for u := r.next; u < r.next+uint64(len(old)); u++ {
			r.ring[u&uint64(len(r.ring)-1)] = old[u&uint64(len(old)-1)]
		}
	}
	r.ring[t&uint64(len(r.ring)-1)] = v
}

func (r *rob) release(s *segItem) {
	r.next++
	r.Releases++
	r.out(s)
}

func (r *rob) drain() {
	for {
		slot := &r.ring[r.next&uint64(len(r.ring)-1)]
		s := *slot
		if s == nil {
			return
		}
		*slot = nil
		if s == robSkipped {
			r.next++
			continue
		}
		r.held--
		r.release(s)
	}
}

// pendingHeld returns how many segments wait in the buffer.
func (r *rob) pendingHeld() int { return r.held }
