package packet

import (
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// The data path builds every ACK and data segment into a recycled Packet.
// A data segment's payload is a view of the sender's committed transmit
// bytes (SetPayloadView of an shm.PayloadBuf.View): the payload lives once,
// in the host buffer. Only a copy — a window straddling the ring's end, a
// duplicate of a copy — borrows a buffer from the pool's slab
// (GrowPayload) for its packet's journey, and Release returns it. So the
// steady-state wire path performs no heap allocation, and the slab holds
// the copies in flight, not the shells' high-water mark.
//
// Ownership rule (the single rule everything follows): a Packet has
// exactly one owner at a time. Building one and handing it to the fabric
// (netsim.Iface.Send) transfers ownership hop by hop; the party that
// terminates the packet's journey — the stack that consumed it, or the
// drop point (switch loss/WRED/flood, unconnected interface) — calls
// Release exactly once, and must not touch the packet afterwards.
// Senders must never retain or re-send a Packet they have transmitted
// (retransmissions rebuild from the payload buffer). Release on a packet
// built with a plain &Packet{} literal (control plane, applications,
// tests) is a no-op, so consumers can release unconditionally.
//
// Freelists and slabs are single-threaded by design, so each engine owns
// a private Pool (PoolOf) and there is no other: concurrent jobs and
// cells, one engine each, share none, and the engine counts every loan
// (sim.Engine.Unreturned). A packet remembers the pool it came from and
// Release — wherever the journey ends — recycles into that pool.

// Pool is one engine's packet pool: a freelist of Packet shells plus the
// slab their payload copies borrow from. PoolOf is the only way to get
// one; a test that needs a pool takes its engine's.
type Pool struct {
	slab *shm.Slab
	free shm.Freelist[Packet]
}

// poolKey keys the per-engine Pool in Engine.Local.
type poolKey struct{}

// newPool builds an engine's pool and registers its shells and its slab
// with the engine (sim.Engine.Unreturned). The 2 KB payload class covers
// the MTU-sized segments of every experiment; an oversized copy falls
// back to a dedicated make that Release leaves to the collector.
func newPool(eng *sim.Engine) any {
	pl := &Pool{slab: shm.NewSlab(2048, 256)}
	eng.Lends("packets", &pl.free)
	eng.Lends("payload copies", pl.slab)
	return pl
}

// PoolOf returns eng's own packet pool, creating it on first use.
func PoolOf(eng *sim.Engine) *Pool {
	return eng.Local(poolKey{}, newPool).(*Pool)
}

// Get returns a zeroed pooled Packet owned by this pool. The caller owns
// it until it calls Release or transmits it (transferring ownership to
// the receiver).
func (pl *Pool) Get() *Packet {
	if p := pl.free.Get(); p != nil {
		return p
	}
	return &Packet{pooled: true, pool: pl}
}

// Traffic returns how many packets the pool has lent and had released.
func (pl *Pool) Traffic() (gets, releases uint64) { return pl.free.Gets, pl.free.Puts }

// Release recycles a pooled packet into the pool it came from.
// It is a no-op for packets not obtained from a Pool, so consumers may
// call it unconditionally on any packet they terminally own. Releasing
// the same packet twice is a caller bug (the pool would hand one object
// to two owners); the pipeline's refcounted segment items make that
// structurally impossible on the data path.
func Release(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	checkPayloadOwner(p)
	pl := p.pool
	if p.buf != nil {
		pl.slab.Put(p.buf) // poisoned under flexdebug; a view is never touched
	}
	*p = Packet{pooled: true, pool: pl}
	pl.free.Put(p)
}

// GrowPayload sets p.Payload to an n-byte copy buffer the packet owns —
// borrowed from the owning pool's slab until Release — and returns it.
// The contents are unspecified; callers overwrite them fully.
func (p *Packet) GrowPayload(n int) []byte {
	p.view = false
	if cap(p.buf) < n {
		if p.pooled && n <= p.pool.slab.Class() {
			p.buf = p.pool.slab.Get()
		} else {
			p.buf = make([]byte, 0, n)
		}
	}
	p.Payload = p.buf[:n]
	return p.Payload
}

// SetPayloadView makes v, a view of committed transmit bytes
// (shm.PayloadBuf.View), the packet's payload without copying it. The
// packet never writes, poisons or recycles a view; Release only drops it.
// Under -tags flexdebug the packet records a checksum of v, which
// CheckPayloadView compares.
func (p *Packet) SetPayloadView(v []byte) {
	p.Payload = v
	p.view = true
	p.vsum.record(v)
}

// PayloadIsView reports whether the payload is a view of transmit bytes
// (SetPayloadView) rather than bytes the packet owns.
func (p *Packet) PayloadIsView() bool { return p.view }

// CheckPayloadView is called by a receiver about to write the packet's
// whole payload into its receive ring, every byte in window. Those bytes
// are unacknowledged, so a view must still read what it read when it was
// attached. Under -tags flexdebug a changed view panics (a sender that
// rewrote transmit bytes before their acknowledgment); otherwise this
// does nothing.
func (p *Packet) CheckPayloadView() {
	if p.view {
		p.vsum.check(p.Payload)
	}
}
