package packet

import (
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// The data path builds every ACK and data segment into a recycled Packet
// whose payload bytes are carved from a slab (shm.Slab), so the
// steady-state wire path performs no heap allocation.
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
// a private Pool (PoolOf): concurrent jobs and cells, one engine each,
// share none. A packet remembers the pool it came from and Release —
// wherever the journey ends — recycles into that pool.

// Pool is one engine's packet pool: a freelist of Packet shells plus the
// slab backing their payload bytes. A Pool is single-threaded; use one
// per engine (PoolOf) or per test.
type Pool struct {
	slab *shm.Slab
	free shm.Freelist[Packet]

	// Stats counts pooled-packet traffic for tests and diagnostics (see
	// testbed.PoolStats).
	Stats struct {
		Gets     uint64
		Releases uint64
	}
}

// NewPool returns an empty pool. The 2 KB payload class covers the
// MTU-sized segments of every experiment; oversized payloads fall back to
// a dedicated make that the packet then retains.
func NewPool() *Pool {
	return &Pool{slab: shm.NewSlab(2048, 256)}
}

// defaultPool serves the package-level Get for single-threaded tests,
// examples, and the control plane's standalone uses. Anything that may run
// as one of several concurrent jobs or cells uses PoolOf(engine).
var defaultPool = NewPool()

// poolKey keys the per-engine Pool in Engine.Local.
type poolKey struct{}

func newPool() any { return NewPool() }

// PoolOf returns eng's own packet pool, creating it on first use.
func PoolOf(eng *sim.Engine) *Pool {
	return eng.Local(poolKey{}, newPool).(*Pool)
}

// Get returns a zeroed pooled Packet owned by this pool. The caller owns
// it until it calls Release or transmits it (transferring ownership to
// the receiver).
func (pl *Pool) Get() *Packet {
	pl.Stats.Gets++
	if p := pl.free.Get(); p != nil {
		checkPoison(p)
		return p
	}
	return &Packet{pooled: true, pool: pl}
}

// Get returns a zeroed pooled Packet from the default pool. Single-
// threaded callers only; simulations use PoolOf(engine).Get.
func Get() *Packet {
	return defaultPool.Get()
}

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
	pl := p.pool
	pl.Stats.Releases++
	buf := p.buf
	*p = Packet{}
	p.buf = buf[:0]
	p.pooled = true
	p.pool = pl
	poisonPayload(p)
	pl.free.Put(p)
}

// GrowPayload sets p.Payload to an n-byte buffer carved from the packet's
// retained backing (growing it from the owning pool's slab on first use)
// and returns it. The contents are unspecified; callers overwrite them
// fully.
func (p *Packet) GrowPayload(n int) []byte {
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
