// Package shm models the shared-memory structures at the host/NIC
// boundary (§3, Fig. 2): per-socket payload buffers in host memory that
// the data-path DMAs into and out of directly (one-shot offload: the NIC
// never buffers segments, and a data segment's payload on the wire is a
// PayloadBuf.View of the sender's committed bytes, not a copy),
// context-queue descriptors, and the bounded NIC-side descriptor pools
// whose exhaustion flow-controls host interaction (§3.1.1).
package shm

import "fmt"

// PayloadBuf is a power-of-two circular byte buffer in host memory: a
// socket's RX or TX payload buffer (PAYLOAD-BUF). Positions are absolute
// byte offsets; the buffer wraps them.
//
// Size is the logical capacity — what window arithmetic and the
// advertised window see. The physical ring behind it costs what it
// holds: nil until first use, then the smallest power of two of at least
// minRing that holds the live window [tail, pos+n) of a write or a Slices
// view (View never moves it). Each time the live window outgrows the
// ring it moves to the next power of two that holds it, up to full size.
// The owner advances tail with Release; an owner that never releases
// only grows sooner, it never reads wrong bytes.
type PayloadBuf struct {
	data []byte    // physical ring: nil, or a power of two from minRing to size
	dbg  ringCheck // zero-size unless built with -tags flexdebug
	size uint32    // logical capacity
	tail uint32    // oldest live position, advanced by Release
}

// minRing holds a request or two of a large fleet's connections; below
// it, views straddling the ring end (each a slab copy) grow too common.
// Above it a ring doubles all the way to full size, so a stream whose
// live window peaks at 40 KB settles in a 64 KB ring whatever the
// logical size, and a ring that fills has left less than its own size
// of smaller rings behind.
const minRing = 512

// NewPayloadBuf creates a buffer. size must be a power of two.
func NewPayloadBuf(size uint32) *PayloadBuf {
	if size == 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("shm: payload buffer size %d not a power of two", size))
	}
	return &PayloadBuf{size: size}
}

// Size returns the logical buffer capacity.
func (b *PayloadBuf) Size() uint32 { return b.size }

// Release retires the oldest n live bytes: consumed by the application
// (RX) or acknowledged by the peer (TX). Released bytes stay readable
// until the ring wraps onto them, as in any circular buffer.
//
// Under -tags flexdebug a Release, even of nothing, also ends every
// Slices view lent before it (a socket's Commit releases nothing to end
// its Reserve views), and on a ring the data path has never read through
// View or ReadAt — a receive ring — it fills the released bytes with
// PoisonByte. A transmit ring is never poisoned: a frame's wire view may
// still read its released bytes.
func (b *PayloadBuf) Release(n uint32) {
	b.dbg.released(b, n)
	b.tail += n
}

// fit makes the physical ring hold the live window [tail, pos+n).
func (b *PayloadBuf) fit(pos, n uint32) {
	need := (pos-b.tail)&(b.size-1) + n
	s := uint32(len(b.data))
	if need <= s {
		return
	}
	phys := max(minRing, s<<1)
	for phys < need {
		phys <<= 1
	}
	phys = min(phys, b.size)
	old := b.data
	b.data = make([]byte, phys)
	b.dbg.moved()
	if old == nil {
		return
	}
	// The old ring holds the live window [tail, tail+s) and, where that
	// has not wrapped onto them yet, released bytes of [tail-s, tail) that
	// ReadAt may still ask for (ctrl's persist probe re-reads TxPos-1).
	// Both windows sit in it at the same rotation; copy it to each. The
	// new ring is at least twice as large, so the two copies never
	// overlap. They go straight in: WriteAt would fit again and, seeing
	// the released window, move the ring on to the next size.
	o := b.tail & (s - 1)
	for _, w := range [2]uint32{b.tail - s, b.tail} {
		b.put(w, old[o:])
		b.put(w+s-o, old[:o])
	}
}

// WriteAt copies p into the buffer starting at pos, wrapping as needed.
func (b *PayloadBuf) WriteAt(pos uint32, p []byte) {
	if len(p) == 0 {
		return
	}
	if uint32(len(b.data)) != b.size {
		b.fit(pos, uint32(len(p)))
	}
	b.put(pos, p)
}

// put copies p into the physical ring at pos, wrapping as needed; p must
// fit the ring.
func (b *PayloadBuf) put(pos uint32, p []byte) {
	start := pos & uint32(len(b.data)-1)
	n := copy(b.data[start:], p)
	if n < len(p) {
		copy(b.data, p[n:])
	}
}

// ReadAt copies len(p) bytes from the buffer starting at pos. It never
// grows the ring: a buffer nothing was written to reads as zeros.
func (b *PayloadBuf) ReadAt(pos uint32, p []byte) {
	b.dbg.markRead()
	if b.data == nil {
		clear(p)
		return
	}
	start := pos & uint32(len(b.data)-1)
	n := copy(p, b.data[start:])
	if n < len(p) {
		copy(p[n:], b.data)
	}
}

// Slices returns the window [pos, pos+n) as up to two in-place slices:
// the zero-copy view the socket layers hand applications. The second
// slice is non-nil only when the window wraps the physical ring end.
// The slices alias the ring — they stay valid only until the region is
// recycled (receive: consumed; transmit: acknowledged and rewritten) or
// the next WriteAt or Slices call, either of which may move the ring. n
// must not exceed the buffer size. Under -tags flexdebug each view is
// stamped with the ring's generation, which the next Release or move
// ends; api's view helpers panic on a view whose generation has ended.
func (b *PayloadBuf) Slices(pos, n uint32) (a, c []byte) {
	if n > b.size {
		panic(fmt.Sprintf("shm: view of %d bytes exceeds %d-byte payload buffer", n, b.size))
	}
	if n == 0 {
		return nil, nil
	}
	if uint32(len(b.data)) != b.size {
		b.fit(pos, n)
	}
	phys := uint32(len(b.data))
	start := pos & (phys - 1)
	b.dbg.lend(b, start, n)
	if start+n <= phys {
		return b.data[start : start+n], nil
	}
	return b.data[start:], b.data[:start+n-phys]
}

// zeroView backs View on a ring nothing was ever written to. It is shared
// by every buffer of every engine and must never be written through.
var zeroView [64 << 10]byte

// View returns the window [pos, pos+n) in place: the bytes ReadAt would
// copy, as one read-only slice. On a ring nothing was ever written to it
// is a shared zero window (up to 64 KB). It reports false when the
// physical ring holds the window in two pieces (it straddles the ring
// end), and never grows the ring.
//
// A view is the payload of a data segment on the wire
// (packet.Packet.SetPayloadView). Committed transmit bytes are immutable
// until acknowledged, and a move leaves the old ring to its views, so
// the view reads the committed bytes for as long as a receiver can still
// accept them. A frame that outlives the acknowledgment of its
// bytes may read whatever the sender wrote there since; every such byte
// lies below the receiver's next expected sequence number, where both
// receivers trim before they write.
func (b *PayloadBuf) View(pos, n uint32) ([]byte, bool) {
	b.dbg.markRead()
	if b.data == nil {
		if n > uint32(len(zeroView)) {
			return nil, false
		}
		return zeroView[:n:n], true
	}
	phys := uint32(len(b.data))
	start := pos & (phys - 1)
	if start+n > phys {
		return nil, false
	}
	v := b.data[start : start+n : start+n]
	b.dbg.wire(v)
	return v, true
}

// DescKind discriminates context-queue descriptors.
type DescKind uint8

const (
	// Host -> NIC (the HC workflow, Fig. 4).
	DescTxBump     DescKind = iota // application appended Bytes to the TX buffer
	DescRxConsume                  // application consumed Bytes from the RX buffer
	DescFin                        // application closed the connection
	DescRetransmit                 // control plane requests go-back-N (timeout)

	// NIC -> host (application notifications, Fig. 6).
	DescRxNotify // Bytes of new in-order payload available
	DescTxFree   // Bytes of TX buffer space freed by acknowledgment
	DescFinRx    // peer closed its direction
)

// Desc is one context-queue entry. 16 bytes on the wire, matching the
// scalable PCIe queue design the paper adopts [44].
type Desc struct {
	Kind   DescKind
	Conn   uint32 // connection index
	Bytes  uint32
	Opaque uint64 // application connection identifier (RX notify)
}

// DescWireSize is the DMA size of one descriptor.
const DescWireSize = 16

// Pool is a bounded NIC-memory descriptor/segment-buffer pool. Allocation
// failure is the data-path's backpressure mechanism: processing stops and
// retries (§3.1.1).
type Pool struct {
	name string
	free int
	cap  int

	Allocs    uint64
	Failures  uint64
	PeakInUse int
}

// NewPool creates a pool with the given capacity.
func NewPool(name string, capacity int) *Pool {
	if capacity <= 0 {
		panic("shm: pool capacity must be positive")
	}
	return &Pool{name: name, free: capacity, cap: capacity}
}

// TryAlloc takes one buffer, reporting false when the pool is exhausted.
func (p *Pool) TryAlloc() bool {
	if p.free == 0 {
		p.Failures++
		return false
	}
	p.free--
	p.Allocs++
	if used := p.cap - p.free; used > p.PeakInUse {
		p.PeakInUse = used
	}
	return true
}

// Free returns one buffer.
func (p *Pool) Free() {
	if p.free >= p.cap {
		panic("shm: pool double free on " + p.name)
	}
	p.free++
}

// Lent returns the number of allocated buffers.
func (p *Pool) Lent() int { return p.cap - p.free }

// Freelist recycles pointers to pooled objects: the pop-last/nil-slot
// mechanics shared by every object pool on the zero-allocation hot path
// (packets, frames, segItems, FPC task records, DMA transactions, timer
// carriers). The caller owns reset semantics; Get returns nil when empty
// so each pool constructs its own fresh object. Slots are nilled on Get so
// the freelist never retains a reference to an object in flight.
//
// A freelist counts what it lends: every Get is a loan — of the object it
// pops or, when it returns nil, of the one the caller builds — and every
// Put ends one, so Lent is the objects out now.
type Freelist[T any] struct {
	items      []*T
	Gets, Puts uint64
	check      poolCheck[T] // zero-size unless built with -tags flexdebug
}

// Lent returns the objects handed out and not yet put back: negative once
// more came back than went out (a double release).
func (f *Freelist[T]) Lent() int { return int(f.Gets - f.Puts) }

// Get pops the most recently returned object, or nil when empty.
func (f *Freelist[T]) Get() *T {
	f.Gets++
	n := len(f.items)
	if n == 0 {
		return nil
	}
	x := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	f.check.got(x)
	return x
}

// Put returns an object to the freelist. The caller must have dropped
// every other reference (and reset the object, per its pool's contract).
func (f *Freelist[T]) Put(x *T) {
	f.Puts++
	f.check.put(x)
	f.items = append(f.items, x)
}

// PopRing advances a slice-backed FIFO ring's head past one consumed
// slot (zeroing it so the ring retains no reference), compacting the
// backing slice when over half is dead so the ring stays O(outstanding)
// under sustained load instead of growing with every push. It is the one
// FIFO in the tree: the pipeline's stage queues, the FPC run queue, the
// DMA wait list, host.Core, the connection free lists, the app-layer
// request/response queues and libTOE's notification FIFO all keep a
// slice and a head index, append to push, and pop through here.
func PopRing[T any](s []T, head int) ([]T, int) {
	var zero T
	s[head] = zero
	head++
	if head == len(s) {
		return s[:0], 0
	}
	if head > 32 && head*2 >= len(s) {
		n := copy(s, s[head:])
		return s[:n], 0
	}
	return s, head
}

// Slab is a grow-only arena of fixed-size byte buffers: the payload copies
// of the zero-allocation data path (a segment straddling its ring's end, a
// duplicate of a copy), each borrowed for one packet's journey. Buffers
// are carved class-size at a time from large blocks (one make per
// unitsPerBlock buffers) and recycled through a freelist, so steady-state
// Get/Put performs no heap allocation and consecutive buffers stay
// cache-adjacent, like the CTM packet-buffer SRAM they stand in for.
type Slab struct {
	class int
	unit  int // buffers carved per block
	block []byte
	free  [][]byte

	// Statistics.
	Blocks uint64
	Gets   uint64
	Puts   uint64
}

// NewSlab creates a slab handing out buffers of the given class size,
// growing unitsPerBlock buffers at a time.
func NewSlab(class, unitsPerBlock int) *Slab {
	if class <= 0 || unitsPerBlock <= 0 {
		panic("shm: bad slab geometry")
	}
	return &Slab{class: class, unit: unitsPerBlock}
}

// Class returns the buffer size this slab serves.
func (s *Slab) Class() int { return s.class }

// Lent returns the buffers handed out and not yet put back.
func (s *Slab) Lent() int { return int(s.Gets - s.Puts) }

// Get returns a zero-length buffer with capacity Class. The caller owns it
// until Put.
func (s *Slab) Get() []byte {
	s.Gets++
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		slabCheck(b)
		return b
	}
	if len(s.block) < s.class {
		s.block = make([]byte, s.class*s.unit)
		s.Blocks++
	}
	b := s.block[0:0:s.class]
	s.block = s.block[s.class:]
	return b
}

// Put returns a buffer to the freelist. Buffers of a different class are
// dropped (left to the garbage collector).
func (s *Slab) Put(b []byte) {
	if cap(b) != s.class {
		return
	}
	s.Puts++
	slabPoison(b)
	s.free = append(s.free, b[0:0:s.class])
}
