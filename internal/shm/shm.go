// Package shm models the shared-memory structures at the host/NIC
// boundary (§3, Fig. 2): per-socket payload buffers in host memory that
// the data-path DMAs into directly (one-shot offload: the NIC never
// buffers segments), context-queue descriptors, and the bounded NIC-side
// descriptor pools whose exhaustion flow-controls host interaction
// (§3.1.1).
package shm

import "fmt"

// PayloadBuf is a power-of-two circular byte buffer in host memory: a
// socket's RX or TX payload buffer (PAYLOAD-BUF). Positions are absolute
// byte offsets; the buffer wraps them.
//
// Size is the logical capacity — what window arithmetic and the
// advertised window see. The physical ring behind it costs what it
// holds: nil until first use, then min(Size, smallRing), and it moves
// once to full size the first time the live window [tail, pos+n) of a
// write or view outgrows it. The owner advances tail with Release; an
// owner that never releases only grows sooner, it never reads wrong
// bytes.
type PayloadBuf struct {
	data []byte // physical ring: nil, small, or full size
	size uint32 // logical capacity
	tail uint32 // oldest live position, advanced by Release
}

// smallRing is the physical size a ring starts at: room for a few
// requests in flight, which is all most connections of a large fleet
// ever hold. One step to full size (not doubling) leaves at most this
// much garbage behind per ring, so a ring that does fill costs what it
// cost when it was allocated eagerly.
const smallRing = 4096

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
func (b *PayloadBuf) Release(n uint32) { b.tail += n }

// fit makes the physical ring hold the live window [tail, pos+n).
func (b *PayloadBuf) fit(pos, n uint32) {
	need := (pos-b.tail)&(b.size-1) + n
	if need <= uint32(len(b.data)) {
		return
	}
	small := b.data
	if small == nil && need <= smallRing {
		b.data = make([]byte, min(b.size, smallRing))
		return
	}
	b.data = make([]byte, b.size)
	if small == nil {
		return
	}
	// The small ring holds the live window [tail, tail+s) and, where that
	// has not wrapped onto them yet, released bytes of [tail-s, tail) that
	// ReadAt may still ask for (ctrl's persist probe re-reads TxPos-1).
	// Both windows sit in it at the same rotation; copy it to each.
	s := uint32(len(small))
	o := b.tail & (s - 1)
	for _, w := range [2]uint32{b.tail - s, b.tail} {
		b.WriteAt(w, small[o:])
		b.WriteAt(w+s-o, small[:o])
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
	start := pos & uint32(len(b.data)-1)
	n := copy(b.data[start:], p)
	if n < len(p) {
		copy(b.data, p[n:])
	}
}

// ReadAt copies len(p) bytes from the buffer starting at pos. It never
// grows the ring: a buffer nothing was written to reads as zeros.
func (b *PayloadBuf) ReadAt(pos uint32, p []byte) {
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
// the next WriteAt or Slices call, either of which may move the ring to
// full size. n must not exceed the buffer size.
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
	if start+n <= phys {
		return b.data[start : start+n], nil
	}
	return b.data[start:], b.data[:start+n-phys]
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
	DescReset    // connection torn down
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

// InUse returns the number of allocated buffers.
func (p *Pool) InUse() int { return p.cap - p.free }

// Freelist recycles pointers to pooled objects: the pop-last/nil-slot
// mechanics shared by every object pool on the zero-allocation hot path
// (packets, frames, segItems, FPC task records, DMA transactions). The
// caller owns reset semantics; Get returns nil when empty so each pool
// constructs its own fresh object. Slots are nilled on Get so the
// freelist never retains a reference to an object in flight.
type Freelist[T any] struct {
	items []*T
	check poolCheck[T] // zero-size unless built with -tags flexdebug
}

// Get pops the most recently returned object, or nil when empty.
func (f *Freelist[T]) Get() *T {
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

// Slab is a grow-only arena of fixed-size byte buffers: payload staging
// for the zero-allocation data path. Buffers are carved class-size at a
// time from large blocks (one make per unitsPerBlock buffers) and recycled
// through a freelist, so steady-state Get/Put performs no heap allocation
// and consecutive buffers stay cache-adjacent, like the CTM packet-buffer
// SRAM they stand in for.
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

// Get returns a zero-length buffer with capacity Class. The caller owns it
// until Put.
func (s *Slab) Get() []byte {
	s.Gets++
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
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
