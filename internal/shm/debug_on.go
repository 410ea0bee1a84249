//go:build flexdebug

package shm

import (
	"fmt"
	"sync"
	"unsafe"
)

// Debug reports whether the flexdebug build tag is active.
const Debug = true

// PoisonByte fills released pooled buffers under flexdebug, so stale
// reads see deterministic garbage instead of plausible old contents and
// writes through stale references are caught at the next Get.
const PoisonByte = 0xDB

// poolCheck tracks which objects are resident in a freelist and panics
// when the same pointer is Put twice without an intervening Get — the
// two-owners bug, caught at the second Put. Every build counts it too: the
// freelist's loan count ends below zero (sim.Engine.Unreturned).
type poolCheck[T any] struct {
	resident map[*T]struct{}
}

func (c *poolCheck[T]) got(x *T) {
	delete(c.resident, x)
}

func (c *poolCheck[T]) put(x *T) {
	if c.resident == nil {
		c.resident = make(map[*T]struct{})
	}
	if _, dup := c.resident[x]; dup {
		panic(fmt.Sprintf("shm: double release of %T %p", x, x))
	}
	c.resident[x] = struct{}{}
}

func slabPoison(b []byte) { poison(b[:cap(b)]) }

// slabCheck verifies a recycled buffer is still fully poisoned when Get
// hands it out again: a dirty byte means someone wrote through a slice of
// a buffer they had already returned.
func slabCheck(b []byte) {
	for i, v := range b[:cap(b)] {
		if v != PoisonByte {
			panic(fmt.Sprintf("shm: write-after-release detected: slab byte %d is %#x, want poison %#x", i, v, PoisonByte))
		}
	}
}

// ringCheck is one PayloadBuf's flexdebug state: the generation its
// Slices views are stamped with (ended by every Release and every move
// of the ring), whether the data path has read the ring through View
// or ReadAt, as it reads only transmit rings, and where in the shared
// zero array its ReadSlices views start and how far they reached since
// the last Release.
type ringCheck struct {
	gen     uint64
	readOut bool
	zoff    uint32 // valid once zset
	zset    bool
	zlent   uint32
}

// viewStamp is what views records of one Slices view: the ring that lent
// it and the generation it was lent in.
type viewStamp struct {
	b   *PayloadBuf
	gen uint64
}

// views maps the first byte of each Slices view to its stamp, and wires
// holds the first byte of each wire view (View). zeroNext counts the
// rings that lent a zero window: each takes the next start in the shared
// zero array. Concurrent engines share them, so they are locked. Each map
// is emptied when it reaches maxViews entries: that forgets views, so an
// old one goes unchecked, and never makes a live view look stale.
var views struct {
	sync.Mutex
	m        map[*byte]viewStamp
	wires    map[*byte]struct{}
	zeroNext uint32
}

const maxViews = 1 << 16

// lend stamps the Slices view that starts at start and, when it wraps,
// its second piece at the ring's first byte.
func (c *ringCheck) lend(b *PayloadBuf, start, n uint32) {
	views.Lock()
	if views.m == nil || len(views.m) >= maxViews {
		views.m = make(map[*byte]viewStamp)
	}
	views.m[&b.data[start]] = viewStamp{b, c.gen}
	if start+n > uint32(len(b.data)) {
		views.m[&b.data[0]] = viewStamp{b, c.gen}
	}
	views.Unlock()
}

// lendZeros lends a window of n bytes of the shared zero array and stamps
// it like a Slices view. Stamps are keyed by a view's first byte, so each
// ring's zero windows start at a byte of their own, taken in turn the
// first time it lends one; reusing it, a ring adds no stamp after the
// first and a steady stream allocates nothing. Starts are taken from the
// array's first byte up to the last one that holds a window of the ring's
// size, so they repeat only after that many rings, or at once for rings
// as large as the array. It returns nil, and ReadSlices grows the ring
// instead, when another ring's stamp holds the start.
func (c *ringCheck) lendZeros(b *PayloadBuf, n uint32) []byte {
	views.Lock()
	defer views.Unlock()
	if !c.zset {
		c.zoff, c.zset = views.zeroNext%(MaxRingBytes-min(b.size, MaxRingBytes)+1), true
		views.zeroNext++
	}
	if views.m == nil || len(views.m) >= maxViews {
		views.m = make(map[*byte]viewStamp)
	}
	key := &zeros[c.zoff]
	if s, ok := views.m[key]; ok && s.b != b {
		return nil
	}
	views.m[key] = viewStamp{b, c.gen}
	c.zlent = max(c.zlent, n)
	return zeros[c.zoff : c.zoff+n : c.zoff+n]
}

// wire records the wire view v.
func (c *ringCheck) wire(v []byte) {
	views.Lock()
	if views.wires == nil || len(views.wires) >= maxViews {
		views.wires = make(map[*byte]struct{})
	}
	views.wires[unsafe.SliceData(v)] = struct{}{}
	views.Unlock()
}

// isWireView reports whether p starts where a wire view of a payload ring
// starts. packet's release check reaches it by linkname.
func isWireView(p []byte) bool {
	views.Lock()
	_, ok := views.wires[unsafe.SliceData(p)]
	views.Unlock()
	return ok
}

func (c *ringCheck) moved()    { c.gen++ }
func (c *ringCheck) markRead() { c.readOut = true }

// released ends the current views, checks that the zero windows lent
// since the last Release still read as zeros, and poisons the n bytes
// about to be released on a ring nothing but Slices views reads. They lie
// in the ring apart from every live byte: the ring holds [tail, the
// highest write).
func (c *ringCheck) released(b *PayloadBuf, n uint32) {
	c.gen++
	if c.zlent != 0 {
		checkZeros(zeros[c.zoff : c.zoff+c.zlent])
		c.zlent = 0
	}
	if c.readOut || b.data == nil {
		return
	}
	phys := uint32(len(b.data))
	start := b.tail & (phys - 1)
	n = min(n, phys)
	poison(b.data[start:min(start+n, phys)])
	if start+n > phys {
		poison(b.data[:start+n-phys])
	}
}

// checkZeros panics when a byte of w, a span of the shared zero array, is
// not zero: someone wrote through a Peek view of a ring with no storage.
// It clears w first, so every other ring still reads zeros.
func checkZeros(w []byte) {
	for i, v := range w {
		if v != 0 {
			clear(w)
			panic(fmt.Sprintf("shm: a zero window was written through: its byte %d reads %#x (a Peek view is read-only)", i, v))
		}
	}
}

func poison(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}

// checkViews panics when a is a Slices view whose generation has ended:
// a Peek view read after the Consume that released it, a Reserve view
// written after its Commit, or either after a move of the ring. api's
// view helpers reach it by linkname, so it adds no exported name.
func checkViews(a, c []byte) {
	for _, v := range [2][]byte{a, c} {
		if len(v) == 0 {
			continue
		}
		views.Lock()
		s, ok := views.m[unsafe.SliceData(v)]
		views.Unlock()
		if ok && s.gen != s.b.dbg.gen {
			panic(fmt.Sprintf("shm: stale payload view: lent in generation %d of its ring, which is now at %d (a Peek view outlived its Consume, or a Reserve view its Commit)", s.gen, s.b.dbg.gen))
		}
	}
}
