package shm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPayloadBufWrap(t *testing.T) {
	b := NewPayloadBuf(16)
	data := []byte("abcdefghij") // 10 bytes at pos 12: wraps
	b.WriteAt(12, data)
	out := make([]byte, 10)
	b.ReadAt(12, out)
	if !bytes.Equal(out, data) {
		t.Fatalf("got %q", out)
	}
}

func TestPayloadBufPositionsAreAbsolute(t *testing.T) {
	b := NewPayloadBuf(8)
	b.WriteAt(0, []byte("01234567"))
	b.WriteAt(8, []byte("ab")) // absolute pos 8 == offset 0
	out := make([]byte, 2)
	b.ReadAt(0, out)
	if string(out) != "ab" {
		t.Fatalf("got %q", out)
	}
}

func TestPayloadBufNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for size 12")
		}
	}()
	NewPayloadBuf(12)
}

func TestPayloadBufPropertyRoundTrip(t *testing.T) {
	buf := NewPayloadBuf(1024)
	f := func(pos uint32, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		buf.WriteAt(pos, data)
		out := make([]byte, len(data))
		buf.ReadAt(pos, out)
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := NewPool("segs", 3)
	for i := 0; i < 3; i++ {
		if !p.TryAlloc() {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if p.TryAlloc() {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if p.Failures != 1 {
		t.Fatalf("failures = %d", p.Failures)
	}
	p.Free()
	if !p.TryAlloc() {
		t.Fatal("alloc after free failed")
	}
	if p.PeakInUse != 3 {
		t.Fatalf("peak = %d", p.PeakInUse)
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	p := NewPool("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not caught")
		}
	}()
	p.Free()
}

func TestPoolInvariantProperty(t *testing.T) {
	// Property: Lent is always in [0, cap] under any alloc/free pattern.
	f := func(ops []bool) bool {
		p := NewPool("q", 8)
		for _, alloc := range ops {
			if alloc {
				p.TryAlloc()
			} else if p.Lent() > 0 {
				p.Free()
			}
			if p.Lent() < 0 || p.Lent() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlabCarveAndRecycle(t *testing.T) {
	s := NewSlab(128, 4)
	a := s.Get()
	if cap(a) != 128 || len(a) != 0 {
		t.Fatalf("Get: len=%d cap=%d", len(a), cap(a))
	}
	// Buffers from one block are contiguous (cache-adjacent carving).
	b := s.Get()
	if &a[:1][0] == &b[:1][0] {
		t.Fatal("distinct buffers alias")
	}
	if s.Blocks != 1 {
		t.Fatalf("Blocks = %d after two gets of four-unit block", s.Blocks)
	}
	s.Put(a)
	c := s.Get()
	if &c[:1][0] != &a[:1][0] {
		t.Fatal("freelist did not recycle the returned buffer")
	}
	// A fifth distinct buffer forces a second block.
	s.Get()
	s.Get()
	s.Get()
	if s.Blocks != 2 {
		t.Fatalf("Blocks = %d after exhausting the first block", s.Blocks)
	}
	// Foreign-class buffers are dropped, not pooled.
	s.Put(make([]byte, 64))
	if s.Puts != 1 {
		t.Fatalf("Puts = %d, foreign buffer was accepted", s.Puts)
	}
}

func TestPayloadBufSlices(t *testing.T) {
	b := NewPayloadBuf(16)
	for i := 0; i < 16; i++ {
		b.WriteAt(uint32(i), []byte{byte(i)})
	}
	// Fully within the ring: one slice, zero copy.
	a, c := b.Slices(2, 5)
	if len(a) != 5 || c != nil || a[0] != 2 || a[4] != 6 {
		t.Fatalf("contiguous view wrong: %v %v", a, c)
	}
	// Writes through the view land in the ring.
	a[0] = 0xEE
	out := make([]byte, 1)
	b.ReadAt(2, out)
	if out[0] != 0xEE {
		t.Fatal("view is not a window into the buffer")
	}
	// Wrapping: two slices covering [14, 19) = ring[14:16] + ring[0:3].
	a, c = b.Slices(14, 5)
	if len(a) != 2 || len(c) != 3 || a[0] != 14 || c[0] != 0 {
		t.Fatalf("wrapped view wrong: %v %v", a, c)
	}
	// Positions are absolute offsets: wrapping the position maps mod size.
	a, _ = b.Slices(32+2, 1)
	if a[0] != 0xEE {
		t.Fatal("absolute position not masked")
	}
	// Empty view.
	if a, c = b.Slices(3, 0); a != nil || c != nil {
		t.Fatal("empty view not nil")
	}
	// Oversized views are a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("view larger than the buffer did not panic")
		}
	}()
	b.Slices(0, 17)
}

// ringModel drives a PayloadBuf and a flat full-size reference buffer
// with the same operations. The reference is what the ring was before it
// grew lazily: one eager slice indexed by pos&(size-1).
type ringModel struct {
	t    *testing.T
	rng  *rand.Rand
	buf  *PayloadBuf
	ref  []byte
	size uint32

	scratch    []byte // 2*size: check's expected and read-back bytes
	tail, head uint32 // live contiguous bytes are [tail, head)
	floor      uint32 // released bytes [floor, tail) must still read back
	oooS, oooE uint32 // one out-of-order block ahead of head; empty when equal
	next       byte   // payload pattern

	// Coverage: a write wrapped a small ring, wrapped the full-size ring,
	// moved small -> larger small, moved small -> full, allocated nil ->
	// full at once; rungs ORs the small ring sizes a write landed in.
	smallWrap, fullWrap, stepped, grew, direct bool
	rungs                                      uint32
}

func (m *ringModel) fill(p []byte) {
	for i := range p {
		m.next = m.next*31 + 7
		p[i] = m.next
	}
}

func (m *ringModel) setRef(pos uint32, p []byte) {
	at := pos & (m.size - 1)
	copy(m.ref, p[copy(m.ref[at:], p):])
}

// write stores n fresh bytes at pos, through WriteAt or through a Slices
// view as Reserve+Commit does.
func (m *ringModel) write(pos, n uint32) {
	p := make([]byte, n)
	m.fill(p)
	m.setRef(pos, p)
	before := len(m.buf.data)
	if m.rng.Intn(2) == 0 {
		m.buf.WriteAt(pos, p)
	} else {
		a, c := m.buf.Slices(pos, n)
		if uint32(len(a)+len(c)) != n {
			m.t.Fatalf("Slices(%d, %d) returned %d+%d bytes", pos, n, len(a), len(c))
		}
		copy(c, p[copy(a, p):])
	}
	phys := uint32(len(m.buf.data))
	if phys < m.size {
		m.rungs |= phys
	}
	if before != len(m.buf.data) {
		m.stepped = m.stepped || before != 0 && phys < m.size
		m.grew = m.grew || before != 0 && phys == m.size
		m.direct = m.direct || before == 0 && phys == m.size
	}
	if pos&(phys-1)+n > phys {
		m.smallWrap = m.smallWrap || phys < m.size
		m.fullWrap = m.fullWrap || phys == m.size
	}
}

// check compares [lo, hi) with the reference, byte by byte through ReadAt
// and as a two-slice view.
func (m *ringModel) check(lo, hi uint32, view bool) {
	n := hi - lo
	if n == 0 {
		return
	}
	want, got := m.scratch[:n], m.scratch[m.size:m.size+n]
	at := lo & (m.size - 1)
	copy(want[copy(want, m.ref[at:]):], m.ref)
	m.buf.ReadAt(lo, got)
	if !bytes.Equal(got, want) {
		m.t.Fatalf("size %d: ReadAt [%d,%d) differs from the reference (phys %d, tail %d, head %d)",
			m.size, lo, hi, len(m.buf.data), m.tail, m.head)
	}
	if !view {
		return
	}
	a, c := m.buf.Slices(lo, n)
	if uint32(len(a)+len(c)) != n || !bytes.Equal(a, want[:len(a)]) || !bytes.Equal(c, want[len(a):]) {
		m.t.Fatalf("size %d: Slices [%d,%d) = %d+%d bytes, differs from the reference (phys %d)",
			m.size, lo, hi, len(a), len(c), len(m.buf.data))
	}
}

func (m *ringModel) step(maxWrite uint32, release int) {
	free := m.size - (m.head - m.tail)
	op := m.rng.Intn(10)
	if release == 0 && op >= 6 {
		op = m.rng.Intn(6) // hoard: the live window only grows
	}
	switch {
	case op < 4 && m.oooS == m.oooE && free > 0: // in-order write
		n := 1 + uint32(m.rng.Intn(int(min(free, maxWrite))))
		m.write(m.head, n)
		m.head += n
	case op < 5 && m.oooS == m.oooE && free > 2: // out-of-order write ahead of a hole
		gap := 1 + uint32(m.rng.Intn(int(min(free-2, maxWrite))))
		n := 1 + uint32(m.rng.Intn(int(min(free-gap, maxWrite))))
		m.oooS, m.oooE = m.head+gap, m.head+gap+n
		m.write(m.oooS, n)
	case op < 6 && m.oooS != m.oooE: // the hole fills, the block joins the stream
		m.write(m.head, m.oooS-m.head)
		m.head, m.oooS = m.oooE, m.oooE
	case op < 9 && release > 0: // consume / acknowledge
		if live := m.head - m.tail; live > 0 {
			n := 1 + uint32(m.rng.Intn(int(live)))
			if m.rng.Intn(3) < release {
				n = live
			}
			m.buf.Release(n)
			m.tail += n
		}
	}
	m.check(m.tail, m.head, true)
	m.check(m.oooS, m.oooE, true)
	// Released bytes stay readable until the ring wraps onto them: the
	// physical ring's length below the highest write, and growth must
	// carry over what was readable before it (ctrl's persist probe).
	hw := m.head
	if m.oooE != m.oooS {
		hw = m.oooE
	}
	if f := hw - uint32(len(m.buf.data)); int32(f-m.floor) > 0 {
		m.floor = f
	}
	if int32(m.tail-m.floor) > 0 {
		m.check(m.floor, m.tail, false)
	}
}

// TestPayloadBufModel: seeded random Release/WriteAt/Slices/ReadAt
// sequences against a flat reference, over the nil -> small -> full
// boundaries with wrap on both sides of growth. Every readable byte and
// every two-slice view must equal the reference after every step, and
// the runs must write into every small ring size from minRing to half
// the logical size.
func TestPayloadBufModel(t *testing.T) {
	for _, size := range []uint32{512, 4096, 65536} {
		var smallWrap, fullWrap, stepped, grew, direct bool
		var rungs uint32
		for seed := int64(1); seed <= 6; seed++ {
			m := &ringModel{t: t, rng: rand.New(rand.NewSource(seed)), buf: NewPayloadBuf(size),
				ref: make([]byte, size), scratch: make([]byte, 2*size), size: size}
			// Start just below the uint32 wrap of the absolute positions.
			start := -uint32(m.rng.Intn(3000)) - 1
			m.buf.Release(start)
			m.tail, m.head, m.oooS, m.oooE, m.floor = start, start, start, start, start-16
			m.check(start-16, start+16, false) // untouched: zeros, and stays nil
			if m.buf.data != nil {
				t.Fatalf("size %d: ReadAt allocated the ring", size)
			}
			// Three shapes of run. 0: any write size from the start, the
			// first one over half the buffer, so the ring jumps nil -> full.
			// 1: small writes released promptly,
			// so the small ring wraps many times before anything outgrows
			// it. 2: small writes hoarded, so the live window creeps past
			// the small ring with released bytes right below it.
			if seed%3 == 0 {
				n := size/2 + 1 + uint32(m.rng.Intn(int(size/2)))
				m.write(m.head, n)
				m.head += n
			}
			const steps = 2000
			for i := 0; i < steps; i++ {
				maxWrite, release := size, 1
				if i < steps/2 {
					switch seed % 3 {
					case 1:
						maxWrite, release = 300, 2
					case 2:
						maxWrite = 300
						if i > steps/4 {
							release = 0
						}
					}
				}
				m.step(maxWrite, release)
			}
			if uint32(len(m.buf.data)) != size {
				t.Errorf("size %d seed %d: ring still %d bytes after %d steps", size, seed, len(m.buf.data), steps)
			}
			smallWrap = smallWrap || m.smallWrap
			fullWrap = fullWrap || m.fullWrap
			stepped = stepped || m.stepped
			grew = grew || m.grew
			direct = direct || m.direct
			rungs |= m.rungs
		}
		if !fullWrap || !direct {
			t.Errorf("size %d: fullWrap=%v nil->full=%v, want both", size, fullWrap, direct)
		}
		if size > minRing && !(smallWrap && stepped && grew && rungs == size-minRing) {
			t.Errorf("size %d: coverage smallWrap=%v stepped=%v grew=%v rungs %#x, want all and %#x",
				size, smallWrap, stepped, grew, rungs, size-minRing)
		}
	}
}

// ladderPhases are TestPayloadBufLadder's live windows and the ring size
// each settles at.
var ladderPhases = []struct{ window, settle uint32 }{
	{256, 512}, {600, 1024}, {3072, 4096}, {5120, 8192}, {20480, 32768}, {40960, 65536},
}

// TestPayloadBufLadder pins where a ring settles. One 64 KB buffer,
// its positions crossing the uint32 wrap, carries a stream whose live
// window peaks at 256 B (an echo), then 600 B, 3 KB, 5 KB, 20 KB and
// 40 KB: each phase writes half a window at a time and releases it one
// write later. The ring must settle at 512 B, 1 KB, 4 KB, 8 KB, 32 KB and
// full size, and after every move both the live bytes and the released
// bytes the old ring still held behind tail (ctrl's persist probe re-reads
// TxPos-1) must read back. The same stream written only with windows of
// the shared zero array (a content-ignored stream's receive ring) must
// leave the ring without storage through every phase, reading zeros; a
// real byte then written at tail settles the ring where the last phase's
// live window fits, and the zeros behind it read back.
func TestPayloadBufLadder(t *testing.T) {
	const size = 65536
	b := NewPayloadBuf(size)
	pat := func(pos uint32) byte { return byte(pos*0x9E3779B1>>24) ^ byte(pos) }
	start := uint32(1<<32 - 3000)
	b.Release(start)
	tail, head, floor := start, start, start
	check := func(lo, hi uint32, what string) {
		got := make([]byte, hi-lo)
		b.ReadAt(lo, got)
		for i, c := range got {
			if c != pat(lo+uint32(i)) {
				t.Fatalf("ring %d B: %s byte at %d (tail %d) reads %#x, want %#x",
					len(b.data), what, lo+uint32(i), tail, c, pat(lo+uint32(i)))
			}
		}
	}
	for _, ph := range ladderPhases {
		for round := 0; round < 40; round++ {
			half := ph.window / 2
			p := make([]byte, half)
			for i := range p {
				p[i] = pat(head + uint32(i))
			}
			before := len(b.data)
			if round%2 == 0 {
				b.WriteAt(head, p)
			} else {
				a, c := b.Slices(head, half)
				copy(c, p[copy(a, p):])
			}
			head += half
			if len(b.data) != before {
				t.Logf("window %d: ring %d -> %d B", ph.window, before, len(b.data))
			}
			// Released bytes stay readable until the ring wraps onto them.
			if f := head - uint32(len(b.data)); int32(f-floor) > 0 {
				floor = f
			}
			check(tail, head, "live")
			check(floor, tail, "released")
			if live := head - tail; live > half { // keep the newest half window
				b.Release(live - half)
				tail += live - half
			}
		}
		if uint32(len(b.data)) != ph.settle {
			t.Errorf("a %d B window settled the ring at %d B, want %d", ph.window, len(b.data), ph.settle)
		}
	}

	z := NewPayloadBuf(size)
	z.Release(start)
	tail, head = start, start
	got := make([]byte, size)
	for _, ph := range ladderPhases {
		for round := 0; round < 40; round++ {
			half := ph.window / 2
			z.WriteAt(head, zeros[round:round+int(half)])
			head += half
			if live := head - tail; live > half {
				z.Release(live - half)
				tail += live - half
			}
		}
		z.ReadAt(tail, got[:head-tail])
		a, c := z.ReadSlices(tail, head-tail)
		if z.data != nil || bytes.Count(got[:head-tail], []byte{0}) != int(head-tail) || c != nil || !isZeros(a) {
			t.Fatalf("a %d B window of zero writes: ring %d B, want no storage and zeros", ph.window, len(z.data))
		}
	}
	z.WriteAt(tail, []byte{0xA5})
	z.ReadAt(tail, got[:head-tail])
	if len(z.data) != 32768 || got[0] != 0xA5 || bytes.Count(got[1:head-tail], []byte{0}) != int(head-tail-1) {
		t.Errorf("a real byte at tail, %d B of zero windows live: ring %d B, want 32768 B holding the byte, then the zeros", head-tail, len(z.data))
	}
}

// TestFreelistCountsLoans pins the loan count every pool's quiescence
// check reads (sim.Engine.Unreturned): a Get lends whether it pops or
// returns nil (the caller builds the object), a Put ends a loan, and a
// Put of an object never lent leaves the count below zero.
func TestFreelistCountsLoans(t *testing.T) {
	type obj struct{ n int }
	var fl Freelist[obj]
	a := fl.Get() // empty: the caller builds it, still a loan
	if a != nil || fl.Lent() != 1 {
		t.Fatalf("Get on empty: %v, Lent = %d, want nil, 1", a, fl.Lent())
	}
	a = &obj{}
	fl.Put(a)
	if b := fl.Get(); b != a || fl.Lent() != 1 {
		t.Fatalf("Get after Put: %p, Lent = %d, want %p, 1", b, fl.Lent(), a)
	}
	fl.Put(a)
	if fl.Lent() != 0 || fl.Gets != 2 || fl.Puts != 2 {
		t.Fatalf("Lent = %d (Gets %d, Puts %d), want 0 (2, 2)", fl.Lent(), fl.Gets, fl.Puts)
	}
	fl.Put(&obj{})
	if fl.Lent() != -1 {
		t.Fatalf("Lent = %d after returning an object never lent, want -1", fl.Lent())
	}
}

func TestSlabCountsLoans(t *testing.T) {
	s := NewSlab(64, 2)
	a, b := s.Get(), s.Get()
	s.Put(a)
	if s.Lent() != 1 {
		t.Fatalf("Lent = %d, want 1", s.Lent())
	}
	s.Put(make([]byte, 32)) // foreign class: dropped, not counted
	s.Put(b)
	if s.Lent() != 0 {
		t.Fatalf("Lent = %d, want 0", s.Lent())
	}
}
