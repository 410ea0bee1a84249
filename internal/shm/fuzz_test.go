package shm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// heldView is a View result kept across later operations, as a data
// segment on the wire keeps its payload.
type heldView struct {
	pos  uint32
	v    []byte
	zero bool // taken of a ring nothing was written to
}

// viewCoverage names the corners checkPayloadBuf reached.
type viewCoverage struct {
	zeroViews int    // views of a never-written ring
	straddles int    // View calls that reported the ring end in the window
	rungs     uint32 // OR of the small ring sizes a View was taken on
	direct    bool   // the ring went nil -> full size at once
	stepped   bool   // the ring moved from one small size to a larger one
	grew      bool   // the ring went small -> full size
	heldMove  bool   // a view taken of a small ring was checked after a move
	smallWrap bool   // a View was taken after a write wrapped a small ring
	fullWrap  bool   // a View was taken after a write wrapped the full ring
}

// allRungs is viewCoverage.rungs once every small ring size was viewed.
const allRungs = maxSmallRing<<1 - minRing

// add merges o into c.
func (c *viewCoverage) add(o viewCoverage) {
	c.zeroViews += o.zeroViews
	c.straddles += o.straddles
	c.rungs |= o.rungs
	c.direct = c.direct || o.direct
	c.stepped = c.stepped || o.stepped
	c.grew = c.grew || o.grew
	c.heldMove = c.heldMove || o.heldMove
	c.smallWrap = c.smallWrap || o.smallWrap
	c.fullWrap = c.fullWrap || o.fullWrap
}

// complete reports whether c reached every corner.
func (c viewCoverage) complete() bool {
	return c.zeroViews > 0 && c.straddles > 0 && c.rungs == allRungs && c.direct && c.stepped &&
		c.grew && c.heldMove && c.smallWrap && c.fullWrap
}

// checkPayloadBuf drives one PayloadBuf with the operations data encodes
// and holds it to a flat reference of the logical stream (ref[i] is the
// byte at position base+i). data[0] picks the logical size (8 to 64 KB,
// all above the largest small ring) and whether positions start just below
// the uint32 wrap; then every three bytes are one operation:
//
//	op%8 0, 1  in-order write at head (WriteAt, or through Slices as Reserve+Commit does)
//	     2     write a block ahead of a hole      3  fill the hole
//	     4     Release part or all of the live window
//	     5     View a window and hold it          6  Slices a window   7  ReadAt a window
//
// After every operation each held view must still read the reference
// while its bytes are unreleased — across writes, wraps and every move of
// the ring — and a view of a never-written ring must read zeros forever.
func checkPayloadBuf(t *testing.T, data []byte) viewCoverage {
	var cov viewCoverage
	if len(data) == 0 {
		return cov
	}
	size := uint32(8192) << (data[0] & 3)
	b := NewPayloadBuf(size)
	start := uint32(0)
	if data[0]&4 != 0 {
		start = -size - size/2 // cross the uint32 wrap of the absolute positions
	}
	b.Release(start)
	tail, head, oooS, oooE := start, start, start, start
	base, ref := start, []byte(nil)
	var held []heldView
	var wroteSmallWrap, wroteFullWrap bool

	// length decodes a write or window length below limit from two bytes:
	// mostly short, sometimes up to 32 KB.
	length := func(x, y byte, limit uint32) uint32 {
		n := 1 + uint32(y)
		if x >= 128 {
			n = 1 + (uint32(x-128)<<8 | uint32(y))
		}
		return 1 + (n-1)%limit
	}
	write := func(pos, n uint32, viaSlices bool, fill byte) {
		p := make([]byte, n)
		for i := range p {
			p[i] = fill + byte(i*7) + byte((pos+uint32(i))>>8)
		}
		if end := pos + n - base; end > uint32(len(ref)) {
			ref = append(ref, make([]byte, end-uint32(len(ref)))...)
		}
		copy(ref[pos-base:], p)
		before := len(b.data)
		if viaSlices {
			a, c := b.Slices(pos, n)
			copy(c, p[copy(a, p):])
		} else {
			b.WriteAt(pos, p)
		}
		phys := uint32(len(b.data))
		if before != len(b.data) {
			cov.direct = cov.direct || before == 0 && phys == size
			cov.stepped = cov.stepped || before != 0 && phys < size
			cov.grew = cov.grew || before != 0 && phys == size
			for _, h := range held {
				cov.heldMove = cov.heldMove || before != 0 && !h.zero
			}
		}
		if pos&(phys-1)+n > phys {
			wroteSmallWrap = wroteSmallWrap || phys < size
			wroteFullWrap = wroteFullWrap || phys == size
		}
	}
	// window picks [pos, pos+n) inside the written live bytes.
	window := func(x, y byte) (pos, n uint32, ok bool) {
		lo, hi := tail, head
		if oooS != oooE && x&1 == 1 {
			lo, hi = oooS, oooE
		}
		if hi == lo {
			return 0, 0, false
		}
		off := uint32(x) * (hi - lo) / 256
		return lo + off, length(y, x^y, hi-lo-off), true
	}
	want := func(pos, n uint32) []byte { return ref[pos-base : pos-base+n] }

	for i := 1; i+2 < len(data); i += 3 {
		op, x, y := data[i]%8, data[i+1], data[i+2]
		free := size - (head - tail)
		switch {
		case op < 2 && oooS == oooE && free > 0:
			n := length(x, y, free)
			write(head, n, op == 1, x)
			head += n
			oooS, oooE = head, head
		case op == 2 && oooS == oooE && free > 2:
			gap := 1 + uint32(x)%(free-2)
			n := length(y, x, free-gap)
			oooS, oooE = head+gap, head+gap+n
			write(oooS, n, y&1 == 1, y)
		case op == 3 && oooS != oooE:
			write(head, oooS-head, x&1 == 1, x)
			head = oooE
			oooS = oooE
		case op == 4 && head != tail:
			n := max((head-tail)*(uint32(x)+1)/256, 1) // x == 255: all of it
			b.Release(n)
			tail += n
		case op == 5 && b.data == nil:
			// Nothing was ever written: any window reads as zeros.
			pos, n := tail+uint32(x)*size/256, length(y, x, size)
			v, ok := b.View(pos, n)
			if !ok || uint32(len(v)) != n || b.data != nil {
				t.Fatalf("View(%d, %d) on an unwritten ring: %d bytes, ok %v, ring %d bytes", pos, n, len(v), ok, len(b.data))
			}
			cov.zeroViews++
			held = append(held, heldView{pos: pos, v: v, zero: true})
		case op == 5:
			pos, n, ok := window(x, y)
			if !ok {
				break
			}
			phys := len(b.data)
			v, ok := b.View(pos, n)
			if len(b.data) != phys {
				t.Fatalf("View(%d, %d) moved the ring from %d to %d bytes", pos, n, phys, len(b.data))
			}
			if !ok {
				if pos&uint32(phys-1)+n <= uint32(phys) {
					t.Fatalf("View(%d, %d) refused a window the %d-byte ring holds in one piece", pos, n, phys)
				}
				cov.straddles++
				break
			}
			if !bytes.Equal(v, want(pos, n)) || cap(v) != len(v) {
				t.Fatalf("View(%d, %d) (ring %d bytes, cap %d) differs from the stream", pos, n, phys, cap(v))
			}
			if uint32(phys) < size {
				cov.rungs |= uint32(phys)
			}
			cov.smallWrap = cov.smallWrap || wroteSmallWrap
			cov.fullWrap = cov.fullWrap || wroteFullWrap
			held = append(held, heldView{pos: pos, v: v})
			if len(held) > 8 {
				held = held[1:]
			}
		case op == 6:
			if pos, n, ok := window(x, y); ok {
				a, c := b.Slices(pos, n)
				if got := append(append([]byte(nil), a...), c...); !bytes.Equal(got, want(pos, n)) {
					t.Fatalf("Slices(%d, %d) differs from the stream", pos, n)
				}
			}
		case op == 7:
			if pos, n, ok := window(x, y); ok {
				got := make([]byte, n)
				b.ReadAt(pos, got)
				if !bytes.Equal(got, want(pos, n)) {
					t.Fatalf("ReadAt(%d, %d) differs from the stream", pos, n)
				}
			}
		}

		kept := held[:0]
		for _, h := range held {
			if h.zero {
				if bytes.Count(h.v, []byte{0}) != len(h.v) {
					t.Fatalf("op %d: a zero view of [%d,%d) was written through", i/3, h.pos, h.pos+uint32(len(h.v)))
				}
				kept = append(kept, h)
				continue
			}
			if int32(h.pos-tail) < 0 {
				continue // released: the sender may rewrite these bytes now
			}
			if !bytes.Equal(h.v, want(h.pos, uint32(len(h.v)))) {
				t.Fatalf("op %d: held view of [%d,%d) changed while its bytes were live (ring %d bytes)",
					i/3, h.pos, h.pos+uint32(len(h.v)), len(b.data))
			}
			kept = append(kept, h)
		}
		held = kept
		// Forget released reference bytes: no held view starts below tail.
		if d := tail - base; d > 1<<17 {
			ref = append([]byte(nil), ref[d:]...)
			base = tail
		}
	}
	return cov
}

// FuzzPayloadBuf holds PayloadBuf's WriteAt/Release/Slices/View/ReadAt to
// a flat reference of the logical stream on arbitrary operation sequences
// (see checkPayloadBuf for the encoding), views held across later writes
// and the ring's moves included. The committed corpus
// (testdata/fuzz/FuzzPayloadBuf: 600 random operations on every size and
// start, one run of 3 000, a directed run that views a small ring and
// then outgrows it, and payloadBufLadderOps) reaches every corner
// viewCoverage names (TestPayloadBufCorpusCoverage).
func FuzzPayloadBuf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkPayloadBuf(t, data) })
}

// payloadBufSeedOps returns a selector byte and n random operations,
// short writes only in the first half. Two views of the still unwritten
// ring come first; with direct, the first write outgrows every small ring
// at once.
func payloadBufSeedOps(seed int64, sel byte, n int, direct bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{sel, 5, byte(seed), 200, 5, 77, byte(seed)}
	if direct {
		data = append(data, 0, 128+40, 0) // a 10 KB write
	}
	for i := 0; i < n; i++ {
		x, y := byte(rng.Intn(256)), byte(rng.Intn(256))
		if i < n/2 && x >= 128 {
			x -= 128
		}
		data = append(data, byte(rng.Intn(256)), x, y)
	}
	return data
}

// payloadBufLadderOps climbs the small rings one by one on an 8 KB buffer
// whose positions cross the uint32 wrap: on each rung it wraps the ring
// with 200 B writes, each viewed and then released, and then hoards
// writes until the live window outgrows the ring, with views of it held.
// Past the largest small ring it moves to full size and wraps that too.
func payloadBufLadderOps() []byte {
	const w = 200
	data := []byte{4}
	live := uint32(0)
	write := func() { data = append(data, 0, 0, w-1); live += w }
	view := func() { data = append(data, 5, 0, 100) } // 101 bytes from tail
	release := func() {
		x := w*256/live - 1
		data = append(data, 4, byte(x), 0)
		live -= live * (x + 1) / 256
	}
	cycle := func(ring uint32) {
		for i := uint32(0); i < 2*ring/w+1; i++ {
			write()
			view()
			release()
		}
	}
	for r := uint32(minRing); r <= maxSmallRing; r <<= 1 {
		for live+w <= r/2 {
			write()
		}
		cycle(r)
		for live <= r {
			write()
			view()
		}
	}
	cycle(8192)
	return data
}

// TestPayloadBufViewMatchesStream runs long seeded sequences and the
// ladder through checkPayloadBuf on every size and requires the corners
// the view contract depends on: zero views of an unwritten ring,
// straddling windows refused, views of every small ring size, views held
// across a move from one small ring to the next and to full size, views
// after a small and the full ring wrapped, and a ring that went nil ->
// full at once.
func TestPayloadBufViewMatchesStream(t *testing.T) {
	var all viewCoverage
	for seed := int64(1); seed <= 8; seed++ {
		cov := checkPayloadBuf(t, payloadBufSeedOps(seed, byte(seed-1), 3000, seed%2 == 0))
		t.Logf("seed %d: %+v", seed, cov)
		all.add(cov)
	}
	ladder := checkPayloadBuf(t, payloadBufLadderOps())
	t.Logf("ladder: %+v", ladder)
	if ladder.rungs != allRungs || !ladder.stepped || !ladder.grew || !ladder.heldMove || !ladder.smallWrap || !ladder.fullWrap {
		t.Errorf("the ladder reached only %+v", ladder)
	}
	if all.add(ladder); !all.complete() {
		t.Errorf("the runs reached only %+v", all)
	}
}

// TestPayloadBufCorpusCoverage replays the committed FuzzPayloadBuf corpus
// through checkPayloadBuf and requires it to reach every corner, so a
// change to the ring that strands a corner of the corpus fails here and
// not only after fuzzing.
func TestPayloadBufCorpusCoverage(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzPayloadBuf/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var all viewCoverage
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(text)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus entry: %v", name, err)
		}
		all.add(checkPayloadBuf(t, []byte(data)))
	}
	if !all.complete() {
		t.Errorf("the corpus reached only %+v", all)
	}
}

// TestPayloadBufView pins View's contract on small cases: in place and
// capped, false across the ring end, zeros without allocating on an
// unwritten ring, and the old bytes kept by a view across the move to
// full size.
func TestPayloadBufView(t *testing.T) {
	b := NewPayloadBuf(16384)
	if v, ok := b.View(100, 1448); !ok || len(v) != 1448 || !bytes.Equal(v, make([]byte, 1448)) || b.data != nil {
		t.Fatalf("unwritten ring: View = %d bytes, ok %v, ring %d bytes", len(v), ok, len(b.data))
	}
	b.WriteAt(0, []byte("committed"))
	v, ok := b.View(0, 9)
	if !ok || string(v) != "committed" || cap(v) != 9 || &v[0] != &b.data[0] {
		t.Fatalf("View = %q (cap %d, ok %v), want the ring's bytes in place", v, cap(v), ok)
	}
	if _, ok := b.View(minRing-4, 8); ok {
		t.Fatal("View of a window straddling the small ring's end reported ok")
	}
	small := len(b.data)
	b.WriteAt(9, make([]byte, 2*maxSmallRing)) // the live window outgrows every small ring
	if len(b.data) == small {
		t.Fatal("the ring did not move to full size")
	}
	b.WriteAt(0, []byte("rewritten")) // only after the move, and only in the new ring
	if string(v) != "committed" {
		t.Fatalf("a view held across the move reads %q", v)
	}
	if w, ok := b.View(0, 9); !ok || string(w) != "rewritten" {
		t.Fatalf("View after the move = %q, ok %v", w, ok)
	}
}
