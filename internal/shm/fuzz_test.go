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

// fuzzSizes is the number of logical sizes checkPayloadBuf runs: 8 KB
// shifted left by 0 to 3.
const fuzzSizes = 4

// fuzzSize returns the logical size data[0] selects.
func fuzzSize(sel byte) uint32 { return 8192 << (sel % fuzzSizes) }

// allRungs is the OR of every small ring size of a buffer of the given
// logical size: the powers of two from minRing to size/2.
func allRungs(size uint32) uint32 { return size - minRing }

// viewCoverage names the corners checkPayloadBuf reached. The rung masks
// are kept per logical size (fuzzSize), each an OR of small ring sizes.
type viewCoverage struct {
	zeroViews int               // View or ReadSlices of a ring with no storage
	zeroKept  int               // zero-window writes that left the ring without storage
	zeroAt    bool              // the first real write after zero writes and a Release landed at tail
	zeroAhead bool              // ... landed beyond tail, behind zeros that read back
	zeroStale bool              // a zero-window write into an allocated ring replaced a nonzero byte
	straddles int               // View calls that reported the ring end in the window
	rungs     [fuzzSizes]uint32 // small ring sizes a View was taken on
	heldMoves [fuzzSizes]uint32 // small ring sizes the ring moved away from while a view was held
	direct    bool              // the ring went nil -> full size at once
	stepped   bool              // the ring moved from one small size to a larger one
	grew      bool              // the ring went small -> full size
	smallWrap bool              // a View was taken after a write wrapped a small ring
	fullWrap  bool              // a View was taken after a write wrapped the full ring
}

// add merges o into c.
func (c *viewCoverage) add(o viewCoverage) {
	c.zeroViews += o.zeroViews
	c.zeroKept += o.zeroKept
	c.zeroAt = c.zeroAt || o.zeroAt
	c.zeroAhead = c.zeroAhead || o.zeroAhead
	c.zeroStale = c.zeroStale || o.zeroStale
	c.straddles += o.straddles
	for i := range c.rungs {
		c.rungs[i] |= o.rungs[i]
		c.heldMoves[i] |= o.heldMoves[i]
	}
	c.direct = c.direct || o.direct
	c.stepped = c.stepped || o.stepped
	c.grew = c.grew || o.grew
	c.smallWrap = c.smallWrap || o.smallWrap
	c.fullWrap = c.fullWrap || o.fullWrap
}

// climbed reports whether, on the logical size sel selects, a View was
// taken on every small ring and the ring moved away from every one of
// them with a view held.
func (c viewCoverage) climbed(sel byte) bool {
	all := allRungs(fuzzSize(sel))
	return c.rungs[sel%fuzzSizes] == all && c.heldMoves[sel%fuzzSizes] == all
}

// complete reports whether c reached every corner on every logical size.
func (c viewCoverage) complete() bool {
	for sel := byte(0); sel < fuzzSizes; sel++ {
		if !c.climbed(sel) {
			return false
		}
	}
	return c.zeroViews > 0 && c.straddles > 0 && c.direct && c.stepped &&
		c.grew && c.smallWrap && c.fullWrap && c.zeroWrites()
}

// zeroWrites reports whether c reached every corner of zero-window writes.
func (c viewCoverage) zeroWrites() bool {
	return c.zeroKept > 0 && c.zeroAt && c.zeroAhead && c.zeroStale
}

// checkPayloadBuf drives one PayloadBuf with the operations data encodes
// and holds it to a flat reference of the logical stream (ref[i] is the
// byte at position base+i). data[0] picks the logical size (8 to 64 KB,
// fuzzSize) and whether positions start just below the uint32 wrap; then
// every three bytes are one operation:
//
//	op%10 0, 1  in-order write at head (WriteAt, or through Slices as Reserve+Commit does)
//	      2     write a block ahead of a hole      3  fill the hole
//	      4     Release part or all of the live window
//	      5     View a window and hold it          6  Slices a window   7  ReadAt a window
//	      8     WriteAt a window of the shared zero array: at head, ahead of a hole, or into it
//	      9     ReadSlices a window (held when it lends the zero array)
//
// After every operation each held view must still read the reference
// while its bytes are unreleased — across writes, wraps and every move of
// the ring — a zero window must read zeros forever, and a ring written
// only zero windows must have no storage.
func checkPayloadBuf(t *testing.T, data []byte) viewCoverage {
	var cov viewCoverage
	if len(data) == 0 {
		return cov
	}
	sel := data[0] % fuzzSizes
	size := fuzzSize(sel)
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
	// real: the ring was asked to hold something other than a zero window
	// (a write of real bytes, a Slices view); zeroed: a zero window was
	// written before that, and released: a Release followed it.
	var real, zeroed, released bool

	// length decodes a write or window length below limit from two bytes:
	// mostly short, sometimes up to 32 KB.
	length := func(x, y byte, limit uint32) uint32 {
		n := 1 + uint32(y)
		if x >= 128 {
			n = 1 + (uint32(x-128)<<8 | uint32(y))
		}
		return 1 + (n-1)%limit
	}
	want := func(pos, n uint32) []byte { return ref[pos-base : pos-base+n] }
	// write stores n bytes at pos: real bytes, or with zero a window of
	// the shared zero array starting fill bytes in, as a content-ignored
	// segment carries.
	write := func(pos, n uint32, viaSlices, zero bool, fill byte) {
		p := zeros[fill : uint32(fill)+n]
		if !zero {
			p = make([]byte, n)
			for i := range p {
				p[i] = fill + byte(i*7) + byte((pos+uint32(i))>>8)
			}
		}
		if end := pos + n - base; end > uint32(len(ref)) {
			ref = append(ref, make([]byte, end-uint32(len(ref)))...)
		}
		copy(ref[pos-base:], p)
		before := len(b.data)
		switch {
		case zero:
			stale := false
			for i := uint32(0); before != 0 && i < n; i++ {
				stale = stale || b.data[(pos+i)&uint32(before-1)] != 0
			}
			b.WriteAt(pos, p)
			if before == 0 {
				cov.zeroKept++
				zeroed = true
			}
			cov.zeroStale = cov.zeroStale || stale
		case viaSlices:
			a, c := b.Slices(pos, n)
			copy(c, p[copy(a, p):])
		default:
			b.WriteAt(pos, p)
		}
		if !zero && !real {
			real = true
			if zeroed && released {
				// The ring gets storage now: the zeros behind the write
				// read back, then the data.
				got := make([]byte, pos+n-tail)
				b.ReadAt(tail, got)
				if !bytes.Equal(got, want(tail, pos+n-tail)) {
					t.Fatalf("the first real write [%d,%d) after zero writes: [%d,%d) differs from the stream", pos, pos+n, tail, pos+n)
				}
				cov.zeroAt = cov.zeroAt || pos == tail
				cov.zeroAhead = cov.zeroAhead || pos != tail
			}
		}
		phys := uint32(len(b.data))
		if before != len(b.data) {
			cov.direct = cov.direct || before == 0 && phys == size
			cov.stepped = cov.stepped || before != 0 && phys < size
			cov.grew = cov.grew || before != 0 && phys == size
			for _, h := range held {
				if before != 0 && !h.zero {
					cov.heldMoves[sel] |= uint32(before)
				}
			}
		}
		if phys != 0 && pos&(phys-1)+n > phys {
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

	for i := 1; i+2 < len(data); i += 3 {
		op, x, y := data[i]%10, data[i+1], data[i+2]
		free := size - (head - tail)
		zero := op == 8
		if zero {
			// x's low bit picks a block ahead of a hole over a write at head.
			switch {
			case oooS != oooE:
				op = 3
			case x&1 == 1 && free > 2:
				op = 2
			default:
				op = 0
			}
		}
		switch {
		case op < 2 && oooS == oooE && free > 0:
			n := length(x, y, free)
			write(head, n, op == 1, zero, x)
			head += n
			oooS, oooE = head, head
		case op == 2 && oooS == oooE && free > 2:
			gap := 1 + uint32(x)%(free-2)
			n := length(y, x, free-gap)
			oooS, oooE = head+gap, head+gap+n
			write(oooS, n, y&1 == 1, zero, y)
		case op == 3 && oooS != oooE:
			write(head, oooS-head, x&1 == 1, zero, x)
			head = oooE
			oooS = oooE
		case op == 4 && head != tail:
			n := max((head-tail)*(uint32(x)+1)/256, 1) // x == 255: all of it
			b.Release(n)
			tail += n
			released = released || zeroed
		case (op == 5 || op == 9) && b.data == nil:
			// Only zeros were written: any window reads as zeros, and
			// neither view gives the ring storage.
			pos, n := tail+uint32(x)*size/256, length(y, x, size)
			v, ok := b.View(pos, n)
			if op == 9 {
				var c []byte
				v, c = b.ReadSlices(pos, n)
				ok = c == nil
			}
			if !ok || uint32(len(v)) != n || b.data != nil || !isZeros(v) {
				t.Fatalf("op %d of [%d,%d) on a ring with no storage: %d bytes, ok %v, ring %d bytes", op, pos, pos+n, len(v), ok, len(b.data))
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
				cov.rungs[sel] |= uint32(phys)
			}
			cov.smallWrap = cov.smallWrap || wroteSmallWrap
			cov.fullWrap = cov.fullWrap || wroteFullWrap
			held = append(held, heldView{pos: pos, v: v})
			if len(held) > 8 {
				held = held[1:]
			}
		case op == 6 || op == 9:
			if pos, n, ok := window(x, y); ok {
				lend := b.Slices
				if op == 9 {
					lend = b.ReadSlices
				}
				a, c := lend(pos, n)
				real = true
				if got := append(append([]byte(nil), a...), c...); !bytes.Equal(got, want(pos, n)) {
					t.Fatalf("op %d of [%d,%d) differs from the stream", op, pos, pos+n)
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

		if !real && b.data != nil {
			t.Fatalf("op %d: the ring has %d bytes of storage after only zero windows were written", i/3, len(b.data))
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

// FuzzPayloadBuf holds PayloadBuf's WriteAt/Release/Slices/ReadSlices/
// View/ReadAt to a flat reference of the logical stream on arbitrary
// operation sequences (see checkPayloadBuf for the encoding), views held
// across later writes and the ring's moves, and writes of zero windows,
// included. The committed corpus (testdata/fuzz/FuzzPayloadBuf: 600
// random operations on every size and start, one run of 3 000, a directed
// run that views a small ring and then outgrows it, payloadBufLadderOps
// on every size, payloadBufZeroOps both ways, and the input that found
// zero windows aliasing the first storage's bytes before fit counted
// their reach) reaches every corner viewCoverage names
// (TestPayloadBufCorpusCoverage).
func FuzzPayloadBuf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkPayloadBuf(t, data) })
}

// payloadBufSeedOps returns a selector byte and n random operations,
// short writes only in the first half. Two views of the still unwritten
// ring come first; with direct, the first write outgrows every small ring
// at once: a block 255 B ahead of the stream, three quarters of the
// logical size long (32 KB at most), so the live window it opens is over
// half the logical size.
func payloadBufSeedOps(seed int64, sel byte, n int, direct bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{sel, 5, byte(seed), 200, 5, 77, byte(seed)}
	if direct {
		data = append(data, 2, 254, byte(128+min(127, fuzzSize(sel)*3/4>>8)))
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

// payloadBufLadderOps climbs the small rings one by one on the logical
// size sel selects, its positions crossing the uint32 wrap: on each rung
// it wraps the ring with writes of 200 B (1/32 of the ring above 8 KB),
// each viewed and then released, and then hoards writes until the live
// window outgrows the ring, with views of it held. Past the largest small
// ring it moves to full size and wraps that too.
func payloadBufLadderOps(sel byte) []byte {
	size := fuzzSize(sel)
	data := []byte{4 | sel}
	live, w := uint32(0), uint32(0)
	write := func() {
		if n := w - 1; n < 256 {
			data = append(data, 0, 0, byte(n))
		} else {
			data = append(data, 0, byte(128+n>>8), byte(n))
		}
		live += w
	}
	view := func() { data = append(data, 5, 0, 100) } // 101 bytes from tail
	release := func() {
		x := w*256/live - 1
		data = append(data, 4, byte(x), 0)
		live -= live * (x + 1) / 256
	}
	cycle := func(ring uint32) {
		w = max(200, ring/32)
		if ring <= 8192 {
			w = 200
		}
		for i := uint32(0); i < 2*ring/w+1; i++ {
			write()
			view()
			release()
		}
	}
	for r := uint32(minRing); r < size; r <<= 1 {
		for live+200 <= r/2 {
			w = 200
			write()
		}
		cycle(r)
		for live <= r {
			write()
			view()
		}
	}
	cycle(size)
	return data
}

// payloadBufZeroOps writes only zero windows — in order, ahead of a hole
// and into it — with views and a Release between, as a content-ignored
// stream's receive ring sees them. Then come the first real bytes: at
// tail after releasing everything (at), or at head behind unreleased
// zeros. Last, those bytes are released and zero windows wrap the now
// allocated ring onto them.
func payloadBufZeroOps(sel byte, at bool) []byte {
	data := []byte{sel,
		9, 0, 50, // ReadSlices of the ring with no storage
		8, 0, 99, // 100 zero bytes at head
		8, 41, 40, // 42 zero bytes 42 bytes ahead of head
		8, 0, 0, // the hole, filled with zeros
		5, 0, 10, // View
		4, 127, 0, // Release half the live window
		8, 0, 29, // 30 zero bytes at head
		9, 0, 60, // ReadSlices
	}
	if at {
		data = append(data, 4, 255, 0) // Release it all
	}
	data = append(data, 0, 2, 199, 7, 0, 100, 4, 255, 0) // 200 real bytes, read, released
	for i := 0; i < 4; i++ {
		data = append(data, 8, 0, 255, 4, 255, 0) // 256 zero bytes, released
	}
	return data
}

// TestPayloadBufViewMatchesStream runs long seeded sequences, the zero
// window runs and the ladder through checkPayloadBuf on every size and
// requires the corners the view contract depends on: zero views of a ring
// with no storage, zero writes that leave it so, the first real write
// after them at tail and beyond it, a zero write over stale bytes,
// straddling windows refused, views of every small ring size of every
// logical size, views held across each move from one small ring to the
// next and to full size, views after a small and the full ring wrapped,
// and a ring that went nil -> full at once.
func TestPayloadBufViewMatchesStream(t *testing.T) {
	var all viewCoverage
	for seed := int64(1); seed <= 8; seed++ {
		cov := checkPayloadBuf(t, payloadBufSeedOps(seed, byte(seed-1), 3000, seed%2 == 0))
		t.Logf("seed %d: %+v", seed, cov)
		if seed%2 == 0 && !cov.direct {
			t.Errorf("seed %d: the first write did not take the ring nil -> full", seed)
		}
		all.add(cov)
	}
	for _, at := range []bool{false, true} {
		cov := checkPayloadBuf(t, payloadBufZeroOps(4, at))
		t.Logf("zero windows, first real write at tail %v: %+v", at, cov)
		if cov.zeroKept == 0 || !cov.zeroStale || cov.zeroAt != at || cov.zeroAhead == at {
			t.Errorf("zero windows, first real write at tail %v, reached only %+v", at, cov)
		}
		all.add(cov)
	}
	for sel := byte(0); sel < fuzzSizes; sel++ {
		ladder := checkPayloadBuf(t, payloadBufLadderOps(sel))
		t.Logf("ladder of %d B: %+v", fuzzSize(sel), ladder)
		if !ladder.climbed(sel) || !ladder.stepped || !ladder.grew || !ladder.smallWrap || !ladder.fullWrap {
			t.Errorf("the ladder of %d B reached only %+v", fuzzSize(sel), ladder)
		}
		all.add(ladder)
	}
	if !all.complete() {
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
	b.WriteAt(9, make([]byte, 8192)) // over half the buffer: only full size holds it
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
