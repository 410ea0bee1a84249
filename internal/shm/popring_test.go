package shm

import (
	"testing"
	"testing/quick"
)

// fifo is the slice + head + PopRing idiom exactly as its call sites
// spell it (core's stage queues, nfp's run queue, host.Core, the app
// request queues): append to push, read s[head] and PopRing to pop.
type fifo struct {
	s    []*int
	head int
}

func (f *fifo) push(v int) { f.s = append(f.s, &v) }
func (f *fifo) len() int   { return len(f.s) - f.head }
func (f *fifo) pop() int {
	v := *f.s[f.head]
	f.s, f.head = PopRing(f.s, f.head)
	return v
}

// checkConsumedZeroed: every slot behind the head holds no reference, so
// a drained item is collectable (or, pooled, safely reusable) at once.
func (f *fifo) checkConsumedZeroed(t *testing.T) {
	t.Helper()
	for i, p := range f.s[:f.head] {
		if p != nil {
			t.Fatalf("consumed slot %d of %d (head %d) still holds a reference", i, len(f.s), f.head)
		}
	}
}

func TestPopRingFIFO(t *testing.T) {
	var f fifo
	for i := 0; i < 200; i++ {
		f.push(i)
	}
	for i := 0; i < 200; i++ {
		if v := f.pop(); v != i {
			t.Fatalf("pop %d = %d", i, v)
		}
		f.checkConsumedZeroed(t)
	}
	if f.len() != 0 || f.head != 0 || len(f.s) != 0 {
		t.Fatalf("drained ring: len %d, head %d, backing %d; want all 0 (storage reused from the start)", f.len(), f.head, len(f.s))
	}
}

// TestPopRingCompaction: under sustained load — a standing depth of 500,
// then one push per pop — the backing slice stays O(outstanding) instead
// of growing with every push.
func TestPopRingCompaction(t *testing.T) {
	const depth, rounds = 500, 100000
	var f fifo
	for i := 0; i < depth; i++ {
		f.push(i)
	}
	maxBacking := 0
	for i := 0; i < rounds; i++ {
		f.push(depth + i)
		if v := f.pop(); v != i {
			t.Fatalf("pop = %d, want %d", v, i)
		}
		f.checkConsumedZeroed(t)
		if len(f.s) > maxBacking {
			maxBacking = len(f.s)
		}
	}
	if f.len() != depth {
		t.Fatalf("len = %d, want %d", f.len(), depth)
	}
	// The dead prefix is dropped once it is half the slice (and longer
	// than 32 slots), so the slice never exceeds twice the live items
	// plus that threshold.
	if limit := 2*(depth+1) + 34; maxBacking > limit {
		t.Fatalf("backing slice reached %d slots for %d outstanding, want <= %d", maxBacking, depth, limit)
	}
	if c := cap(f.s); c > 8*depth {
		t.Fatalf("backing capacity %d after %d pushes at depth %d", c, rounds, depth)
	}
}

func TestPopRingPropertyFIFO(t *testing.T) {
	// Property: any interleaving of pushes and pops preserves FIFO order
	// and the length.
	prop := func(ops []bool) bool {
		var f fifo
		next, expect := 0, 0
		for _, push := range ops {
			if push {
				f.push(next)
				next++
			} else if f.len() > 0 {
				if f.pop() != expect {
					return false
				}
				expect++
			}
			if f.len() != next-expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// quick's slices are short; one long run — three pushes per two pops
	// while it grows, the reverse while it drains — crosses the
	// compaction threshold many times.
	long := make([]bool, 20000)
	for i := range long {
		if i < len(long)/2 {
			long[i] = i%5 < 3
		} else {
			long[i] = i%5 < 2
		}
	}
	if !prop(long) {
		t.Fatal("FIFO order lost on the long interleaving")
	}
}
