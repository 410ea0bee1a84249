//go:build flexdebug

package shm

import (
	"bytes"
	"testing"
)

// mustPanic runs f and fails the test if it completes without panicking.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestFreelistDoubleReleasePanics(t *testing.T) {
	type obj struct{ n int }
	var fl Freelist[obj]
	x := &obj{n: 1}
	fl.Put(x)
	mustPanic(t, "double Put", func() { fl.Put(x) })
}

func TestFreelistReacquireIsClean(t *testing.T) {
	type obj struct{ n int }
	var fl Freelist[obj]
	x := &obj{}
	fl.Put(x)
	if got := fl.Get(); got != x {
		t.Fatalf("Get = %p, want %p", got, x)
	}
	fl.Put(x) // legal again after the Get
	if got := fl.Get(); got != x {
		t.Fatalf("Get = %p, want %p", got, x)
	}
}

func TestSlabPoisonsReleasedBuffers(t *testing.T) {
	s := NewSlab(64, 4)
	b := s.Get()
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0x11
	}
	s.Put(b)
	for i, v := range b {
		if v != PoisonByte {
			t.Fatalf("released slab byte %d = %#x, want poison %#x", i, v, PoisonByte)
		}
	}
}

// TestZeroWindowViewsStampedPerRing: ReadSlices of two rings with no
// storage lends each a window of the shared zero array that starts at its
// own byte, so each is stamped with its own ring. A Release of one ring
// ends its view alone, and the first real write (the ring gets storage)
// ends the other.
func TestZeroWindowViewsStampedPerRing(t *testing.T) {
	x, y := NewPayloadBuf(4096), NewPayloadBuf(4096)
	xa, _ := x.ReadSlices(0, 100)
	ya, _ := y.ReadSlices(0, 100)
	if !isZeros(xa) || !isZeros(ya) || &xa[0] == &ya[0] || x.data != nil || y.data != nil {
		t.Fatalf("zero windows at %p and %p, rings %d and %d B: want two distinct starts and no storage",
			&xa[0], &ya[0], len(x.data), len(y.data))
	}
	x.Release(10)
	mustPanic(t, "a zero view read after its ring's Release", func() { checkViews(xa, nil) })
	checkViews(ya, nil) // y's view is live
	y.WriteAt(0, []byte{1})
	mustPanic(t, "a zero view read after its ring got storage", func() { checkViews(ya, nil) })
}

// TestZeroWindowWriteTrips writes through a ReadSlices view of a ring
// with no storage, which lends the shared zero array: the ring's next
// Release must panic, and leave the array reading zeros again.
func TestZeroWindowWriteTrips(t *testing.T) {
	b := NewPayloadBuf(4096)
	a, _ := b.ReadSlices(0, 64)
	a[63] = 0xEE
	mustPanic(t, "a Release after a write through a zero window", func() { b.Release(64) })
	if a[63] != 0 {
		t.Fatalf("the shared zero array still reads %#x after the check", a[63])
	}
	if v, _ := NewPayloadBuf(4096).View(0, 4096); !bytes.Equal(v, make([]byte, 4096)) {
		t.Fatal("a fresh ring's View does not read zeros")
	}
}
