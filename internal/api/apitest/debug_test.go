//go:build flexdebug

package apitest

import (
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/shm"
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

// TestStaleViewsTrip: on every stack, a Reserve view written after its
// Commit and a Peek view read after its Consume panic in the view
// helpers, and the consumed receive bytes read as poison (shm.PayloadBuf
// under flexdebug). A view re-taken after the call is live again.
func TestStaleViewsTrip(t *testing.T) {
	for _, r := range rows() {
		t.Run(r.name, func(t *testing.T) {
			const n = 64
			p := newPair(t, r, 4096, 9010, nil)
			a, b := p.cli.Reserve(n)
			for i := 0; i < n; i++ {
				api.ViewCopyIn(a, b, i, []byte{pattern(i)})
			}
			p.cli.Commit(n)
			mustPanic(t, "a Reserve view written after its Commit", func() { api.ViewCopyIn(a, b, 0, []byte{0xEE}) })
			a, b = p.cli.Reserve(n)
			api.ViewCopyIn(a, b, 0, []byte{pattern(n)})

			p.until(t, "delivery", func() bool { return p.srv.Readable() >= n })
			ra, rb := p.srv.Peek()
			if got := api.ViewByte(ra, rb, n-1); got != pattern(n-1) {
				t.Fatalf("byte %d reads %#x, want %#x", n-1, got, pattern(n-1))
			}
			p.srv.Consume(n)
			if ra[0] != shm.PoisonByte || ra[n-1] != shm.PoisonByte {
				t.Errorf("consumed bytes read %#x..%#x, want poison %#x", ra[0], ra[n-1], shm.PoisonByte)
			}
			mustPanic(t, "a Peek view read after its Consume", func() { api.ViewByte(ra, rb, 0) })
			scratch := make([]byte, 0, n)
			mustPanic(t, "a Peek view copied after its Consume", func() { api.ViewBytes(ra, rb, 0, n, &scratch) })
			quiesce(t, p.tb)
		})
	}
}

// TestStaleZeroViewsTrip: on every stack, a client that commits without
// staging sends zero windows, so the server's receive ring gets no
// storage and Peek lends the shared zero array. A Peek view read after
// its Consume still panics in the view helpers, and a write through a
// Peek view panics at the Consume that follows.
func TestStaleZeroViewsTrip(t *testing.T) {
	for _, r := range rows() {
		t.Run(r.name, func(t *testing.T) {
			const n = 64
			p := newPair(t, r, 4096, 9011, nil)
			p.cli.Commit(2 * n)
			p.until(t, "delivery", func() bool { return p.srv.Readable() >= 2*n })
			ra, rb := p.srv.Peek()
			if api.ViewLen(ra, rb) != 2*n || api.ViewByte(ra, rb, n) != 0 {
				t.Fatalf("Peek of %d zero bytes: %d bytes, byte %d reads %#x", 2*n, api.ViewLen(ra, rb), n, api.ViewByte(ra, rb, n))
			}
			p.srv.Consume(n)
			mustPanic(t, "a zero Peek view read after its Consume", func() { api.ViewByte(ra, rb, 0) })
			ra, rb = p.srv.Peek()
			ra[0] = 0xEE
			mustPanic(t, "a Consume after a write through a zero Peek view", func() { p.srv.Consume(n) })
			quiesce(t, p.tb)
		})
	}
}
