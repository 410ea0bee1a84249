// Package api defines the stack-independent application interface: the
// paper runs identical application binaries on Linux, Chelsio, TAS and
// FlexTOE (§5 "We use identical application binaries across all
// baselines"). Applications in internal/apps program against these
// interfaces; libTOE implements them over the FlexTOE data-path, and the
// baseline host stacks implement them over their own engines.
package api

import (
	"flextoe/internal/host"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// Addr names a TCP endpoint.
type Addr struct {
	IP   packet.IPv4Addr
	Port uint16
}

// Socket is a connected stream endpoint. The interface is callback-based
// because applications are event-driven simulation actors; libTOE's POSIX
// interposition layer (blocking send/recv over epoll) reduces to exactly
// these operations.
//
// # Zero-copy views
//
// The primary data-path operations are the four view calls, mirroring
// FlexTOE's libTOE payload-buffer model (§3, Fig. 2): the application
// reads received bytes and stages transmit bytes in place in the
// per-socket payload ring; only descriptors cross the host/NIC boundary.
//
//   - Peek returns every readable byte as up to two ring slices (two
//     because the ring may wrap); len(a)+len(b) == Readable().
//   - Consume(n) releases the first n readable bytes and reopens that
//     much receive window.
//   - Reserve(n) returns up to n bytes of free transmit ring (bounded by
//     TxSpace) as up to two slices, starting at the current append
//     position.
//   - Commit(n) publishes the next n staged bytes to the stack
//     (doorbell). The bytes transmitted are whatever the ring holds at
//     the append position — an application whose payload content matters
//     must have written it via Reserve first; one that pads (fixed-size
//     RPC benchmarks) may Commit without staging.
//
// Aliasing contract: view slices are windows into the socket's payload
// ring, not copies. A Peek view is invalidated by the next Consume, a
// Reserve view by the next Commit; views must never be retained across
// those calls, across callbacks, or into deferred work. Repeated
// Peek/Reserve without an intervening Consume/Commit return stable
// views. See doc.go ("Zero-copy socket views") for how this composes
// with the data-path pooling rules.
//
// Send and Recv are thin compatibility wrappers over the views
// (Reserve+copy+Commit, Peek+copy+Consume) that additionally pay the
// per-byte copy cost the views avoid.
type Socket interface {
	// Send appends up to len(p) bytes to the transmit stream, returning
	// how many were accepted (bounded by socket-buffer space).
	Send(p []byte) int
	// Recv copies up to len(p) available bytes, returning the count.
	Recv(p []byte) int
	// Peek returns the readable byte stream as up to two ring slices,
	// valid until the next Consume.
	Peek() (a, b []byte)
	// Consume releases the first n readable bytes (n <= Readable()).
	Consume(n int)
	// Reserve returns up to n bytes of transmit ring to stage into,
	// valid until the next Commit.
	Reserve(n int) (a, b []byte)
	// Commit publishes the next n staged bytes (n <= TxSpace()).
	Commit(n int)
	// Readable returns the number of buffered received bytes.
	Readable() int
	// TxSpace returns the free transmit-buffer space.
	TxSpace() int
	// OnReadable registers the data-arrival callback (edge-triggered:
	// fires when Readable transitions upward).
	OnReadable(func())
	// OnWritable registers the buffer-space callback.
	OnWritable(func())
	// Close initiates connection teardown (FIN).
	Close()
	// LocalAddr / RemoteAddr identify the connection.
	LocalAddr() Addr
	RemoteAddr() Addr
}

// View helpers: applications address the two-slice ring windows returned
// by Peek/Reserve as one logical byte range without materializing it.

// ViewLen returns the total length of a two-slice view.
func ViewLen(a, b []byte) int { return len(a) + len(b) }

// ViewByte returns view byte i.
func ViewByte(a, b []byte, i int) byte {
	if i < len(a) {
		return a[i]
	}
	return b[i-len(a)]
}

// ViewCopyOut copies view[off : off+len(dst)] into dst.
func ViewCopyOut(dst []byte, a, b []byte, off int) {
	if off < len(a) {
		n := copy(dst, a[off:])
		if n < len(dst) {
			copy(dst[n:], b)
		}
		return
	}
	copy(dst, b[off-len(a):])
}

// ViewCopyIn copies src into the view starting at off.
func ViewCopyIn(a, b []byte, off int, src []byte) {
	if off < len(a) {
		n := copy(a[off:], src)
		if n < len(src) {
			copy(b, src[n:])
		}
		return
	}
	copy(b[off-len(a):], src)
}

// ViewBytes returns view[off : off+n] as one contiguous slice. When the
// range lies within a single underlying slice it is returned in place
// (zero copy); only a range straddling the ring wrap is copied into
// *scratch (grown as needed, reused across calls). The result aliases
// either the view or scratch — the same lifetime rules as the view
// itself apply.
func ViewBytes(a, b []byte, off, n int, scratch *[]byte) []byte {
	if off+n <= len(a) {
		return a[off : off+n]
	}
	if off >= len(a) {
		o := off - len(a)
		return b[o : o+n]
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	s := (*scratch)[:n]
	ViewCopyOut(s, a, b, off)
	return s
}

// Stack is a TCP implementation on one simulated machine.
type Stack interface {
	Name() string
	// Listen registers an accept handler for a local port.
	Listen(port uint16, accept func(Socket))
	// Dial opens a connection; connected runs when established.
	Dial(remote Addr, connected func(Socket))
	// Machine returns the host CPU model for application work.
	Machine() *host.Machine
	// Engine returns the engine this stack's machine runs on — the
	// testbed's one engine. Applications and workloads schedule all their
	// events here, never on an engine of their own.
	Engine() *sim.Engine
	// LocalIP returns the machine's address.
	LocalIP() packet.IPv4Addr
}
