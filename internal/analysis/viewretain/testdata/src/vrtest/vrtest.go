// Package vrtest exercises the viewretain pass against the real
// api.Socket and shm.PayloadBuf view APIs.
package vrtest

import (
	"flextoe/internal/api"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// retained is the package-level retention sink.
var retained []byte

type session struct {
	sock    api.Socket
	stash   []byte
	pending [][]byte
}

// retainedViewHazard is the PR-5 regression shape: a session callback
// stores the Peek window on the struct for "later", and the ring advances
// underneath it at the next Consume.
func retainedViewHazard(s *session) {
	a, b := s.sock.Peek()
	s.stash = a // want `Peek view a stored into field s\.stash`
	_ = b
}

func storeToPackageVar(s api.Socket) {
	a, _ := s.Peek()
	retained = a // want `Peek view a stored into package variable retained`
}

func storeSliceOfView(s *session) {
	a, _ := s.sock.Peek()
	s.stash = a[4:] // want `Peek view a stored into field s\.stash`
}

func storeToElement(s *session) {
	a, _ := s.sock.Peek()
	s.pending[0] = a // want `Peek view a stored into element s\.pending\[0\]`
}

func sendOnChannel(s api.Socket, ch chan []byte) {
	a, _ := s.Peek()
	ch <- a // want `Peek view a stored into channel send`
}

func capturedByCallback(s api.Socket) {
	a, b := s.Peek()
	s.OnReadable(func() {
		_ = a // want `Peek view a captured by OnReadable registration`
		_ = b // want `Peek view b captured by OnReadable registration`
	})
}

// capturedByOwnedEvent: a component's owner schedules like the engine, and
// retains a closure the same way.
func capturedByOwnedEvent(s api.Socket, own sim.Owner) {
	a, _ := s.Peek()
	own.AfterCall(10, func(any) {
		_ = a // want `Peek view a captured by AfterCall registration`
	}, nil)
}

func capturedByDefer(s api.Socket) {
	a, _ := s.Reserve(16)
	defer func() {
		a[0] = 1 // want `Reserve view a captured by defer statement`
	}()
	s.Commit(16)
}

func capturedByGo(s api.Socket) {
	a, _ := s.Peek()
	go func() {
		_ = a // want `Peek view a captured by go statement`
	}()
}

func storedClosure(s *session) {
	a, _ := s.sock.Peek()
	fn := func() byte { return a[0] } // want `Peek view a captured by stored closure`
	_ = fn
}

func useAfterConsume(s api.Socket) byte {
	a, _ := s.Peek()
	s.Consume(4)
	return a[0] // want `Peek view a used after s\.Consume invalidated it`
}

func useAfterCommit(s *session, payload []byte) {
	a, b := s.sock.Reserve(len(payload))
	api.ViewCopyIn(a, b, 0, payload)
	s.sock.Commit(len(payload))
	a[0] = 0 // want `Reserve view a used after s\.sock\.Commit invalidated it`
}

// peekSurvivesCommit: Commit only invalidates Reserve views; the Peek
// window stays valid.
func peekSurvivesCommit(s api.Socket) byte {
	a, _ := s.Peek()
	s.Commit(8)
	return a[0]
}

// otherSocketUnaffected: invalidation is per receiver.
func otherSocketUnaffected(s, t api.Socket) byte {
	a, _ := s.Peek()
	t.Consume(4)
	return a[0]
}

// refreshRevalidates: re-obtaining the view after Consume is the
// sanctioned pattern.
func refreshRevalidates(s api.Socket) byte {
	a, _ := s.Peek()
	_ = a
	s.Consume(4)
	a, _ = s.Peek()
	return a[0]
}

// consumeThenReturnEarly: the invalidating branch leaves the function, so
// the later use is clean.
func consumeThenReturnEarly(s api.Socket, done bool) byte {
	a, _ := s.Peek()
	if done {
		s.Consume(4)
		return 0
	}
	return a[0]
}

// parseThenConsume is the canonical clean loop: stage, parse, advance,
// re-obtain.
func parseThenConsume(s api.Socket) int {
	total := 0
	for {
		a, b := s.Peek()
		n := api.ViewLen(a, b)
		if n == 0 {
			return total
		}
		for i := 0; i < n; i++ {
			total += int(api.ViewByte(a, b, i))
		}
		s.Consume(n)
	}
}

// scratchPattern: api.ViewBytes copies on ring wrap into caller scratch —
// the result aliases the view, but locals are fine.
func scratchPattern(s api.Socket, scratch *[]byte) byte {
	a, b := s.Peek()
	frame := api.ViewBytes(a, b, 0, 4, scratch)
	v := frame[0]
	s.Consume(4)
	return v
}

// payloadBufSlices: shm.PayloadBuf.Slices views follow the same retention
// rules.
func payloadBufSlices(pb *shm.PayloadBuf) {
	a, _ := pb.Slices(0, 64)
	retained = a // want `Slices view a stored into package variable retained`
}

// frame is a stand-in for anything that outlives a segment build.
type frame struct{ payload []byte }

// wireViewIntoPacket is the one sanctioned flow of a wire view: into the
// packet it is the payload of, with the straddling window copied.
func wireViewIntoPacket(pb *shm.PayloadBuf, p *packet.Packet) {
	if v, ok := pb.View(0, 64); ok {
		p.SetPayloadView(v)
		_ = len(v)
	} else {
		pb.ReadAt(0, p.GrowPayload(64))
	}
}

func wireViewIntoField(pb *shm.PayloadBuf, f *frame, p *packet.Packet) {
	v, _ := pb.View(0, 64)
	f.payload = v      // want `View view v stored into field f\.payload: a wire view may flow only into Packet\.SetPayloadView`
	p.Payload = v[:32] // want `View view v stored into field p\.Payload`
}

func wireViewIntoGlobal(pb *shm.PayloadBuf) {
	v, _ := pb.View(0, 64)
	retained = v // want `View view v stored into package variable retained`
}

func wireViewCaptured(pb *shm.PayloadBuf, own sim.Owner, p *packet.Packet) {
	v, _ := pb.View(0, 64)
	own.AfterCall(10, func(any) {
		p.SetPayloadView(v) // want `View view v captured by AfterCall registration`
	}, nil)
}

func wireViewHandedOn(pb *shm.PayloadBuf, f *frame) []byte {
	v, _ := pb.View(0, 64)
	keep(f, v) // want `View view v passed to keep`
	return v   // want `View view v returned`
}

func keep(f *frame, b []byte) { f.payload = b }

// annotated: a deliberate, justified retention is suppressed.
func annotated(s *session) {
	a, _ := s.sock.Peek()
	//flexvet:viewretain test fixture retains the view deliberately
	s.stash = a
}
