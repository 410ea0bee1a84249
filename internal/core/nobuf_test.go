package core

import (
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// TestRxDropNoBuf delivers more segments at one instant than the NIC has
// segment buffers (segPoolSize): the pipeline takes one buffer per segment
// and frees none within the instant, so the excess is dropped at entry.
// RxDropNoBuf counts each dropped segment, every accepted one reaches the
// post-processor, every dropped packet goes back to its pool (no loan is
// open at quiescence), and the connection still carries data afterwards.
// Kills: a drop branch that stops counting, or that keeps the packet.
func TestRxDropNoBuf(t *testing.T) {
	const burst = segPoolSize + 88
	p := defaultPair(t, 65536)
	p.eng.AfterCall(10*sim.Microsecond, func(any) {
		c := &p.a.conn.Proto
		frames := netsim.FramesOf(p.eng)
		for i := 0; i < burst; i++ {
			ack := p.toeA.buildAck(p.a.conn, &tcpseg.RXResult{AckSeq: c.Seq, AckAck: c.Ack, AckWin: c.LocalWindow()})
			p.toeB.rxFromWire(frames.NewFrame(ack, p.eng.Now()))
		}
	}, nil)
	p.eng.RunUntil(sim.Millisecond)
	if got := p.toeB.RxDropNoBuf; got != burst-segPoolSize {
		t.Errorf("RxDropNoBuf = %d, want %d of the %d segments", got, burst-segPoolSize, burst)
	}
	if got := p.toeB.RxSegs; got != segPoolSize {
		t.Errorf("RxSegs = %d, want the %d segments that found a buffer", got, segPoolSize)
	}
	if err := p.eng.Unreturned(); err != nil {
		t.Errorf("after the burst: %v", err)
	}

	data := testData(1000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(2 * sim.Millisecond)
	if len(p.b.got) != len(data) {
		t.Errorf("delivered %d bytes after the burst, sent %d", len(p.b.got), len(data))
	}
}
