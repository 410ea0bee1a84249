package core

import (
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// TestKickOnEmptyCarousel holds the transmit pump's one arming rule (kickTX
// arms only when the carousel holds a flow) at the instant where it
// decides order: a kick finds the carousel empty, a segment goes to the
// control plane, and then a flow is submitted. The kick queues nothing,
// so the control delivery runs ahead of the pump the submit arms and sees
// no TX segment in flight, the data still arrives, and the run executes
// the events of one without the kick. Kills: arming on an empty carousel
// (the delivery sees 1 segment in flight, or the kick adds an event).
func TestKickOnEmptyCarousel(t *testing.T) {
	run := func(kick bool) (inflight []int, processed uint64, got int) {
		p := defaultPair(t, 65536)
		p.toeA.ControlRx = func(*packet.Packet) { inflight = append(inflight, p.toeA.txInflight) }
		data := testData(1000)
		p.eng.AfterCall(10*sim.Microsecond, func(any) {
			toe, c := p.toeA, p.a.conn
			if kick {
				toe.kickTX()
			}
			toe.toControl(toe.pkts.Get())
			c.TxBuf.WriteAt(0, data)
			tcpseg.ProcessHC(&c.Proto, &c.Post, tcpseg.HCOp{Kind: tcpseg.HCTx, Bytes: uint32(len(data))})
			toe.submitFlow(c)
		}, nil)
		p.eng.RunUntil(sim.Millisecond)
		return inflight, p.eng.Processed(), len(p.b.got)
	}
	inflight, events, got := run(true)
	_, bareEvents, _ := run(false)
	if len(inflight) != 1 || inflight[0] != 0 {
		t.Errorf("control delivery saw %v TX segments in flight, want [0]", inflight)
	}
	if got != 1000 {
		t.Errorf("delivered %d bytes, sent 1000", got)
	}
	if events != bareEvents {
		t.Errorf("run with the kick executed %d events, without it %d", events, bareEvents)
	}
}
