package core

import (
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// TestHeldKickSameInstant is the directed row of the held-kick oracle
// (TestHeldKickMatchesEagerArm runs the end-to-end rows): at one instant a
// kick finds the carousel empty, a segment goes to the control plane, and
// then a flow is submitted. The eager arm queued the pump at the kick, so
// it ran ahead of the control delivery and the delivery saw the pump's
// segment in flight; the held kick must give the same order by arming
// before the delivery is queued. In end-to-end runs the three rarely share
// a picosecond, which is why this row exists. Kills: dropping the arm
// before controlCb.
func TestHeldKickSameInstant(t *testing.T) {
	run := func(eager bool) (inflight []int, processed uint64, got int) {
		p := defaultPair(t, 65536)
		p.toeA.eagerTX = eager
		p.toeA.ControlRx = func(*packet.Packet) { inflight = append(inflight, p.toeA.txInflight) }
		data := testData(1000)
		p.eng.AfterCall(10*sim.Microsecond, func(any) {
			toe, c := p.toeA, p.a.conn
			toe.kickTX()
			toe.toControl(toe.pkts.Get())
			c.TxBuf.WriteAt(0, data)
			tcpseg.ProcessHC(&c.Proto, &c.Post, tcpseg.HCOp{Kind: tcpseg.HCTx, Bytes: uint32(len(data))})
			toe.submitFlow(c)
		}, nil)
		p.eng.RunUntil(sim.Millisecond)
		return inflight, p.eng.Processed(), len(p.b.got)
	}
	wantIn, wantEvents, wantGot := run(true)
	gotIn, events, got := run(false)
	if len(wantIn) != 1 || wantIn[0] != 1 {
		t.Fatalf("eager arm: control delivery saw %v segments in flight, want [1]", wantIn)
	}
	if len(gotIn) != 1 || gotIn[0] != wantIn[0] {
		t.Errorf("held kick: control delivery saw %v segments in flight, eager arm %v", gotIn, wantIn)
	}
	if got != wantGot || got != 1000 {
		t.Errorf("held kick delivered %d bytes, eager arm %d, sent 1000", got, wantGot)
	}
	if events >= wantEvents {
		t.Errorf("held kick ran %d events, eager arm %d", events, wantEvents)
	}
}
