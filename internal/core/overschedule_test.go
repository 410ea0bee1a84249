package core

import (
	"bytes"
	"testing"

	"flextoe/internal/sim"
)

// TestTXOverScheduling pins ROADMAP item 25 as it stands: the transmit
// pump re-submits a flow while more than an MSS is sendable (txPump) and
// rxPost submits it on every ACK that leaves bytes sendable, both reading
// the ProtoState that the TX items already in the pipeline have not yet
// advanced. So one window is scheduled several times, and the protocol
// stage drops the surplus ("Window closed between scheduling and
// protocol"). The share of TX items that die there comes from counters
// the TOE keeps anyway: at quiescence the pre-processing FPCs have run
// one task per item, so the TX items are the pre tasks less RxSegs,
// RxToControl and HCOps, and the ones that reached the wire are TxSegs.
//
// A scheduler that debits what it schedules brings the share near zero
// and flips this test: it then asserts the share stays below 0.05.
func TestTXOverScheduling(t *testing.T) {
	p := defaultPair(t, 65536)
	data := testData(500_000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(50 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("received %d bytes, want %d", len(p.b.got), len(data))
	}
	toe := p.toeA
	var tasks uint64
	for _, f := range toe.pre.fpcs {
		tasks += f.Tasks
	}
	items := tasks - toe.RxSegs - toe.RxToControl - toe.HCOps
	died := items - toe.TxSegs
	share := float64(died) / float64(items)
	t.Logf("%d TX items scheduled, %d transmitted, %d dropped at the protocol stage (%.3f)", items, toe.TxSegs, died, share)
	if share < 0.2 {
		t.Fatalf("only %.3f of TX items die at the protocol stage: the over-scheduling this test pins is gone; flip it to share < 0.05", share)
	}
}
