package core

import (
	"bytes"
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// TestWireOrderPerConnection verifies §3.2's end guarantee: despite
// replicated pipeline stages with variable latencies, the segments of one
// connection leave the NBI in non-decreasing sequence order (barring
// retransmissions, absent here). This is exactly the property the
// per-flow-group NBI reorder buffer exists to enforce — Fig. 7's
// "undesirable pipeline reordering" made impossible.
func TestWireOrderPerConnection(t *testing.T) {
	cfg := AgilioCX40Config()
	cfg.PreRepl = 4 // more replication = more opportunity to reorder
	cfg.PostRepl = 4
	p := newPair(t, cfg, cfg, netsim.SwitchConfig{}, 65536)

	lastSeq := map[packet.Flow]uint32{}
	violations := 0
	p.toeA.PacketTap = func(dir string, pkt *packet.Packet) {
		if dir != "tx" || len(pkt.Payload) == 0 {
			return
		}
		fl := pkt.Flow()
		if last, ok := lastSeq[fl]; ok && tcpseg.SeqLT(pkt.TCP.Seq, last) {
			violations++
		}
		lastSeq[fl] = pkt.TCP.Seq
	}

	data := testData(300000)
	p.eng.AtCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
	if violations > 0 {
		t.Fatalf("%d wire-order violations (NBI reorder buffer failed)", violations)
	}
}

// TestAckPrecedesLaterData checks Fig. 7's third hazard: an ACK generated
// for received data must reach the wire before any data segment the
// protocol stage produced afterwards (per flow group). We verify the
// consequence: the peer never observes our cumulative ack field going
// backwards on the wire.
func TestAckPrecedesLaterData(t *testing.T) {
	p := defaultPair(t, 65536)
	lastAck := map[packet.Flow]uint32{}
	violations := 0
	p.toeB.PacketTap = func(dir string, pkt *packet.Packet) {
		if dir != "tx" {
			return
		}
		fl := pkt.Flow()
		if last, ok := lastAck[fl]; ok && tcpseg.SeqLT(pkt.TCP.Ack, last) {
			violations++
		}
		lastAck[fl] = pkt.TCP.Ack
	}
	// Bidirectional traffic maximizes interleaving of acks and data.
	dataA := testData(100000)
	dataB := testData(100000)
	p.eng.AtCall(0, func(any) {
		p.a.send(dataA)
		p.b.send(dataB)
	}, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, dataA) || !bytes.Equal(p.a.got, dataB) {
		t.Fatalf("transfers incomplete: %d/%d and %d/%d",
			len(p.b.got), len(dataA), len(p.a.got), len(dataB))
	}
	if violations > 0 {
		t.Fatalf("%d ack-regression violations on the wire", violations)
	}
}

// TestTicketAccountingBalances verifies that every NBI ticket issued is
// eventually released or skipped — the deadlock-freedom invariant of the
// reorder buffers.
func TestTicketAccountingBalances(t *testing.T) {
	p := defaultPair(t, 32768)
	data := testData(150000)
	p.eng.AtCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
	for _, toe := range []*TOE{p.toeA, p.toeB} {
		for _, isl := range toe.islands {
			if n := isl.entry.pendingHeld(); n != 0 {
				t.Errorf("fg%d entry ROB holds %d segments at quiescence", isl.fg, n)
			}
			if n := isl.nbi.pendingHeld(); n != 0 {
				t.Errorf("fg%d NBI ROB holds %d segments at quiescence", isl.fg, n)
			}
		}
	}
}
