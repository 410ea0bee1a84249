package core

import (
	"bytes"
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// txItems returns the TX items a TOE's pump has issued, from counters the
// TOE keeps anyway: at quiescence the pre-processing FPCs have run one
// task per item, so the TX items are the pre tasks less RxSegs,
// RxToControl and HCOps.
func txItems(toe *TOE) uint64 {
	var tasks uint64
	for _, f := range toe.pre.fpcs {
		tasks += f.Tasks
	}
	return tasks - toe.RxSegs - toe.RxToControl - toe.HCOps
}

// txDebitSettled fails unless, at quiescence, no TX item is in flight and
// every live connection's reservation is back to zero: each item released
// at the protocol stage exactly what the pump debited for it.
func txDebitSettled(t *testing.T, toes ...*TOE) {
	t.Helper()
	for _, toe := range toes {
		if n := toe.TxInflight(); n != 0 {
			t.Errorf("%s: %d TX items in flight at quiescence", toe.iface.Name, n)
		}
		for id := uint32(0); id < toe.connTop; id++ {
			if c := toe.connOrNil(id); c != nil && c.txSched != 0 {
				t.Errorf("%s: conn %d still reserves %d B at quiescence", toe.iface.Name, id, c.txSched)
			}
		}
	}
}

// TestTXOverScheduling holds the flow scheduler to debiting what it
// schedules (ROADMAP item 25): the transmit pump issues an item only for
// sendable bytes no item in flight already covers, and rxPost submits a
// flow only when its ACK opened the window past them. A scheduler that
// read the ProtoState the items in flight have not advanced handed one
// window out several times, and the protocol stage dropped the surplus
// ("Window closed between scheduling and protocol"): 0.655 of the items on
// this transfer. The share that dies there must stay below 0.05.
func TestTXOverScheduling(t *testing.T) {
	p := defaultPair(t, 65536)
	data := testData(500_000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(50 * sim.Millisecond)
	txDebitSettled(t, p.toeA, p.toeB)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("received %d bytes, want %d", len(p.b.got), len(data))
	}
	toe := p.toeA
	items := txItems(toe)
	died := items - toe.TxSegs
	share := float64(died) / float64(items)
	t.Logf("%d TX items scheduled, %d transmitted, %d dropped at the protocol stage (%.3f)", items, toe.TxSegs, died, share)
	if share >= 0.05 {
		t.Fatalf("%.3f of TX items die at the protocol stage: the scheduler hands out windows the items in flight already hold", share)
	}
}

// TestTXDebitConserved checks the reservation balances where the window
// moves under the items in flight: a lossy SACK transfer, whose fast
// retransmits queue bytes and whose go-back-N rewinds (the control plane's
// RTO) reopen sent ones; a lossy close, whose FIN lands while a selective
// retransmit holds the flow; and a close, whose bare FIN holds the flow so
// it is scheduled once even when a retransmit request lands while the FIN
// is in the pipeline.
func TestTXDebitConserved(t *testing.T) {
	t.Run("lossy-sack", func(t *testing.T) {
		cfg := AgilioCX40Config()
		cfg.OOOIntervals = 4
		p := newPair(t, cfg, cfg, netsim.SwitchConfig{LossProb: 0.05, Seed: 11}, 32768)
		p.a.conn.Proto.SetSACKPerm(true)
		p.b.conn.Proto.SetSACKPerm(true)
		data := testData(300_000)
		p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
		for i := 1; i <= 150; i++ {
			at := sim.Time(i) * 2 * sim.Millisecond
			p.eng.AfterCall(at, func(any) {
				if len(p.b.got) < len(data) {
					if at > 40*sim.Millisecond {
						p.net.Switch.Cfg.LossProb = 0 // network heals
					}
					p.a.t.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.a.conn.ID})
				}
			}, nil)
		}
		p.eng.RunUntil(500 * sim.Millisecond)
		txDebitSettled(t, p.toeA, p.toeB)
		if !bytes.Equal(p.b.got, data) {
			t.Fatalf("stream not recovered: %d/%d", len(p.b.got), len(data))
		}
		toe := p.toeA
		t.Logf("%d TX items, %d sent, %d fast retransmits (%d selective), %d B re-sent",
			txItems(toe), toe.TxSegs, toe.FastRetx, toe.SACKRetx, toe.RetxBytes)
		if toe.SACKRetx == 0 || toe.RetxBytes == 0 {
			t.Fatalf("no selective retransmit (%d) or no re-sent bytes (%d): the run does not move the window under the items", toe.SACKRetx, toe.RetxBytes)
		}
	})
	// A FIN posted while a selective retransmit holds the flow: the
	// retransmit item never carries the FIN, so the FIN's sequence slot
	// must stay unreserved or nothing schedules it once the item has
	// sent. The retransmit requests follow the control plane's RTO, armed
	// only while bytes or a FIN are outstanding, so a FIN never sent is
	// never recovered. The sweep of close times puts the FIN's descriptor
	// into the pipeline around a fast retransmit on this seed.
	t.Run("fin-behind-retransmit", func(t *testing.T) {
		for k := 30; k <= 50; k++ {
			cfg := AgilioCX40Config()
			cfg.OOOIntervals = 4
			p := newPair(t, cfg, cfg, netsim.SwitchConfig{LossProb: 0.1, Seed: 5}, 32768)
			p.a.conn.Proto.SetSACKPerm(true)
			p.b.conn.Proto.SetSACKPerm(true)
			data := testData(20_000)
			p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
			p.eng.AfterCall(sim.Time(k)*250*sim.Nanosecond, func(any) {
				p.a.t.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: p.a.conn.ID})
			}, nil)
			for i := 1; i <= 100; i++ {
				p.eng.AfterCall(sim.Time(i)*500*sim.Microsecond, func(any) {
					if pr := &p.a.conn.Proto; pr.TxSent > 0 || (pr.FinSent() && !pr.FinAcked()) {
						p.a.t.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.a.conn.ID})
					}
				}, nil)
			}
			p.eng.RunUntil(60 * sim.Millisecond)
			txDebitSettled(t, p.toeA, p.toeB)
			if pr := &p.a.conn.Proto; !bytes.Equal(p.b.got, data) || !p.b.finRx || !pr.FinAcked() {
				t.Fatalf("close at %d ns: %d/%d B, FIN pending %v, delivered %v, acked %v",
					k*250, len(p.b.got), len(data), pr.FinPending(), p.b.finRx, pr.FinAcked())
			}
		}
	})
	t.Run("close", func(t *testing.T) {
		p := defaultPair(t, 16384)
		data := testData(3000)
		p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
		p.eng.AfterCall(2*sim.Millisecond, func(any) {
			p.a.t.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: p.a.conn.ID})
			p.a.t.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.a.conn.ID})
		}, nil)
		p.eng.RunUntil(10 * sim.Millisecond)
		txDebitSettled(t, p.toeA, p.toeB)
		if !bytes.Equal(p.b.got, data) || !p.b.finRx || !p.a.conn.Proto.FinAcked() {
			t.Fatalf("close incomplete: %d/%d B, FIN delivered %v, acked %v",
				len(p.b.got), len(data), p.b.finRx, p.a.conn.Proto.FinAcked())
		}
		toe := p.toeA
		// Three data segments, then the bare FIN once.
		if items := txItems(toe); items != 4 || toe.TxSegs != 4 {
			t.Fatalf("%d TX items scheduled, %d sent; want 4 and 4 (the FIN once)", items, toe.TxSegs)
		}
	})
}
