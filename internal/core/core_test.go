package core

import (
	"bytes"
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// endpoint is a minimal application driving one TOE connection directly
// through the host-control interface (libTOE provides the ergonomic
// wrapper; these tests exercise the data-path contract itself).
type endpoint struct {
	t      *TOE
	conn   *Conn
	txHead uint32 // stream offset of the next byte the app appends
	txFree uint32 // free TX buffer space (maintained from DescTxFree)
	rxHead uint32 // stream offset of the next byte the app reads
	got    []byte
	sent   []byte
	finRx  bool
}

func (e *endpoint) send(data []byte) {
	e.sent = append(e.sent, data...)
	e.pump()
}

// pump appends as much pending data as fits in the TX buffer.
func (e *endpoint) pump() {
	pending := uint32(len(e.sent)) - e.txHead
	if pending == 0 {
		return
	}
	n := pending
	if n > e.txFree {
		n = e.txFree
	}
	if n == 0 {
		return
	}
	e.conn.TxBuf.WriteAt(e.txHead, e.sent[e.txHead:e.txHead+n])
	e.txHead += n
	e.txFree -= n
	e.t.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: e.conn.ID, Bytes: n})
}

func (e *endpoint) notify(d shm.Desc) {
	switch d.Kind {
	case shm.DescRxNotify:
		buf := make([]byte, d.Bytes)
		e.conn.RxBuf.ReadAt(e.rxHead, buf)
		e.rxHead += d.Bytes
		e.got = append(e.got, buf...)
		e.t.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: e.conn.ID, Bytes: d.Bytes})
	case shm.DescTxFree:
		e.txFree += d.Bytes
		e.pump()
	case shm.DescFinRx:
		e.finRx = true
	}
}

// pair wires two TOEs through a switch and installs one connection.
type pair struct {
	eng        *sim.Engine
	net        *netsim.Network
	a, b       *endpoint
	toeA, toeB *TOE
}

func newPair(t *testing.T, cfgA, cfgB Config, swCfg netsim.SwitchConfig, bufSize uint32) *pair {
	t.Helper()
	eng := sim.New()
	n := netsim.NewNetwork(eng, swCfg)
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	rate := netsim.GbpsToBytesPerSec(40)
	ifA := n.AttachHost("a", macA, rate, 100*sim.Nanosecond)
	ifB := n.AttachHost("b", macB, rate, 100*sim.Nanosecond)
	toeA := New(eng, cfgA, ifA)
	toeB := New(eng, cfgB, ifB)

	flowA := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: 1000, DstPort: 2000}
	epA := &endpoint{t: toeA, txFree: bufSize}
	epB := &endpoint{t: toeB, txFree: bufSize}
	epA.conn = toeA.AddConnection(flowA, macB, 0, 0,
		shm.NewPayloadBuf(bufSize), shm.NewPayloadBuf(bufSize), 0xA, epA.notify)
	epB.conn = toeB.AddConnection(flowA.Reverse(), macA, 0, 0,
		shm.NewPayloadBuf(bufSize), shm.NewPayloadBuf(bufSize), 0xB, epB.notify)

	return &pair{eng: eng, net: n, a: epA, b: epB, toeA: toeA, toeB: toeB}
}

func defaultPair(t *testing.T, bufSize uint32) *pair {
	return newPair(t, AgilioCX40Config(), AgilioCX40Config(), netsim.SwitchConfig{}, bufSize)
}

func testData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

func TestEndToEndSmallTransfer(t *testing.T) {
	p := defaultPair(t, 65536)
	data := testData(100)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(5 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("received %d bytes, want %d", len(p.b.got), len(data))
	}
	if p.toeB.RxSegs == 0 || p.toeA.TxSegs == 0 {
		t.Fatalf("counters: aTx=%d bRx=%d", p.toeA.TxSegs, p.toeB.RxSegs)
	}
}

func TestEndToEndMultiSegment(t *testing.T) {
	p := defaultPair(t, 65536)
	data := testData(20000) // ~14 MSS segments
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(20 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("received %d bytes, want %d", len(p.b.got), len(data))
	}
	if p.toeA.TxSegs < 14 {
		t.Fatalf("TxSegs = %d", p.toeA.TxSegs)
	}
	// FlexTOE acks every data segment (§5.2).
	if p.toeB.AcksSent < p.toeA.TxSegs {
		t.Fatalf("acks %d < data segs %d", p.toeB.AcksSent, p.toeA.TxSegs)
	}
}

func TestEndToEndLargerThanBuffers(t *testing.T) {
	// Transfer 10x the buffer size: exercises flow control, window
	// updates, and buffer wraparound continuously.
	p := defaultPair(t, 8192)
	data := testData(80000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("received %d bytes, want %d", len(p.b.got), len(data))
	}
}

func TestEndToEndBidirectional(t *testing.T) {
	p := defaultPair(t, 32768)
	dataA := testData(30000)
	dataB := testData(25000)
	p.eng.AfterCall(0, func(any) {
		p.a.send(dataA)
		p.b.send(dataB)
	}, nil)
	p.eng.RunUntil(50 * sim.Millisecond)
	if !bytes.Equal(p.b.got, dataA) {
		t.Fatalf("a->b: %d/%d", len(p.b.got), len(dataA))
	}
	if !bytes.Equal(p.a.got, dataB) {
		t.Fatalf("b->a: %d/%d", len(p.a.got), len(dataB))
	}
}

func TestEndToEndPingPong(t *testing.T) {
	// RPC-style: b echoes whatever it receives; a sends 50 requests.
	p := defaultPair(t, 65536)
	const msg = 64
	const rounds = 50
	recvB := 0
	origNotifyB := p.b.notify
	p.b.conn.Notify = func(d shm.Desc) {
		origNotifyB(d)
		if d.Kind == shm.DescRxNotify {
			recvB += int(d.Bytes)
			for recvB >= msg {
				recvB -= msg
				p.b.send(testData(msg)) // echo
			}
		}
	}
	sentRounds := 1
	recvA := 0
	origNotifyA := p.a.notify
	p.a.conn.Notify = func(d shm.Desc) {
		origNotifyA(d)
		if d.Kind == shm.DescRxNotify {
			recvA += int(d.Bytes)
			for recvA >= msg && sentRounds < rounds {
				recvA -= msg
				sentRounds++
				p.a.send(testData(msg))
			}
		}
	}
	p.eng.AfterCall(0, func(any) { p.a.send(testData(msg)) }, nil)
	p.eng.RunUntil(50 * sim.Millisecond)
	if len(p.a.got) != rounds*msg {
		t.Fatalf("a received %d bytes, want %d", len(p.a.got), rounds*msg)
	}
}

func TestFINTeardown(t *testing.T) {
	p := defaultPair(t, 16384)
	data := testData(500)
	p.eng.AfterCall(0, func(any) {
		p.a.send(data)
	}, nil)
	p.eng.AfterCall(2*sim.Millisecond, func(any) {
		p.a.t.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: p.a.conn.ID})
	}, nil)
	p.eng.RunUntil(10 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("data lost: %d/%d", len(p.b.got), len(data))
	}
	if !p.b.finRx {
		t.Fatal("peer FIN not delivered")
	}
	if !p.a.conn.Proto.FinAcked() {
		t.Fatal("FIN not acknowledged")
	}
}

func TestSegPoolConserved(t *testing.T) {
	p := defaultPair(t, 32768)
	data := testData(50000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(60 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
	// Every pool of both TOEs has had back all it lent once idle.
	if err := p.eng.Unreturned(); err != nil {
		t.Fatal(err)
	}
}

func TestRetransmitAfterLossViaHC(t *testing.T) {
	// Drop heavily for the first 2ms, then repair; control-plane-style
	// retransmit HC recovers the stream.
	p := newPair(t, AgilioCX40Config(), AgilioCX40Config(),
		netsim.SwitchConfig{LossProb: 0.3, Seed: 5}, 32768)
	data := testData(30000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	// Simple RTO loop: fire a go-back-N reset every 3ms if b hasn't
	// finished (the real control plane runs this per connection).
	for i := 1; i <= 100; i++ {
		at := sim.Time(i) * 3 * sim.Millisecond
		p.eng.AfterCall(at, func(any) {
			if len(p.b.got) < len(data) {
				if at > 12*sim.Millisecond {
					p.net.Switch.Cfg.LossProb = 0 // network heals
				}
				p.a.t.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.a.conn.ID})
			}
		}, nil)
	}
	p.eng.RunUntil(400 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("stream not recovered: %d/%d", len(p.b.got), len(data))
	}
}

func TestProtocolAdmissionInOrder(t *testing.T) {
	// The §3.2 invariant: despite replicated pre-processing with variable
	// lookup stalls, segments reach each protocol worker in ticket order.
	p := defaultPair(t, 65536)
	var lastTicket = map[int]uint64{}
	violations := 0
	for _, isl := range p.toeB.islands {
		isl := isl
		orig := isl.entry.out
		isl.entry.out = func(s *segItem) {
			if last, ok := lastTicket[isl.fg]; ok && s.ticket != last+1 {
				violations++
			}
			lastTicket[isl.fg] = s.ticket
			orig(s)
		}
	}
	data := testData(40000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(50 * sim.Millisecond)
	if violations > 0 {
		t.Fatalf("%d protocol admission order violations", violations)
	}
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
}

func TestReorderBufferExercised(t *testing.T) {
	// With replication and cache-dependent stalls, some segments must
	// actually arrive out of order at the ROB (otherwise §3.2's machinery
	// is dead code in the model).
	cfg := AgilioCX40Config()
	cfg.PreRepl = 4
	p := newPair(t, cfg, cfg, netsim.SwitchConfig{}, 65536)
	data := testData(200000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
	var holds uint64
	for _, isl := range append(p.toeA.islands, p.toeB.islands...) {
		holds += isl.entry.Holds + isl.nbi.Holds
	}
	if holds == 0 {
		t.Log("warning: no reordering observed; ROB not exercised in this run")
	}
}

func TestRunToCompletionMode(t *testing.T) {
	cfg := AgilioCX40Config()
	cfg.RunToCompletion = true
	cfg.ThreadsPerFPC = 1
	p := newPair(t, cfg, cfg, netsim.SwitchConfig{}, 32768)
	data := testData(10000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("mono transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
	if err := p.eng.Unreturned(); err != nil {
		t.Fatal(err)
	}
}

func TestRunToCompletionSlowerThanPipeline(t *testing.T) {
	transferTime := func(cfg Config) sim.Time {
		p := newPair(t, cfg, AgilioCX40Config(), netsim.SwitchConfig{}, 65536)
		data := testData(100000)
		var doneAt sim.Time
		orig := p.b.notify
		p.b.conn.Notify = func(d shm.Desc) {
			orig(d)
			if len(p.b.got) >= len(data) && doneAt == 0 {
				doneAt = p.eng.Now()
			}
		}
		p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
		p.eng.RunUntil(2 * sim.Second)
		if !bytes.Equal(p.b.got, data) {
			t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
		}
		return doneAt
	}
	mono := AgilioCX40Config()
	mono.RunToCompletion = true
	mono.ThreadsPerFPC = 1
	tMono := transferTime(mono)
	tPipe := transferTime(AgilioCX40Config())
	if tPipe*2 >= tMono {
		t.Fatalf("pipeline (%v) not meaningfully faster than run-to-completion (%v)", tPipe, tMono)
	}
}

// TestRunToCompletionMatchesPipeline: the run-to-completion ablation is a
// cost model over the pipeline's own per-segment decisions, so a lossless
// transfer and close must deliver the same bytes and both FINs under
// either, with the same segment, ACK, notification and host-control
// counts on each side. When the ablation kept its own copy of that logic,
// its sender counted 0 notifications to the pipeline's 21 and its FIN,
// requested after the send buffer drained, never left.
func TestRunToCompletionMatchesPipeline(t *testing.T) {
	type outcome struct {
		got        []byte
		finA, finB bool
		ctrA, ctrB Counters
	}
	const bufSize = 65536
	data := testData(30000)
	run := func(cfg Config) outcome {
		p := newPair(t, cfg, cfg, netsim.SwitchConfig{}, bufSize)
		p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
		drained := func() bool { return len(p.b.got) == len(data) && p.a.txFree == bufSize }
		for i := 0; !drained(); i++ {
			if i > 100 {
				t.Fatalf("transfer incomplete: %d/%d", len(p.b.got), len(data))
			}
			p.eng.RunUntil(p.eng.Now() + sim.Millisecond)
		}
		p.eng.RunUntil(p.eng.Now() + sim.Millisecond)
		p.a.t.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: p.a.conn.ID})
		p.b.t.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: p.b.conn.ID})
		p.eng.RunUntil(p.eng.Now() + 20*sim.Millisecond)
		if err := p.eng.Unreturned(); err != nil {
			t.Fatal(err)
		}
		return outcome{p.b.got, p.a.finRx, p.b.finRx, p.toeA.Counters, p.toeB.Counters}
	}
	mono := AgilioCX40Config()
	mono.RunToCompletion = true
	mono.ThreadsPerFPC = 1
	pipe, rtc := run(AgilioCX40Config()), run(mono)
	for _, o := range []outcome{pipe, rtc} {
		if !bytes.Equal(o.got, data) {
			t.Fatalf("delivered %d bytes, want %d", len(o.got), len(data))
		}
	}
	if !rtc.finA || !rtc.finB || !pipe.finA || !pipe.finB {
		t.Errorf("FINs delivered to a, b: pipeline %v, %v; run-to-completion %v, %v",
			pipe.finA, pipe.finB, rtc.finA, rtc.finB)
	}
	for _, side := range []struct {
		name     string
		pipe, rc *Counters
	}{{"sender", &pipe.ctrA, &rtc.ctrA}, {"receiver", &pipe.ctrB, &rtc.ctrB}} {
		for _, c := range []struct {
			name     string
			pipe, rc uint64
		}{
			{"TxSegs", side.pipe.TxSegs, side.rc.TxSegs},
			{"RxSegs", side.pipe.RxSegs, side.rc.RxSegs},
			{"AcksSent", side.pipe.AcksSent, side.rc.AcksSent},
			{"Notifies", side.pipe.Notifies, side.rc.Notifies},
			{"HCOps", side.pipe.HCOps, side.rc.HCOps},
		} {
			if c.pipe != c.rc {
				t.Errorf("%s %s: pipeline %d, run-to-completion %d", side.name, c.name, c.pipe, c.rc)
			}
		}
	}
}

func TestX86PortTransfers(t *testing.T) {
	p := newPair(t, X86Config(true), X86Config(true), netsim.SwitchConfig{}, 65536)
	data := testData(50000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(100 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("x86 port transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
}

func TestBlueFieldPortTransfers(t *testing.T) {
	p := newPair(t, BlueFieldConfig(false), BlueFieldConfig(false), netsim.SwitchConfig{}, 65536)
	data := testData(30000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(200 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("BlueField port transfer incomplete: %d/%d", len(p.b.got), len(data))
	}
}

func TestConnStatsPoll(t *testing.T) {
	p := defaultPair(t, 32768)
	data := testData(20000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(30 * sim.Millisecond)
	st := p.toeA.ReadStats(p.a.conn.ID)
	if st.AckedBytes == 0 {
		t.Fatal("no acked bytes recorded")
	}
	// Counters clear on read (§D: per-RTT control-plane poll).
	st2 := p.toeA.ReadStats(p.a.conn.ID)
	if st2.AckedBytes != 0 {
		t.Fatalf("stats not cleared: %+v", st2)
	}
}

func TestRemoveConnectionStopsTraffic(t *testing.T) {
	p := defaultPair(t, 32768)
	data := testData(500000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.AfterCall(5*sim.Microsecond, func(any) {
		p.toeB.RemoveConnection(p.b.conn.ID)
	}, nil)
	p.eng.RunUntil(30 * sim.Millisecond)
	if len(p.b.got) >= len(data) {
		t.Fatal("transfer completed despite removal")
	}
	// Segments for the removed connection go to the control plane.
	if p.toeB.RxToControl == 0 {
		t.Fatal("no segments redirected to control plane after removal")
	}
}

func runLossyTransfer(t *testing.T, oooIntervals int, seed uint64) *pair {
	t.Helper()
	cfg := AgilioCX40Config()
	cfg.OOOIntervals = oooIntervals
	p := newPair(t, cfg, cfg, netsim.SwitchConfig{LossProb: 0.25, Seed: seed}, 32768)
	data := testData(30000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	for i := 1; i <= 150; i++ {
		at := sim.Time(i) * 3 * sim.Millisecond
		p.eng.AfterCall(at, func(any) {
			if len(p.b.got) < len(data) {
				if at > 12*sim.Millisecond {
					p.net.Switch.Cfg.LossProb = 0 // network heals
				}
				p.a.t.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.a.conn.ID})
			}
		}, nil)
	}
	p.eng.RunUntil(500 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("stream not recovered: %d/%d", len(p.b.got), len(data))
	}
	return p
}

func TestMultiIntervalReassemblyUnderLoss(t *testing.T) {
	// N=1 (the paper's configuration): loss-induced holes produce OOO
	// accepts and, with a single interval, disjoint drops. DropsAvoided
	// must be structurally impossible.
	p1 := runLossyTransfer(t, 1, 7)
	if p1.toeB.OOOAccepted == 0 {
		t.Fatal("no OOO segments under 25% loss")
	}
	if p1.toeB.OOODropsAvoided != 0 {
		t.Fatalf("N=1 cannot avoid drops: %d", p1.toeB.OOODropsAvoided)
	}
	if p1.toeB.OOOOccupancy.MaxSeen() > 1 {
		t.Fatalf("N=1 occupancy reached %d", p1.toeB.OOOOccupancy.MaxSeen())
	}

	// N=4: same loss process; multiple concurrent holes are tracked and
	// the occupancy histogram sees deeper sets.
	p4 := runLossyTransfer(t, 4, 7)
	if p4.toeB.OOOAccepted == 0 || p4.toeB.OOOOccupancy.Count() == 0 {
		t.Fatal("no OOO activity recorded")
	}
	if p4.toeB.OOOOccupancy.MaxSeen() < 2 {
		t.Fatal("N=4 never tracked more than one interval")
	}
	if p4.toeB.OOODropsAvoided == 0 {
		t.Fatal("N=4 avoided no drops under this loss pattern")
	}
	if p4.toeB.OOOMerges == 0 {
		t.Fatal("no interval merges recorded")
	}
}

func TestOOOIntervalConfigClamped(t *testing.T) {
	cfg := AgilioCX40Config()
	cfg.OOOIntervals = 100
	cfg.Validate()
	if cfg.OOOIntervals != tcpseg.MaxOOOIntervals {
		t.Fatalf("OOOIntervals not clamped: %d", cfg.OOOIntervals)
	}
	var zero Config
	zero.Validate()
	if zero.OOOIntervals != 1 {
		t.Fatalf("default OOOIntervals = %d, want 1", zero.OOOIntervals)
	}
}

// TestSteeringWidthsArePowersOfTwo: flow groups, protocol workers and
// context-queue FPCs are picked with a mask, so Validate refuses a width
// that is not a power of two and accepts every preset (1, 2 or 4).
func TestSteeringWidthsArePowersOfTwo(t *testing.T) {
	for _, cfg := range []Config{AgilioCX40Config(), X86Config(false), X86Config(true), BlueFieldConfig(true), {}} {
		cfg.Validate()
	}
	for _, set := range []func(*Config){
		func(c *Config) { c.FlowGroups = 3 },
		func(c *Config) { c.ProtoRepl = 3 },
		func(c *Config) { c.CtxRepl = 6 },
	} {
		cfg := AgilioCX40Config()
		set(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Validate accepted FlowGroups %d, ProtoRepl %d, CtxRepl %d", cfg.FlowGroups, cfg.ProtoRepl, cfg.CtxRepl)
				}
			}()
			cfg.Validate()
		}()
	}
}
