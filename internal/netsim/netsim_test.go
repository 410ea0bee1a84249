package netsim

import (
	"reflect"
	"sync"
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

func testPacket(src, dst packet.EtherAddr, payload int) *packet.Packet {
	return &packet.Packet{
		Eth: packet.Ethernet{Src: src, Dst: dst, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoTCP,
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(10, 0, 0, 2),
			TOS: packet.ECNECT0,
		},
		TCP:     packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, WScale: -1},
		Payload: make([]byte, payload),
	}
}

func buildNet(t *testing.T, cfg SwitchConfig) (*sim.Engine, *Network, *Iface, *Iface) {
	t.Helper()
	eng := sim.New()
	n := NewNetwork(eng, cfg)
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	a := n.AttachHost("a", macA, GbpsToBytesPerSec(40), 100*sim.Nanosecond)
	b := n.AttachHost("b", macB, GbpsToBytesPerSec(40), 100*sim.Nanosecond)
	return eng, n, a, b
}

func TestDelivery(t *testing.T) {
	eng, _, a, b := buildNet(t, SwitchConfig{})
	var got *Frame
	var at sim.Time
	b.Recv = func(f *Frame) { got = f; at = eng.Now() }
	pkt := testPacket(a.MAC, b.MAC, 1000)
	eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	eng.Run()
	if got == nil {
		t.Fatal("frame not delivered")
	}
	// Latency = serialization at both hops + 2 props + switch latency.
	wire := float64(got.Wire)
	serial := sim.Time(wire / GbpsToBytesPerSec(40) * 1e12)
	want := 2*serial + 2*100*sim.Nanosecond + 600*sim.Nanosecond
	if at < want-2 || at > want+2 {
		t.Fatalf("delivery at %v, want ~%v", at, want)
	}
}

// TestConnectRefusesTwoEngines: a link's delivery is scheduled on the
// sender's engine, so joining interfaces of two engines must panic
// before either end is wired.
func TestConnectRefusesTwoEngines(t *testing.T) {
	a := NewIface(sim.New(), "a", packet.MAC(2, 0, 0, 0, 0, 1), GbpsToBytesPerSec(40))
	b := NewIface(sim.New(), "b", packet.MAC(2, 0, 0, 0, 0, 2), GbpsToBytesPerSec(40))
	defer func() {
		if recover() == nil {
			t.Fatal("Connect joined interfaces on two engines")
		}
		if a.peer != nil || b.peer != nil {
			t.Fatal("Connect wired a peer before refusing")
		}
	}()
	Connect(a, b, 100*sim.Nanosecond)
}

func TestUnknownMACDropped(t *testing.T) {
	eng, n, a, b := buildNet(t, SwitchConfig{})
	delivered := false
	b.Recv = func(f *Frame) { delivered = true }
	pkt := testPacket(a.MAC, packet.MAC(9, 9, 9, 9, 9, 9), 100)
	eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	eng.Run()
	if delivered {
		t.Fatal("frame to unknown MAC delivered")
	}
	if n.Switch.Flooded != 1 {
		t.Fatalf("flooded = %d", n.Switch.Flooded)
	}
}

func TestLossInjection(t *testing.T) {
	eng, n, a, b := buildNet(t, SwitchConfig{LossProb: 0.5, Seed: 42})
	received := 0
	b.Recv = func(f *Frame) { received++ }
	const total = 2000
	for i := 0; i < total; i++ {
		pkt := testPacket(a.MAC, b.MAC, 64)
		at := sim.Time(i) * sim.Microsecond
		eng.AtCall(at, func(any) { a.Send(NewFrame(pkt, at)) }, nil)
	}
	eng.Run()
	if received < total*40/100 || received > total*60/100 {
		t.Fatalf("received %d/%d with 50%% loss", received, total)
	}
	if n.Switch.LossDrops+uint64(received) != total {
		t.Fatalf("drops %d + received %d != %d", n.Switch.LossDrops, received, total)
	}
}

func TestECNMarking(t *testing.T) {
	// Slow egress port so the queue builds; frames above threshold get CE.
	eng := sim.New()
	n := NewNetwork(eng, SwitchConfig{ECNThresholdBytes: 3000})
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	a := n.AttachHost("a", macA, GbpsToBytesPerSec(40), 100*sim.Nanosecond)
	b := n.AttachHost("b", macB, GbpsToBytesPerSec(0.1), 100*sim.Nanosecond)
	var marked, unmarked int
	b.Recv = func(f *Frame) {
		if f.Pkt.IP.ECN() == packet.ECNCE {
			marked++
		} else {
			unmarked++
		}
	}
	for i := 0; i < 20; i++ {
		pkt := testPacket(a.MAC, b.MAC, 1400)
		eng.AtCall(sim.Time(i)*sim.Microsecond, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	}
	eng.Run()
	if marked == 0 {
		t.Fatal("no CE marks despite queue buildup")
	}
	if unmarked == 0 {
		t.Fatal("every frame marked; first frames should pass unmarked")
	}
	if n.Switch.ECNMarks != uint64(marked) {
		t.Fatalf("switch counted %d marks, delivered %d", n.Switch.ECNMarks, marked)
	}
}

func TestNotECTNeverMarked(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng, SwitchConfig{ECNThresholdBytes: 1000})
	a := n.AttachHost("a", packet.MAC(2, 0, 0, 0, 0, 1), GbpsToBytesPerSec(40), 0)
	b := n.AttachHost("b", packet.MAC(2, 0, 0, 0, 0, 2), GbpsToBytesPerSec(0.05), 0)
	marked := 0
	b.Recv = func(f *Frame) {
		if f.Pkt.IP.ECN() == packet.ECNCE {
			marked++
		}
	}
	for i := 0; i < 10; i++ {
		pkt := testPacket(a.MAC, b.MAC, 1400)
		pkt.IP.SetECN(packet.ECNNotECT)
		eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	}
	eng.Run()
	if marked != 0 {
		t.Fatalf("%d Not-ECT frames marked", marked)
	}
}

func TestTailDrop(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng, SwitchConfig{QueueCapBytes: 4000})
	a := n.AttachHost("a", packet.MAC(2, 0, 0, 0, 0, 1), GbpsToBytesPerSec(40), 0)
	b := n.AttachHost("b", packet.MAC(2, 0, 0, 0, 0, 2), GbpsToBytesPerSec(0.01), 0)
	received := 0
	b.Recv = func(f *Frame) { received++ }
	for i := 0; i < 50; i++ {
		pkt := testPacket(a.MAC, b.MAC, 1400)
		eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	}
	eng.RunUntil(10 * sim.Millisecond)
	if n.Switch.QueueDrops == 0 {
		t.Fatal("no tail drops despite tiny queue")
	}
	if received+int(n.Switch.QueueDrops) != 50 {
		t.Fatalf("received %d + drops %d != 50", received, n.Switch.QueueDrops)
	}
}

func TestWREDDropsRise(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng, SwitchConfig{
		WREDMinBytes: 2000, WREDMaxBytes: 8000, WREDMaxProb: 1.0, Seed: 7,
	})
	a := n.AttachHost("a", packet.MAC(2, 0, 0, 0, 0, 1), GbpsToBytesPerSec(40), 0)
	b := n.AttachHost("b", packet.MAC(2, 0, 0, 0, 0, 2), GbpsToBytesPerSec(0.01), 0)
	b.Recv = func(f *Frame) {}
	for i := 0; i < 100; i++ {
		pkt := testPacket(a.MAC, b.MAC, 1400)
		eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	}
	eng.RunUntil(100 * sim.Millisecond)
	if n.Switch.WREDDrops == 0 {
		t.Fatal("WRED never dropped")
	}
}

func TestPortShaping(t *testing.T) {
	eng, n, a, b := buildNet(t, SwitchConfig{})
	var last sim.Time
	count := 0
	b.Recv = func(f *Frame) { last = eng.Now(); count++ }
	// Shape the egress toward b down to 1 Gbps.
	n.ShapePort("b", GbpsToBytesPerSec(1))
	const frames = 100
	for i := 0; i < frames; i++ {
		pkt := testPacket(a.MAC, b.MAC, 1400)
		eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	}
	eng.Run()
	if count != frames {
		t.Fatalf("delivered %d/%d", count, frames)
	}
	// ~100 frames * ~1462B at 1 Gbps ≈ 1.17 ms.
	wire := testPacket(a.MAC, b.MAC, 1400).WireLen()
	expect := sim.Time(float64(frames*wire) / GbpsToBytesPerSec(1) * 1e12)
	if last < expect*9/10 {
		t.Fatalf("finished at %v, expected >= %v (shaping not applied)", last, expect)
	}
}

// TestSetRateKeepsLinkFIFO: a rate change keeps what the serializer has
// booked. Two frames go out back to back with a 100x rate increase between
// them; the second queues behind the first and is delivered after it (a
// link's delivery instants are strictly increasing, which sim's
// same-instant order relies on), and the change takes no owner rank.
func TestSetRateKeepsLinkFIFO(t *testing.T) {
	eng := sim.New()
	a := NewIface(eng, "a", packet.MAC(2, 0, 0, 0, 0, 1), GbpsToBytesPerSec(1))
	b := NewIface(eng, "b", packet.MAC(2, 0, 0, 0, 0, 2), GbpsToBytesPerSec(1))
	Connect(a, b, 100*sim.Nanosecond)
	var seqs []uint32
	var at []sim.Time
	b.Recv = func(f *Frame) { seqs, at = append(seqs, f.Pkt.TCP.Seq), append(at, eng.Now()) }
	send := func(seq uint32) {
		pkt := testPacket(a.MAC, b.MAC, 1400)
		pkt.TCP.Seq = seq
		a.Send(NewFrame(pkt, 0))
	}
	rank := eng.NewLinkID()
	send(1)
	a.SetRate(GbpsToBytesPerSec(100))
	send(2)
	if next := eng.NewLinkID(); next != rank+1 {
		t.Errorf("SetRate took %d owner ranks, want none", next-rank-1)
	}
	eng.Run()
	if !reflect.DeepEqual(seqs, []uint32{1, 2}) {
		t.Fatalf("delivery order %v at %v, want [1 2]", seqs, at)
	}
	wire := float64(testPacket(a.MAC, b.MAC, 1400).WireLen())
	first := sim.Time(wire / GbpsToBytesPerSec(1) * 1e12)
	second := first + sim.Time(wire/GbpsToBytesPerSec(100)*1e12)
	if at[0] != first+100*sim.Nanosecond || at[1] != second+100*sim.Nanosecond {
		t.Errorf("delivered at %v, want %v and %v after the 100 ns link", at, first, second)
	}
	if u := a.tx.Utilization(); u < 0.99 || u > 1 {
		t.Errorf("serializer utilization %v over a back-to-back run, want ~1", u)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	eng, _, a, b := buildNet(t, SwitchConfig{})
	var seqs []uint32
	b.Recv = func(f *Frame) { seqs = append(seqs, f.Pkt.TCP.Seq) }
	for i := 0; i < 100; i++ {
		pkt := testPacket(a.MAC, b.MAC, 200)
		pkt.TCP.Seq = uint32(i)
		eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	}
	eng.Run()
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("frames reordered by fabric: %v", seqs)
		}
	}
}

// sendSpaced schedules frames 2 us apart so each forward decision sees
// the previous frame's queue contribution (the 600 ns crossbar transit
// must complete before the next frame is classified).
func sendSpaced(eng *sim.Engine, a *Iface, pkts []*packet.Packet) {
	for i, pkt := range pkts {
		p := pkt
		eng.AtCall(sim.Time(i)*2*sim.Microsecond, func(any) { a.Send(NewFrame(p, 0)) }, nil)
	}
}

// slowSinkNet builds a fast ingress into a crawling egress so the egress
// queue holds exactly the accepted frames for the whole test window.
func slowSinkNet(cfg SwitchConfig) (*sim.Engine, *Network, *Iface, *Iface) {
	eng := sim.New()
	n := NewNetwork(eng, cfg)
	a := n.AttachHost("a", packet.MAC(2, 0, 0, 0, 0, 1), GbpsToBytesPerSec(40), 0)
	b := n.AttachHost("b", packet.MAC(2, 0, 0, 0, 0, 2), GbpsToBytesPerSec(0.01), 0)
	b.Recv = func(f *Frame) { ReleaseFrame(f) }
	return eng, n, a, b
}

// TestECNMarkBoundaryExact pins the marking rule at the threshold: a
// frame whose enqueue brings the queue to exactly ECNThresholdBytes is
// NOT marked; one byte beyond is. With equal-size frames and K = 3 wire
// lengths, frames 1-3 pass clean and every later frame is marked.
func TestECNMarkBoundaryExact(t *testing.T) {
	wire := testPacket(packet.MAC(0, 0, 0, 0, 0, 0), packet.MAC(0, 0, 0, 0, 0, 0), 1400).WireLen()
	eng, n, a, _ := slowSinkNet(SwitchConfig{ECNThresholdBytes: 3 * wire})
	var pkts []*packet.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, testPacket(a.MAC, packet.MAC(2, 0, 0, 0, 0, 2), 1400))
	}
	sendSpaced(eng, a, pkts)
	eng.RunUntil(20 * sim.Microsecond)
	for i, pkt := range pkts {
		marked := pkt.IP.ECN() == packet.ECNCE
		if i < 3 && marked {
			t.Fatalf("frame %d (queue <= K) marked", i)
		}
		if i >= 3 && !marked {
			t.Fatalf("frame %d (queue > K) not marked", i)
		}
	}
	if n.Switch.ECNMarks != 3 {
		t.Fatalf("ECNMarks = %d, want 3", n.Switch.ECNMarks)
	}
}

// TestTailDropBoundaryAccounting pins the cap rule: frames are accepted
// while queue + wire <= QueueCapBytes, dropped beyond, with switch and
// per-port counters agreeing and the peak depth equal to the cap.
func TestTailDropBoundaryAccounting(t *testing.T) {
	wire := testPacket(packet.MAC(0, 0, 0, 0, 0, 0), packet.MAC(0, 0, 0, 0, 0, 0), 1400).WireLen()
	eng, n, a, b := slowSinkNet(SwitchConfig{QueueCapBytes: 3 * wire})
	port := b.peer
	port.EnableQueueHist(wire, 10*wire)
	var pkts []*packet.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, testPacket(a.MAC, b.MAC, 1400))
	}
	sendSpaced(eng, a, pkts)
	eng.RunUntil(20 * sim.Microsecond)
	if n.Switch.QueueDrops != 3 {
		t.Fatalf("QueueDrops = %d, want 3 (frames 4-6)", n.Switch.QueueDrops)
	}
	if port.TailDrops != n.Switch.QueueDrops {
		t.Fatalf("per-port TailDrops %d != switch QueueDrops %d", port.TailDrops, n.Switch.QueueDrops)
	}
	if port.PeakQueueBytes != 3*wire {
		t.Fatalf("PeakQueueBytes = %d, want %d", port.PeakQueueBytes, 3*wire)
	}
	hist, unit := port.QueueHist()
	if unit != wire || hist.Count() != 3 {
		t.Fatalf("occupancy samples = %d (unit %d), want 3 accepted enqueues", hist.Count(), unit)
	}
	if hist.Bucket(1) != 1 || hist.Bucket(2) != 1 || hist.Bucket(3) != 1 {
		t.Fatalf("occupancy distribution = %v, want one sample each at 1,2,3 wires", hist.Dist())
	}
}

// TestWREDBoundaries pins the three WRED regions: at or below min no
// early drop ever happens; between min and max the drop probability is
// frac*WREDMaxProb (frac 1.0 exactly at max); beyond max the drop is
// unconditional. WREDMaxProb=0 isolates the regions: only the
// beyond-max tail can drop.
func TestWREDBoundaries(t *testing.T) {
	wire := testPacket(packet.MAC(0, 0, 0, 0, 0, 0), packet.MAC(0, 0, 0, 0, 0, 0), 1400).WireLen()
	eng, n, a, b := slowSinkNet(SwitchConfig{
		WREDMinBytes: 2 * wire, WREDMaxBytes: 4 * wire, WREDMaxProb: 0, Seed: 3,
	})
	var pkts []*packet.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, testPacket(a.MAC, b.MAC, 1400))
	}
	sendSpaced(eng, a, pkts)
	eng.RunUntil(20 * sim.Microsecond)
	// Frames 1-4 land at q = 1..4 wires (<= max): with MaxProb 0 none may
	// drop, including the frame exactly at max (probability path, not the
	// unconditional tail). Frames 5-6 land beyond max: always dropped.
	if n.Switch.WREDDrops != 2 {
		t.Fatalf("WREDDrops = %d, want 2 (only the beyond-max tail)", n.Switch.WREDDrops)
	}
	if b.peer.WREDDrops != 2 {
		t.Fatalf("per-port WREDDrops = %d", b.peer.WREDDrops)
	}

	// With MaxProb 1.0 the frame exactly at max must drop (frac = 1.0)
	// and frames at or below min must still always pass.
	eng2, n2, a2, b2 := slowSinkNet(SwitchConfig{
		WREDMinBytes: 2 * wire, WREDMaxBytes: 4 * wire, WREDMaxProb: 1.0, Seed: 3,
	})
	accepted := func() int { return int(b2.peer.QueueBytes() / wire) }
	var pkts2 []*packet.Packet
	for i := 0; i < 2; i++ {
		pkts2 = append(pkts2, testPacket(a2.MAC, b2.MAC, 1400))
	}
	sendSpaced(eng2, a2, pkts2)
	eng2.RunUntil(10 * sim.Microsecond)
	if n2.Switch.WREDDrops != 0 || accepted() != 2 {
		t.Fatalf("frames at or below min dropped: drops=%d accepted=%d", n2.Switch.WREDDrops, accepted())
	}
	// Fill to one below max, then the frame arriving exactly at max must
	// be dropped with probability frac*1.0 = 1.
	more := []*packet.Packet{testPacket(a2.MAC, b2.MAC, 1400), testPacket(a2.MAC, b2.MAC, 1400)}
	eng2.AtCall(eng2.Now()+2*sim.Microsecond, func(any) { a2.Send(NewFrame(more[0], 0)) }, nil)
	eng2.AtCall(eng2.Now()+4*sim.Microsecond, func(any) { a2.Send(NewFrame(more[1], 0)) }, nil)
	eng2.RunUntil(eng2.Now() + 10*sim.Microsecond)
	// Frame 3 at q=3w: frac=0.5 — seeded outcome either way; frame 4 (or
	// the next surviving) reaches q=max: frac=1.0 must drop.
	if n2.Switch.WREDDrops == 0 {
		t.Fatal("MaxProb=1.0 never dropped approaching max")
	}
	if accepted() > 3 {
		t.Fatalf("queue exceeded max-1 frames with MaxProb=1: %d accepted", accepted())
	}
}

// TestDropPointsReleaseFrameAndPacket: every switch drop point must
// terminate the journey — returning both the pooled frame and the pooled
// packet. The pools are LIFO, so the dropped objects must be the next
// ones handed out.
func TestDropPointsReleaseFrameAndPacket(t *testing.T) {
	wire := testPacket(packet.MAC(0, 0, 0, 0, 0, 0), packet.MAC(0, 0, 0, 0, 0, 0), 1400).WireLen()
	cases := []struct {
		name string
		cfg  SwitchConfig
		dst  func(b *Iface) packet.EtherAddr // frame destination
		prep int                             // frames to enqueue first
	}{
		{"loss", SwitchConfig{LossProb: 1.0, Seed: 1}, func(b *Iface) packet.EtherAddr { return b.MAC }, 0},
		{"flood", SwitchConfig{}, func(*Iface) packet.EtherAddr { return packet.MAC(9, 9, 9, 9, 9, 9) }, 0},
		{"taildrop", SwitchConfig{QueueCapBytes: 1 * wire}, func(b *Iface) packet.EtherAddr { return b.MAC }, 1},
		{"wredtail", SwitchConfig{WREDMinBytes: 1, WREDMaxBytes: 1 * wire, WREDMaxProb: 0}, func(b *Iface) packet.EtherAddr { return b.MAC }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, a, b := slowSinkNet(tc.cfg)
			// Pre-fill the queue so the victim frame lands beyond the bound.
			var pkts []*packet.Packet
			for i := 0; i < tc.prep; i++ {
				pkts = append(pkts, testPacket(a.MAC, b.MAC, 1400))
			}
			victim := packet.Get()
			src := testPacket(a.MAC, tc.dst(b), 1400)
			victim.Eth, victim.IP, victim.TCP = src.Eth, src.IP, src.TCP
			victim.GrowPayload(len(src.Payload))
			pkts = append(pkts, victim)
			sendSpaced(eng, a, pkts)
			eng.RunUntil(sim.Time(len(pkts)) * 4 * sim.Microsecond)
			if got := packet.Get(); got != victim {
				t.Fatalf("dropped packet not recycled: pool returned %p, want %p", got, victim)
			}
			if f := defaultFrames.free.Get(); f == nil {
				t.Fatal("dropped frame not returned to the freelist")
			}
		})
	}
}

func TestIfaceCounters(t *testing.T) {
	eng, _, a, b := buildNet(t, SwitchConfig{})
	b.Recv = func(f *Frame) {}
	pkt := testPacket(a.MAC, b.MAC, 500)
	eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	eng.Run()
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Fatalf("counters: tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
	if a.TxBytes != uint64(pkt.WireLen()) {
		t.Fatalf("TxBytes = %d", a.TxBytes)
	}
}

// TestPassiveTaps: TxTap fires at Send time on the sender, RxTap at
// delivery on the receiver; taps observe the packet without taking
// ownership (the frame still reaches Recv intact) and fire even on
// frames the switch later drops (TxTap) or that arrive with no Recv
// handler (RxTap).
func TestPassiveTaps(t *testing.T) {
	eng, _, a, b := buildNet(t, SwitchConfig{})
	var txAt, rxAt sim.Time
	var txSeen, rxSeen, delivered int
	a.TxTap = func(at sim.Time, pkt *packet.Packet) {
		txSeen++
		txAt = at
		if pkt.TCP.SrcPort != 1 {
			t.Errorf("TxTap packet src port = %d", pkt.TCP.SrcPort)
		}
	}
	b.RxTap = func(at sim.Time, pkt *packet.Packet) {
		rxSeen++
		rxAt = at
		if pkt.TCP.DstPort != 2 {
			t.Errorf("RxTap packet dst port = %d", pkt.TCP.DstPort)
		}
	}
	b.Recv = func(f *Frame) {
		delivered++
		dropFrame(f)
	}
	pkt := testPacket(a.MAC, b.MAC, 500)
	eng.AtCall(0, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
	eng.Run()
	if txSeen != 1 || rxSeen != 1 || delivered != 1 {
		t.Fatalf("tx=%d rx=%d delivered=%d, want 1/1/1", txSeen, rxSeen, delivered)
	}
	if txAt != 0 {
		t.Fatalf("TxTap at %v, want send time 0", txAt)
	}
	if rxAt <= txAt {
		t.Fatalf("RxTap at %v, must be after TxTap at %v", rxAt, txAt)
	}
}

// TestTapsAreFreeAndOrderNeutral: attaching taps must not change the
// simulation by one picosecond or one event — the zero-cost contract the
// analyzer relies on (core.TOE.PacketTapCost models the expensive kind).
func TestTapsAreFreeAndOrderNeutral(t *testing.T) {
	run := func(tap bool) (deliveries int, last sim.Time) {
		eng, _, a, b := buildNet(t, SwitchConfig{})
		if tap {
			count := func(at sim.Time, pkt *packet.Packet) {}
			a.TxTap, a.RxTap = count, count
			b.TxTap, b.RxTap = count, count
		}
		b.Recv = func(f *Frame) {
			deliveries++
			last = eng.Now()
			dropFrame(f)
		}
		for i := 0; i < 50; i++ {
			pkt := testPacket(a.MAC, b.MAC, 100+i*7)
			eng.AtCall(sim.Time(i)*sim.Microsecond, func(any) { a.Send(NewFrame(pkt, 0)) }, nil)
		}
		eng.Run()
		return
	}
	n0, t0 := run(false)
	n1, t1 := run(true)
	if n0 != n1 || t0 != t1 {
		t.Fatalf("taps changed the run: %d@%v vs %d@%v", n0, t0, n1, t1)
	}
	if n0 != 50 {
		t.Fatalf("deliveries = %d, want 50", n0)
	}
}

// TestLinkIDsArePerEngine: link ids come from the interface's engine, so
// networks built at the same time on two goroutines — two jobs of a
// service, two cells of a sweep — get the ids each would get alone, and
// share no counter (run under -race).
func TestLinkIDsArePerEngine(t *testing.T) {
	ids := func() []uint32 {
		_, _, a, b := buildNet(t, SwitchConfig{})
		return []uint32{a.linkID, a.peer.linkID, b.linkID, b.peer.linkID}
	}
	alone := ids()
	for i := 1; i < len(alone); i++ {
		if alone[i] <= alone[i-1] {
			t.Fatalf("link ids %v do not rise in construction order", alone)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := ids(); !reflect.DeepEqual(got, alone) {
					t.Errorf("concurrent build %d got link ids %v, alone %v", i, got, alone)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMACTableMatchesMap drives the forwarding table and a Go map with the
// same learns — sequential addresses that differ in one byte (what a
// testbed installs), the all-zero address, re-learns toward another port,
// enough of them to grow the table several times — and requires the same
// answer for every address learned and nil for addresses never learned.
func TestMACTableMatchesMap(t *testing.T) {
	var tab macTable
	ref := map[packet.EtherAddr]*Iface{}
	ports := []*Iface{{Name: "p0"}, {Name: "p1"}, {Name: "p2"}}
	if tab.lookup(packet.EtherAddr{}) != nil {
		t.Fatal("empty table resolved an address")
	}
	for i := 0; i < 3000; i++ {
		mac := packet.MAC(2, 0, byte(i>>16), byte(i>>8), byte(i), byte(i%7))
		switch {
		case i == 100:
			mac = packet.EtherAddr{}
		case i%5 == 4:
			mac = packet.MAC(2, 0, 0, byte((i-3)>>8), byte(i-3), byte((i-3)%7)) // learned before: moves
		}
		tab.learn(mac, ports[i%3])
		ref[mac] = ports[i%3]
		if tab.n != len(ref) {
			t.Fatalf("after %d learns the table counts %d addresses, the map %d", i+1, tab.n, len(ref))
		}
	}
	for mac, want := range ref {
		if got := tab.lookup(mac); got != want {
			t.Fatalf("%v resolves to %v, want %v", mac, got, want)
		}
		mac[0] ^= 0x40
		if got := tab.lookup(mac); got != nil {
			t.Fatalf("%v was never learned but resolves to %s", mac, got.Name)
		}
	}
	if 2*tab.n > len(tab.slots) {
		t.Errorf("load %d/%d above one half", tab.n, len(tab.slots))
	}
}
