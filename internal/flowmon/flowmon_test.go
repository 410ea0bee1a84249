package flowmon

import (
	"bytes"
	"io"
	"testing"
	"unsafe"

	"flextoe/internal/packet"
	"flextoe/internal/pcap"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// seg builds a synthetic TCP packet between fixed endpoints. rev flips
// direction (server -> client).
func seg(rev bool, seq, ack uint32, flags uint8, payLen int, win uint16) *packet.Packet {
	p := &packet.Packet{
		Eth: packet.Ethernet{
			Dst:       packet.MAC(0x02, 0, 0, 0, 0, 2),
			Src:       packet.MAC(0x02, 0, 0, 0, 0, 1),
			EtherType: packet.EtherTypeIPv4,
		},
		IP: packet.IPv4{
			TTL:      64,
			Protocol: packet.ProtoTCP,
			Src:      packet.IP(10, 0, 0, 1),
			Dst:      packet.IP(10, 0, 0, 2),
		},
		TCP: packet.TCP{
			SrcPort: 40000,
			DstPort: 11211,
			Seq:     seq,
			Ack:     ack,
			Flags:   flags,
			Window:  win,
			WScale:  -1,
		},
	}
	if rev {
		p.IP.Src, p.IP.Dst = p.IP.Dst, p.IP.Src
		p.TCP.SrcPort, p.TCP.DstPort = p.TCP.DstPort, p.TCP.SrcPort
	}
	if payLen > 0 {
		p.Payload = make([]byte, payLen)
		for i := range p.Payload {
			p.Payload[i] = byte(seq + uint32(i))
		}
	}
	return p
}

// handshake observes a SYN / SYN-ACK pair so both directions have their
// sequence bases (client ISS 1000, server ISS 5000).
func handshake(a *Analyzer, at sim.Time) {
	a.Observe(at, seg(false, 1000, 0, packet.FlagSYN, 0, 65535))
	a.Observe(at+sim.Microsecond, seg(true, 5000, 1001, packet.FlagSYN|packet.FlagACK, 0, 65535))
}

func clientFlow(t *testing.T, r *Report) *FlowReport {
	t.Helper()
	for i := range r.Flows {
		if r.Flows[i].Flow.SrcPort == 40000 {
			return &r.Flows[i]
		}
	}
	t.Fatal("client flow not found in report")
	return nil
}

func serverFlow(t *testing.T, r *Report) *FlowReport {
	t.Helper()
	for i := range r.Flows {
		if r.Flows[i].Flow.SrcPort == 11211 {
			return &r.Flows[i]
		}
	}
	t.Fatal("server flow not found in report")
	return nil
}

func TestRetxClassification(t *testing.T) {
	a := New(Config{})
	at := sim.Microsecond
	tick := func() sim.Time { at += sim.Microsecond; return at }
	handshake(a, at)

	// Three back-to-back segments; the first is lost on the path past the
	// tap, so the peer SACKs the other two.
	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	a.Observe(tick(), seg(false, 1101, 5001, packet.FlagACK, 100, 65535))
	a.Observe(tick(), seg(false, 1201, 5001, packet.FlagACK, 100, 65535))
	sack := seg(true, 5001, 1001, packet.FlagACK, 0, 65535)
	sack.TCP.AddSACK(packet.SACKBlock{Start: 1101, End: 1301})
	a.Observe(tick(), sack)

	// Selective repair: fills the reported hole, no overlap with held data.
	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	// Rewind: re-sends data the peer reported holding.
	a.Observe(tick(), seg(false, 1101, 5001, packet.FlagACK, 100, 65535))
	// Beyond the highest SACKed byte: not filling a known hole -> rewind.
	a.Observe(tick(), seg(false, 1301, 5001, packet.FlagACK, 100, 65535))
	a.Observe(tick(), seg(false, 1301, 5001, packet.FlagACK, 100, 65535))

	f := clientFlow(t, a.Report())
	if f.RetxSegs != 3 || f.RetxBytes != 300 {
		t.Fatalf("retx = %d segs / %d B, want 3 / 300", f.RetxSegs, f.RetxBytes)
	}
	if f.RetxSelSegs != 1 || f.RetxSelBytes != 100 {
		t.Fatalf("selective = %d segs / %d B, want 1 / 100", f.RetxSelSegs, f.RetxSelBytes)
	}
	if f.RetxGBNSegs != 2 || f.RetxGBNBytes != 200 {
		t.Fatalf("gbn = %d segs / %d B, want 2 / 200", f.RetxGBNSegs, f.RetxGBNBytes)
	}
	if f.DataSegs != 7 {
		t.Fatalf("dataSegs = %d, want 7", f.DataSegs)
	}
}

func TestRetxWithoutScoreboardIsGBN(t *testing.T) {
	a := New(Config{})
	at := sim.Microsecond
	handshake(a, at)
	a.Observe(2*sim.Microsecond, seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	a.Observe(3*sim.Microsecond, seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	f := clientFlow(t, a.Report())
	if f.RetxSegs != 1 || f.RetxGBNSegs != 1 || f.RetxSelSegs != 0 {
		t.Fatalf("retx=%d gbn=%d sel=%d, want 1/1/0 with no SACK evidence",
			f.RetxSegs, f.RetxGBNSegs, f.RetxSelSegs)
	}
}

func TestRetxPartialOverlapCountsOnlyResentBytes(t *testing.T) {
	a := New(Config{})
	handshake(a, sim.Microsecond)
	a.Observe(2*sim.Microsecond, seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	// Straddles SND.MAX: 50 old bytes + 50 new bytes.
	a.Observe(3*sim.Microsecond, seg(false, 1051, 5001, packet.FlagACK, 100, 65535))
	f := clientFlow(t, a.Report())
	if f.RetxSegs != 1 || f.RetxBytes != 50 {
		t.Fatalf("retx = %d segs / %d B, want 1 / 50 (partial overlap)", f.RetxSegs, f.RetxBytes)
	}
}

func dupAckStream(a *Analyzer) {
	at := sim.Microsecond
	tick := func() sim.Time { at += sim.Microsecond; return at }
	handshake(a, at)
	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	// Four identical pure acks; the first doubles as the window baseline.
	for i := 0; i < 4; i++ {
		a.Observe(tick(), seg(true, 5001, 1001, packet.FlagACK, 0, 500))
	}
	// Repeated ack with a changed window: a window update to FlexTOE.
	a.Observe(tick(), seg(true, 5001, 1001, packet.FlagACK, 0, 600))
	// Repeated ack on a FIN: never a dupack to FlexTOE.
	a.Observe(tick(), seg(true, 5001, 1001, packet.FlagACK|packet.FlagFIN, 0, 600))
}

func TestDupAckRuleFlexTOE(t *testing.T) {
	a := New(Config{DupAck: DupAckFlexTOE})
	dupAckStream(a)
	f := clientFlow(t, a.Report())
	// Ack #1 establishes the window baseline (no prior window to compare),
	// #2-#4 count, the window update and the FIN do not.
	if f.DupAcks != 3 {
		t.Fatalf("FlexTOE dupacks = %d, want 3", f.DupAcks)
	}
	if f.DupAckRunMax != 3 {
		t.Fatalf("FlexTOE dupack run max = %d, want 3", f.DupAckRunMax)
	}
}

func TestDupAckRuleBaseline(t *testing.T) {
	a := New(Config{DupAck: DupAckBaseline})
	dupAckStream(a)
	f := clientFlow(t, a.Report())
	// The baseline stacks count every pure repeated ack with data
	// outstanding: all four, the window update, and the FIN.
	if f.DupAcks != 6 {
		t.Fatalf("baseline dupacks = %d, want 6", f.DupAcks)
	}
}

func TestDupAckResetOnAdvance(t *testing.T) {
	a := New(Config{DupAck: DupAckBaseline})
	at := sim.Microsecond
	tick := func() sim.Time { at += sim.Microsecond; return at }
	handshake(a, at)
	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 200, 65535))
	a.Observe(tick(), seg(true, 5001, 1001, packet.FlagACK, 0, 500))
	a.Observe(tick(), seg(true, 5001, 1001, packet.FlagACK, 0, 500))
	a.Observe(tick(), seg(true, 5001, 1101, packet.FlagACK, 0, 500)) // advance
	a.Observe(tick(), seg(true, 5001, 1101, packet.FlagACK, 0, 500))
	f := clientFlow(t, a.Report())
	if f.DupAcks != 3 {
		t.Fatalf("dupacks = %d, want 3", f.DupAcks)
	}
	if f.DupAckRunMax != 2 {
		t.Fatalf("run max = %d, want 2 (runs reset on cumulative advance)", f.DupAckRunMax)
	}
	if f.AckedBytes != 100 {
		t.Fatalf("acked = %d, want 100", f.AckedBytes)
	}
}

func TestOOOEmulation(t *testing.T) {
	a := New(Config{OOOCap: 1})
	at := sim.Microsecond
	tick := func() sim.Time { at += sim.Microsecond; return at }
	handshake(a, at)

	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 100, 65535)) // in order
	a.Observe(tick(), seg(false, 1201, 5001, packet.FlagACK, 100, 65535)) // hole: accepted OOO
	a.Observe(tick(), seg(false, 1401, 5001, packet.FlagACK, 100, 65535)) // 2nd disjoint: over cap, dropped
	a.Observe(tick(), seg(false, 1101, 5001, packet.FlagACK, 100, 65535)) // fills hole, merges [1201,1301)
	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 100, 65535)) // stale duplicate

	f := clientFlow(t, a.Report())
	if f.OOOAccepts != 1 {
		t.Fatalf("ooo accepts = %d, want 1", f.OOOAccepts)
	}
	if f.OOODrops != 1 {
		t.Fatalf("ooo drops = %d, want 1 (cap 1)", f.OOODrops)
	}
	if f.OOOMerges != 1 {
		t.Fatalf("ooo merges = %d, want 1", f.OOOMerges)
	}
}

func TestOOODiscardProfileDropsEverything(t *testing.T) {
	// Negative OOOCap models a receiver with no reassembly (the Chelsio
	// discard profile): every out-of-order arrival drops, in-order data
	// still advances.
	a := New(Config{OOOCap: -1})
	at := sim.Microsecond
	tick := func() sim.Time { at += sim.Microsecond; return at }
	handshake(a, at)
	a.Observe(tick(), seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	a.Observe(tick(), seg(false, 1201, 5001, packet.FlagACK, 100, 65535))
	a.Observe(tick(), seg(false, 1301, 5001, packet.FlagACK, 100, 65535))
	a.Observe(tick(), seg(false, 1101, 5001, packet.FlagACK, 100, 65535))
	f := clientFlow(t, a.Report())
	if f.OOOAccepts != 0 || f.OOODrops != 2 {
		t.Fatalf("discard profile: accepts=%d drops=%d, want 0/2", f.OOOAccepts, f.OOODrops)
	}
}

func TestRTTSeqProbe(t *testing.T) {
	a := New(Config{})
	handshake(a, sim.Microsecond)
	a.Observe(10*sim.Microsecond, seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	a.Observe(60*sim.Microsecond, seg(true, 5001, 1101, packet.FlagACK, 0, 65535))
	f := clientFlow(t, a.Report())
	if f.RTTN != 1 || f.RTTMinUs != 50 || f.RTTMaxUs != 50 {
		t.Fatalf("rtt n=%d min=%d max=%d, want one 50us sample", f.RTTN, f.RTTMinUs, f.RTTMaxUs)
	}
}

func TestRTTKarnAndTimestampFallback(t *testing.T) {
	a := New(Config{})
	handshake(a, sim.Microsecond)

	d1 := seg(false, 1001, 5001, packet.FlagACK, 100, 65535)
	d1.TCP.HasTimestamp, d1.TCP.TSVal, d1.TCP.TSEcr = true, 100, 1
	a.Observe(10*sim.Microsecond, d1)

	// Retransmission: Karn invalidates the SEQ probe and the re-sent
	// range's fresh timestamp.
	d2 := seg(false, 1001, 5001, packet.FlagACK, 100, 65535)
	d2.TCP.HasTimestamp, d2.TCP.TSVal, d2.TCP.TSEcr = true, 101, 1
	a.Observe(20*sim.Microsecond, d2)

	// Ack echoing the ORIGINAL timestamp: samples from the first send.
	ack := seg(true, 5001, 1101, packet.FlagACK, 0, 65535)
	ack.TCP.HasTimestamp, ack.TCP.TSVal, ack.TCP.TSEcr = true, 2, 100
	a.Observe(60*sim.Microsecond, ack)

	f := clientFlow(t, a.Report())
	if f.RTTN != 1 || f.RTTMinUs != 50 {
		t.Fatalf("rtt n=%d min=%d, want one 50us sample via timestamp echo", f.RTTN, f.RTTMinUs)
	}

	// A second echo of the invalidated retransmit timestamp yields nothing.
	ack2 := seg(true, 5001, 1101, packet.FlagACK, 0, 65535)
	ack2.TCP.HasTimestamp, ack2.TCP.TSVal, ack2.TCP.TSEcr = true, 3, 101
	a.Observe(80*sim.Microsecond, ack2)
	f = clientFlow(t, a.Report())
	if f.RTTN != 1 {
		t.Fatalf("rtt n=%d after ambiguous echo, want still 1", f.RTTN)
	}
}

func TestZeroWindowStall(t *testing.T) {
	a := New(Config{})
	handshake(a, sim.Microsecond)
	a.Observe(100*sim.Microsecond, seg(true, 5001, 1001, packet.FlagACK, 0, 0))
	a.Observe(150*sim.Microsecond, seg(true, 5001, 1001, packet.FlagACK, 0, 0))
	a.Observe(300*sim.Microsecond, seg(true, 5001, 1001, packet.FlagACK, 0, 400))
	f := serverFlow(t, a.Report())
	if f.ZeroWinEvents != 1 {
		t.Fatalf("zero-win events = %d, want 1", f.ZeroWinEvents)
	}
	if f.ZeroWinStall != 200*sim.Microsecond {
		t.Fatalf("zero-win stall = %v, want 200us", f.ZeroWinStall)
	}

	// A stall still open at readout is charged up to the last packet.
	a.Observe(400*sim.Microsecond, seg(true, 5001, 1001, packet.FlagACK, 0, 0))
	a.Observe(450*sim.Microsecond, seg(true, 5001, 1001, packet.FlagACK, 0, 0))
	f = serverFlow(t, a.Report())
	if f.ZeroWinEvents != 2 {
		t.Fatalf("zero-win events = %d, want 2", f.ZeroWinEvents)
	}
	if f.ZeroWinStall != 250*sim.Microsecond {
		t.Fatalf("open stall = %v, want 200us closed + 50us open", f.ZeroWinStall)
	}
}

func TestECNCounts(t *testing.T) {
	a := New(Config{})
	handshake(a, sim.Microsecond)
	ce := seg(false, 1001, 5001, packet.FlagACK, 100, 65535)
	ce.IP.SetECN(packet.ECNCE)
	a.Observe(2*sim.Microsecond, ce)
	ece := seg(true, 5001, 1101, packet.FlagACK|packet.FlagECE, 0, 65535)
	a.Observe(3*sim.Microsecond, ece)
	r := a.Report()
	if f := clientFlow(t, r); f.CEPkts != 1 {
		t.Fatalf("ce = %d, want 1", f.CEPkts)
	}
	if f := serverFlow(t, r); f.ECEPkts != 1 {
		t.Fatalf("ece = %d, want 1", f.ECEPkts)
	}
}

func TestMaxFlowsBudget(t *testing.T) {
	a := New(Config{MaxFlows: 2})
	handshake(a, sim.Microsecond) // creates both directions: table full
	other := seg(false, 1, 0, packet.FlagACK, 10, 100)
	other.TCP.SrcPort = 50000
	a.Observe(2*sim.Microsecond, other)
	if a.NumFlows() != 2 {
		t.Fatalf("flows = %d, want 2", a.NumFlows())
	}
	if a.FlowsDropped != 1 {
		t.Fatalf("dropped = %d, want 1", a.FlowsDropped)
	}
	if a.MemBytes() <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", a.MemBytes())
	}
}

// checkPeers requires every peer link to be what a fresh index lookup of
// the reverse flow returns — the same slot, linked back — and every
// unlinked record to have no reverse record to link to.
func checkPeers(t *testing.T, a *Analyzer) {
	t.Helper()
	for slot := range a.n {
		fs := a.at(slot)
		rslot, ok := a.idx.Lookup(fs.flow.Reverse())
		switch {
		case !ok && fs.peer != 0:
			t.Errorf("slot %d (%v): peer link %d to a record that does not exist", slot, fs.flow, fs.peer-1)
		case ok && fs.peer != 0 && (fs.peer-1 != rslot || a.at(rslot).peer != slot+1):
			t.Errorf("slot %d (%v): peer slot %d (linked back to %d), lookup finds slot %d",
				slot, fs.flow, fs.peer-1, a.at(fs.peer-1).peer-1, rslot)
		}
	}
}

// TestMaxFlowsForwardAdmittedReverseRefused: the budget can admit a
// packet's own flow and refuse its reverse. The packet is dropped and
// counted, the admitted record stays unpaired (no link to a record that
// was never created), and later packets of either direction keep being
// counted one by one, as when Observe looked both directions up on every
// packet.
func TestMaxFlowsForwardAdmittedReverseRefused(t *testing.T) {
	other := func(rev bool) *packet.Packet {
		p := seg(rev, 1, 0, packet.FlagACK, 10, 100)
		if rev {
			p.TCP.DstPort = 50000
		} else {
			p.TCP.SrcPort = 50000
		}
		return p
	}
	feed := func(a *Analyzer) {
		handshake(a, sim.Microsecond)
		a.Observe(3*sim.Microsecond, other(false)) // forward admitted, reverse refused
		a.Observe(4*sim.Microsecond, other(false)) // forward found, reverse still refused
		a.Observe(5*sim.Microsecond, other(true))  // its own flow refused
	}

	a := New(Config{MaxFlows: 3})
	feed(a)
	if a.NumFlows() != 3 || a.FlowsDropped != 3 {
		t.Fatalf("flows = %d, dropped = %d, want 3 and 3", a.NumFlows(), a.FlowsDropped)
	}
	if lone := a.at(2); lone.flow != other(false).Flow() || lone.peer != 0 || lone.pkts != 0 {
		t.Fatalf("admitted record: flow %v peer %d pkts %d, want %v unpaired and untouched",
			lone.flow, lone.peer, lone.pkts, other(false).Flow())
	}
	if a.at(0).peer != 2 || a.at(1).peer != 1 {
		t.Fatalf("handshake pair linked %d/%d, want slots 1/0", a.at(0).peer-1, a.at(1).peer-1)
	}
	checkPeers(t, a)

	// With room for the reverse record, the same packets pair up, and the
	// link is the slot a lookup returns.
	b := New(Config{})
	feed(b)
	if b.NumFlows() != 4 || b.FlowsDropped != 0 {
		t.Fatalf("uncapped: flows = %d, dropped = %d, want 4 and 0", b.NumFlows(), b.FlowsDropped)
	}
	if b.at(2).peer != 4 || b.at(3).peer != 3 || b.at(2).pkts != 2 || b.at(3).pkts != 1 {
		t.Fatalf("uncapped: slots 2/3 linked %d/%d with %d/%d packets, want 3/2 with 2/1",
			b.at(2).peer-1, b.at(3).peer-1, b.at(2).pkts, b.at(3).pkts)
	}
	checkPeers(t, b)
}

func TestGoodputTimeline(t *testing.T) {
	a := New(Config{})
	handshake(a, sim.Microsecond)
	a.Observe(2*sim.Microsecond, seg(false, 1001, 5001, packet.FlagACK, 100, 65535))
	a.Observe(sim.Millisecond+sim.Microsecond, seg(true, 5001, 1101, packet.FlagACK, 0, 65535))
	a.Observe(sim.Millisecond+2*sim.Microsecond, seg(false, 1101, 5001, packet.FlagACK, 100, 65535))
	a.Observe(10*sim.Millisecond, seg(true, 5001, 1201, packet.FlagACK, 0, 65535))
	r := a.Report()
	f := clientFlow(t, r)
	if f.AckedBytes != 200 {
		t.Fatalf("acked = %d, want 200", f.AckedBytes)
	}
	if f.GoodputBps() <= 0 {
		t.Fatalf("goodput = %v, want > 0", f.GoodputBps())
	}
}

func TestNonTCPAndRSTSkipped(t *testing.T) {
	a := New(Config{})
	udp := seg(false, 0, 0, 0, 10, 0)
	udp.IP.Protocol = packet.ProtoUDP
	a.Observe(sim.Microsecond, udp)
	a.Observe(2*sim.Microsecond, seg(false, 1000, 0, packet.FlagRST, 0, 0))
	if a.NonTCP != 1 {
		t.Fatalf("non-tcp = %d, want 1", a.NonTCP)
	}
	r := a.Report()
	if r.Pkts != 2 {
		t.Fatalf("pkts = %d, want 2", r.Pkts)
	}
	f := clientFlow(t, r)
	if f.DataSegs != 0 || f.AckedBytes != 0 {
		t.Fatalf("RST must not contribute data/ack state: %+v", f)
	}
}

// lossyStream generates a deterministic pseudo-random bidirectional
// transfer with reordering, duplication, and SACKs.
func lossyStream(seed uint64) []*packet.Packet {
	r := stats.NewRNG(seed)
	var pkts []*packet.Packet
	pkts = append(pkts,
		seg(false, 1000, 0, packet.FlagSYN, 0, 65535),
		seg(true, 5000, 1001, packet.FlagSYN|packet.FlagACK, 0, 65535))
	base := uint32(1001)
	sent := uint32(0)
	acked := uint32(0)
	for i := 0; i < 400; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // new data
			p := seg(false, base+sent, 5001, packet.FlagACK, 100, 65535)
			p.TCP.HasTimestamp, p.TCP.TSVal, p.TCP.TSEcr = true, uint32(i+1), 1
			pkts = append(pkts, p)
			sent += 100
		case 6: // retransmit a random earlier segment
			if sent == 0 {
				continue
			}
			off := uint32(r.Intn(int(sent/100))) * 100
			p := seg(false, base+off, 5001, packet.FlagACK, 100, 65535)
			p.TCP.HasTimestamp, p.TCP.TSVal, p.TCP.TSEcr = true, uint32(i+1), 1
			pkts = append(pkts, p)
		case 7, 8: // cumulative ack, sometimes duplicate
			if r.Intn(3) == 0 && acked < sent {
				acked += 100
			}
			p := seg(true, 5001, base+acked, packet.FlagACK, 0, 65535)
			p.TCP.HasTimestamp, p.TCP.TSVal, p.TCP.TSEcr = true, uint32(1000+i), uint32(i)
			pkts = append(pkts, p)
		case 9: // SACK above the cumulative ack
			if acked+300 >= sent {
				continue
			}
			p := seg(true, 5001, base+acked, packet.FlagACK, 0, 65535)
			p.TCP.AddSACK(packet.SACKBlock{Start: base + acked + 200, End: base + acked + 300})
			pkts = append(pkts, p)
		}
	}
	return pkts
}

func TestFlowmonDeterminism(t *testing.T) {
	run := func() string {
		a := New(Config{})
		at := sim.Time(0)
		for _, p := range lossyStream(42) {
			at += sim.Microsecond
			a.Observe(at, p)
		}
		return a.Report().Format()
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("reruns differ:\n%s\n---\n%s", r1, r2)
	}
	if len(r1) == 0 {
		t.Fatal("empty report")
	}
}

func TestFleetAnalyzerCountInvariance(t *testing.T) {
	// The same packet stream split across 1 or 3 analyzers (per directed
	// flow) must produce identical fleet totals and histograms.
	streams := [][]*packet.Packet{}
	for port := 0; port < 6; port++ {
		s := lossyStream(uint64(100 + port))
		for _, p := range s {
			p.TCP.SrcPort += uint16(port * 2)
			p.TCP.DstPort += uint16(port * 2)
		}
		streams = append(streams, s)
	}

	runSplit := func(n int) *Report {
		var fl Fleet
		mons := make([]*Analyzer, n)
		for i := range mons {
			mons[i] = New(Config{})
			fl.Add(mons[i])
		}
		at := sim.Time(0)
		for i := 0; i < len(streams[0]); i++ {
			at += sim.Microsecond
			for si, s := range streams {
				if i < len(s) {
					mons[si%n].Observe(at, s[i])
				}
			}
		}
		return fl.Report()
	}

	r1, r3 := runSplit(1), runSplit(3)
	if r1.Totals() != r3.Totals() {
		t.Fatalf("totals differ across analyzer counts:\n1: %+v\n3: %+v", r1.Totals(), r3.Totals())
	}
	if len(r1.Flows) != len(r3.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(r1.Flows), len(r3.Flows))
	}
	if r1.RTTHist.Count() != r3.RTTHist.Count() ||
		r1.RTTHist.Quantile(0.99) != r3.RTTHist.Quantile(0.99) {
		t.Fatalf("rtt hist differs across analyzer counts")
	}
}

func TestFeedPCAPMatchesLiveObserve(t *testing.T) {
	pkts := lossyStream(7)

	live := New(Config{})
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Time(0)
	for _, p := range pkts {
		at += sim.Microsecond // pcap keeps microsecond precision
		live.Observe(at, p)
		if err := w.WritePacket(at, p); err != nil {
			t.Fatal(err)
		}
	}

	replay := New(Config{})
	fed, skipped, err := FeedPCAP(bytes.NewReader(buf.Bytes()), replay)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d records, want 0", skipped)
	}
	if fed != len(pkts) {
		t.Fatalf("fed %d records, want %d", fed, len(pkts))
	}
	if lr, rr := live.Report().Format(), replay.Report().Format(); lr != rr {
		t.Fatalf("pcap replay diverges from live taps:\n%s\n---\n%s", lr, rr)
	}
}

func TestFeedPCAPToleratesTruncation(t *testing.T) {
	pkts := lossyStream(9)
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf)
	for i, p := range pkts {
		if err := w.WritePacket(sim.Time(i+1)*sim.Microsecond, p); err != nil {
			t.Fatal(err)
		}
	}
	// Cut into the middle of the final record.
	cut := buf.Len() - 10
	a := New(Config{})
	fed, skipped, err := FeedPCAP(bytes.NewReader(buf.Bytes()[:cut]), a)
	if err != nil {
		t.Fatalf("truncated capture must end cleanly, got %v", err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d, want 0", skipped)
	}
	if fed != len(pkts)-1 {
		t.Fatalf("fed %d records from truncated capture, want %d", fed, len(pkts)-1)
	}
}

func TestFeedPCAPSkipsUndecodable(t *testing.T) {
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf)
	if err := w.WriteFrame(sim.Microsecond, []byte{1, 2, 3}); err != nil { // too short to decode
		t.Fatal(err)
	}
	if err := w.WritePacket(2*sim.Microsecond, seg(false, 1000, 0, packet.FlagSYN, 0, 100)); err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	fed, skipped, err := FeedPCAP(bytes.NewReader(buf.Bytes()), a)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if fed != 1 || skipped != 1 {
		t.Fatalf("fed=%d skipped=%d, want 1/1", fed, skipped)
	}
}

// TestFlowStateBytes pins the per-flow record: every byte of it is
// multiplied by Config.MaxFlows (flowmon.mem_bytes_per_flow), so a field
// needs a reader in Report before it earns its place. 1 144 B while the
// record carried a 32-bin goodput timeline nothing read.
func TestFlowStateBytes(t *testing.T) {
	if n := unsafe.Sizeof(flowState{}); n > 1016 {
		t.Fatalf("flowState is %d B, budget 1016", n)
	}
}

// TestFlowmonAllocBudget is the CI gate: once a flow's slab block exists,
// Observe must cost at most 2 allocations per packet (target 0; the
// budget leaves headroom for histogram growth on first touch).
func TestFlowmonAllocBudget(t *testing.T) {
	pkts := lossyStream(13)
	a := New(Config{})
	at := sim.Time(0)
	for _, p := range pkts { // warm: flows, blocks, histograms
		at += sim.Microsecond
		a.Observe(at, p)
	}
	per := testing.AllocsPerRun(10, func() {
		for _, p := range pkts {
			at += sim.Microsecond
			a.Observe(at, p)
		}
	}) / float64(len(pkts))
	if per > 2 {
		t.Fatalf("Observe allocates %.3f/packet in steady state, budget 2", per)
	}
}
