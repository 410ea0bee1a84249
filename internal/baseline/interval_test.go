package baseline

import (
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/tcpseg"
)

// The interval-set implementation itself lives in tcpseg (shared with the
// FlexTOE protocol stage) and is property-tested there; these tests cover
// the baseline-side policy wiring and the circular-buffer/sequence
// helpers.

func TestProfileOOOIntervalDefaults(t *testing.T) {
	l, ta, ch := LinuxProfile(), TASProfile(), ChelsioProfile()
	if l.oooIvs() != 32 {
		t.Fatalf("Linux/SACK intervals = %d, want 32", l.oooIvs())
	}
	if ta.oooIvs() != 1 {
		t.Fatalf("TAS/GBN intervals = %d, want 1", ta.oooIvs())
	}
	if ch.oooIvs() != 0 {
		t.Fatalf("Chelsio/Discard intervals = %d, want 0", ch.oooIvs())
	}
	// Explicit override wins (the multi-interval generalization knob).
	ta.OOOIntervals = 4
	if ta.oooIvs() != 4 {
		t.Fatalf("override = %d, want 4", ta.oooIvs())
	}
}

func TestBaselineIntervalPolicy(t *testing.T) {
	// GBN keeps one interval: disjoint OOO payload is rejected.
	tas, linux := TASProfile(), LinuxProfile()
	var ivs []tcpseg.SeqInterval
	ivs, r := tcpseg.InsertSeqInterval(ivs, tcpseg.SeqInterval{Start: 100, End: 200}, tas.oooIvs())
	if !r.Accepted {
		t.Fatal("first interval rejected")
	}
	ivs, r = tcpseg.InsertSeqInterval(ivs, tcpseg.SeqInterval{Start: 300, End: 400}, tas.oooIvs())
	if r.Accepted {
		t.Fatal("GBN accepted a second disjoint interval")
	}
	// SACK-style capacity takes it.
	ivs, r = tcpseg.InsertSeqInterval(ivs, tcpseg.SeqInterval{Start: 300, End: 400}, linux.oooIvs())
	if !r.Accepted || len(ivs) != 2 {
		t.Fatalf("SACK insert failed: %v %+v", ivs, r)
	}
}

// TestSACKAdvertisementRotation pins the RFC 2018 ordering rules for a
// receiver tracking more holes than the wire can carry: the first block
// always holds the most recently received segment, and consecutive ACKs
// rotate the older holes through the remaining slots so every hole is
// advertised within ceil(k/(MaxSACKBlocks-1)) ACKs — the Fig. 15e
// scenario where the Linux receiver's 32 intervals meet the 4-block
// option space.
func TestSACKAdvertisementRotation(t *testing.T) {
	c := &bconn{irs: 1000}
	// Six disjoint holes; the most recent arrival extended the fourth.
	for i := 0; i < 6; i++ {
		c.ivs = append(c.ivs, tcpseg.SeqInterval{Start: uint32(100 * (i + 1)), End: uint32(100*(i+1) + 50)})
	}
	c.lastOOO = c.ivs[3].Start

	blockSet := func() map[uint32]bool {
		var tcp packet.TCP
		c.appendSACK(&tcp)
		if tcp.NumSACK != packet.MaxSACKBlocks {
			t.Fatalf("advertised %d blocks, want %d", tcp.NumSACK, packet.MaxSACKBlocks)
		}
		if tcp.SACKBlocks[0].Start != c.irs+c.ivs[3].Start {
			t.Fatalf("first block %d: most recent interval must lead", tcp.SACKBlocks[0].Start-c.irs)
		}
		seen := make(map[uint32]bool)
		for i := uint8(0); i < tcp.NumSACK; i++ {
			seen[tcp.SACKBlocks[i].Start-c.irs] = true
		}
		return seen
	}

	// Across two consecutive ACKs the rotation must expose every one of
	// the six holes (1 recent + 3 rotating slots per ACK).
	all := blockSet()
	for s := range blockSet() {
		all[s] = true
	}
	for _, iv := range c.ivs {
		if !all[iv.Start] {
			t.Fatalf("hole at %d never advertised across two ACKs: %v", iv.Start, all)
		}
	}

	// A single-hole set advertises exactly that hole.
	c.ivs = c.ivs[:1]
	c.lastOOO = c.ivs[0].Start
	var tcp packet.TCP
	c.appendSACK(&tcp)
	if tcp.NumSACK != 1 || tcp.SACKBlocks[0].Start != c.irs+100 {
		t.Fatalf("single hole advertisement wrong: %+v", tcp.SACKBlocks[:tcp.NumSACK])
	}
}

func TestSeqUnwrapping(t *testing.T) {
	c := &bconn{iss: 0xfffffff0, irs: 0xffffff00}
	// Sender: offset 0x20 wraps past 2^32.
	if got := c.sndSeq(0x20); got != 0x10 {
		t.Fatalf("sndSeq = %#x", got)
	}
	// Receiver: a segment shortly after the wrapped irs.
	c.rcvd = 0x100 // rcv.nxt at irs+0x100 = 0x0
	if got, ok := c.rcvOff(0x10); got != 0x110 || !ok {
		t.Fatalf("rcvOff = %#x, %v", got, ok)
	}
	// Ack unwrapping.
	c.una = 0x10 // una seq = 0x0
	if got, ok := c.ackOff(0x8); got != 0x18 || !ok {
		t.Fatalf("ackOff = %#x, %v", got, ok)
	}
	// Behind the receive point but inside the stream: still a valid
	// offset. One byte before the stream began: rejected.
	if got, ok := c.rcvOff(0xffffff00); got != 0 || !ok {
		t.Fatalf("rcvOff(irs) = %#x, %v", got, ok)
	}
	if _, ok := c.rcvOff(0xfffffeff); ok {
		t.Fatal("rcvOff(irs-1) accepted")
	}
	if _, ok := c.ackOff(0xffffffef); ok {
		t.Fatal("ackOff(iss-1) accepted")
	}
}

func TestProfilesDistinct(t *testing.T) {
	l, ta, ch := LinuxProfile(), TASProfile(), ChelsioProfile()
	if l.Recovery != RecoverySACK || ta.Recovery != RecoveryGBN || ch.Recovery != RecoveryDiscard {
		t.Fatal("recovery policies wrong")
	}
	if !ch.ASIC || l.ASIC || ta.ASIC {
		t.Fatal("ASIC flags wrong")
	}
	if ta.StackCores == 0 {
		t.Fatal("TAS must have dedicated fast-path cores")
	}
	// Table 1 ordering: Linux is the most expensive per segment, TAS the
	// cheapest host-TCP.
	linuxPerSeg := l.DriverPerSeg + l.TCPPerSeg + l.OtherPerSeg
	tasPerSeg := ta.DriverPerSeg + ta.TCPPerSeg + ta.OtherPerSeg
	if linuxPerSeg <= tasPerSeg {
		t.Fatal("Linux per-segment cost should exceed TAS")
	}
	if p := ChelsioProfile(); p.mss() != 1448 {
		t.Fatalf("default MSS = %d", p.mss())
	}
}
