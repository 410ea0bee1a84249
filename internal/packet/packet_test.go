package packet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Eth: Ethernet{
			Dst:       MAC(0x02, 0, 0, 0, 0, 2),
			Src:       MAC(0x02, 0, 0, 0, 0, 1),
			EtherType: EtherTypeIPv4,
		},
		IP: IPv4{
			TTL:      64,
			Protocol: ProtoTCP,
			Src:      IP(10, 0, 0, 1),
			Dst:      IP(10, 0, 0, 2),
		},
		TCP: TCP{
			SrcPort:      40000,
			DstPort:      11211,
			Seq:          12345,
			Ack:          67890,
			Flags:        FlagACK | FlagPSH,
			Window:       65535,
			HasTimestamp: true,
			TSVal:        111,
			TSEcr:        222,
			WScale:       -1,
		},
		Payload: []byte("hello flextoe"),
	}
}

func TestSerializeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	if len(frame) != p.WireLen() {
		t.Fatalf("frame len %d != WireLen %d", len(frame), p.WireLen())
	}
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.Eth.Src != p.Eth.Src || q.Eth.Dst != p.Eth.Dst {
		t.Fatal("eth mismatch")
	}
	if q.IP.Src != p.IP.Src || q.IP.Dst != p.IP.Dst {
		t.Fatal("ip mismatch")
	}
	if q.TCP.SrcPort != p.TCP.SrcPort || q.TCP.DstPort != p.TCP.DstPort {
		t.Fatal("port mismatch")
	}
	if q.TCP.Seq != p.TCP.Seq || q.TCP.Ack != p.TCP.Ack {
		t.Fatal("seq/ack mismatch")
	}
	if q.TCP.Flags != p.TCP.Flags {
		t.Fatal("flags mismatch")
	}
	if !q.TCP.HasTimestamp || q.TCP.TSVal != 111 || q.TCP.TSEcr != 222 {
		t.Fatalf("timestamp mismatch: %+v", q.TCP)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q", q.Payload)
	}
}

func TestChecksumsValid(t *testing.T) {
	p := samplePacket()
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	if err := VerifyChecksums(frame); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	p := samplePacket()
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	// Flip a payload byte.
	frame[len(frame)-3] ^= 0xff
	if err := VerifyChecksums(frame); err == nil {
		t.Fatal("corruption not detected")
	}
	// Flip an IP header byte.
	frame2 := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	frame2[EthernetHeaderLen+8] ^= 0x01 // TTL
	if err := VerifyChecksums(frame2); err == nil {
		t.Fatal("IP header corruption not detected")
	}
}

func TestVLANRoundTrip(t *testing.T) {
	p := samplePacket()
	p.VLAN = &VLAN{Priority: 3, ID: 42, EtherType: EtherTypeIPv4}
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.VLAN == nil {
		t.Fatal("VLAN tag lost")
	}
	if q.VLAN.ID != 42 || q.VLAN.Priority != 3 {
		t.Fatalf("VLAN = %+v", q.VLAN)
	}
	if err := VerifyChecksums(frame); err != nil {
		t.Fatal(err)
	}
	if len(frame) != p.WireLen() {
		t.Fatalf("vlan frame len %d != WireLen %d", len(frame), p.WireLen())
	}
}

func TestMSSAndSACKPermOptions(t *testing.T) {
	p := samplePacket()
	p.TCP.HasTimestamp = false
	p.TCP.MSS = 1448
	p.TCP.SACKPerm = true
	p.TCP.WScale = 7
	p.TCP.Flags = FlagSYN
	p.Payload = nil
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP.MSS != 1448 {
		t.Fatalf("MSS = %d", q.TCP.MSS)
	}
	if !q.TCP.SACKPerm {
		t.Fatal("SACKPerm lost")
	}
	if q.TCP.WScale != 7 {
		t.Fatalf("WScale = %d", q.TCP.WScale)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := samplePacket()
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	for _, n := range []int{0, 5, 13, 20, 33, 40, 53} {
		if n >= len(frame) {
			continue
		}
		if _, err := Decode(frame[:n]); err == nil {
			t.Fatalf("truncation at %d not detected", n)
		}
	}
}

func TestDecodeNonIPv4(t *testing.T) {
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	if _, err := Decode(frame); err != ErrNotIPv4 {
		t.Fatalf("err = %v", err)
	}
}

func TestIsDataPath(t *testing.T) {
	cases := []struct {
		flags uint8
		want  bool
	}{
		{FlagACK, true},
		{FlagACK | FlagPSH, true},
		{FlagFIN | FlagACK, true},
		{FlagECE | FlagACK, true},
		{FlagSYN, false},
		{FlagSYN | FlagACK, false},
		{FlagRST, false},
		{FlagRST | FlagACK, false},
		{0, false},
	}
	for _, c := range cases {
		tcp := TCP{Flags: c.flags}
		if got := tcp.IsDataPath(); got != c.want {
			t.Errorf("IsDataPath(flags=%08b) = %v, want %v", c.flags, got, c.want)
		}
	}
}

func TestFlowReverseInvolution(t *testing.T) {
	f := Flow{SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2), SrcPort: 1234, DstPort: 80}
	if f.Reverse().Reverse() != f {
		t.Fatal("Reverse is not an involution")
	}
	if f.Reverse() == f {
		t.Fatal("Reverse is identity")
	}
}

func TestFlowGroupStable(t *testing.T) {
	f := Flow{SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2), SrcPort: 1234, DstPort: 80}
	g := HashGroup(f.Hash(), 4)
	for i := 0; i < 10; i++ {
		if HashGroup(f.Hash(), 4) != g {
			t.Fatal("flow group unstable")
		}
	}
	if g < 0 || g >= 4 {
		t.Fatalf("flow group out of range: %d", g)
	}
}

func TestFlowGroupDistribution(t *testing.T) {
	counts := make([]int, 4)
	for port := 1000; port < 5000; port++ {
		f := Flow{SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2), SrcPort: uint16(port), DstPort: 80}
		counts[HashGroup(f.Hash(), 4)]++
	}
	for g, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("flow group %d has %d/4000 flows (poor distribution)", g, c)
		}
	}
}

func TestECNCodepoints(t *testing.T) {
	ip := IPv4{TOS: 0xb8} // DSCP EF, Not-ECT
	if ip.ECN() != ECNNotECT {
		t.Fatalf("ECN = %d", ip.ECN())
	}
	ip.SetECN(ECNCE)
	if ip.ECN() != ECNCE {
		t.Fatalf("ECN = %d", ip.ECN())
	}
	if ip.TOS>>2 != 0xb8>>2 {
		t.Fatal("SetECN clobbered DSCP")
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	// Property: serialize→decode recovers header fields and payload for
	// arbitrary field values.
	f := func(seq, ack uint32, sport, dport uint16, win uint16, payload []byte) bool {
		if len(payload) > 1448 {
			payload = payload[:1448]
		}
		p := samplePacket()
		p.TCP.Seq = seq
		p.TCP.Ack = ack
		p.TCP.SrcPort = sport
		p.TCP.DstPort = dport
		p.TCP.Window = win
		p.Payload = payload
		frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
		q, err := Decode(frame)
		if err != nil {
			return false
		}
		if VerifyChecksums(frame) != nil {
			return false
		}
		return q.TCP.Seq == seq && q.TCP.Ack == ack &&
			q.TCP.SrcPort == sport && q.TCP.DstPort == dport &&
			q.TCP.Window == win && bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSACKOptionRoundTrip(t *testing.T) {
	p := samplePacket()
	p.TCP.AddSACK(SACKBlock{Start: 1000, End: 2000})
	p.TCP.AddSACK(SACKBlock{Start: 3000, End: 3500})
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	if err := VerifyChecksums(frame); err != nil {
		t.Fatal(err)
	}
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP.NumSACK != 2 {
		t.Fatalf("NumSACK = %d", q.TCP.NumSACK)
	}
	if q.TCP.SACKBlocks[0] != (SACKBlock{1000, 2000}) || q.TCP.SACKBlocks[1] != (SACKBlock{3000, 3500}) {
		t.Fatalf("blocks = %v", q.TCP.SACKBlocks[:2])
	}
	if !q.TCP.HasTimestamp || q.TCP.TSVal != 111 {
		t.Fatalf("timestamp lost alongside SACK: %+v", q.TCP)
	}
}

func TestSACKOptionSpaceTruncation(t *testing.T) {
	// With the 10-byte timestamp option, only 3 of 4 blocks fit in the
	// 40-byte option space; the tail is dropped (senders put the most
	// recent block first, so the fresh news always survives).
	p := samplePacket()
	for i := uint32(0); i < 4; i++ {
		p.TCP.AddSACK(SACKBlock{Start: 1000 * (i + 1), End: 1000*(i+1) + 500})
	}
	frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	q, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP.NumSACK != 3 {
		t.Fatalf("NumSACK with timestamps = %d, want 3", q.TCP.NumSACK)
	}
	for i := 0; i < 3; i++ {
		if q.TCP.SACKBlocks[i] != p.TCP.SACKBlocks[i] {
			t.Fatalf("block %d = %v", i, q.TCP.SACKBlocks[i])
		}
	}
	// Without timestamps all 4 fit.
	p.TCP.HasTimestamp = false
	frame = p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
	if q, err = Decode(frame); err != nil {
		t.Fatal(err)
	}
	if q.TCP.NumSACK != 4 {
		t.Fatalf("NumSACK without timestamps = %d, want 4", q.TCP.NumSACK)
	}
	// A fifth block is silently refused at the API boundary.
	p.TCP.AddSACK(SACKBlock{Start: 9000, End: 9500})
	if p.TCP.NumSACK != 4 {
		t.Fatalf("AddSACK overflowed: %d", p.TCP.NumSACK)
	}
}

func TestSACKOptionRoundTripProperty(t *testing.T) {
	// Property: for arbitrary block sets and option combinations, the
	// encoded header stays within the 40-byte option space and decode
	// recovers exactly the blocks that fit, in order.
	f := func(nRaw uint8, starts, lens [MaxSACKBlocks]uint32, ts bool, payload []byte) bool {
		if len(payload) > 1448 {
			payload = payload[:1448]
		}
		n := int(nRaw) % (MaxSACKBlocks + 1)
		p := samplePacket()
		p.TCP.HasTimestamp = ts
		p.Payload = payload
		for i := 0; i < n; i++ {
			p.TCP.AddSACK(SACKBlock{Start: starts[i], End: starts[i] + lens[i]})
		}
		frame := p.Serialize(SerializeOptions{FixLengths: true, ComputeChecksums: true})
		if VerifyChecksums(frame) != nil {
			return false
		}
		q, err := Decode(frame)
		if err != nil {
			return false
		}
		want := n
		if max := 4; ts {
			max = 3
			if want > max {
				want = max
			}
		}
		if int(q.TCP.NumSACK) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if q.TCP.SACKBlocks[i] != p.TCP.SACKBlocks[i] {
				return false
			}
		}
		return bytes.Equal(q.Payload, payload) && q.TCP.tcpOptionsLen() <= TCPMaxOptionLen
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(0x5ac4b10c))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAddrStrings(t *testing.T) {
	if got := IP(192, 168, 1, 20).String(); got != "192.168.1.20" {
		t.Fatalf("IP string = %q", got)
	}
	if got := MAC(0xde, 0xad, 0xbe, 0xef, 0, 1).String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC string = %q", got)
	}
	f := Flow{SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2), SrcPort: 5, DstPort: 6}
	if got := f.String(); got != "10.0.0.1:5>10.0.0.2:6" {
		t.Fatalf("Flow string = %q", got)
	}
}

// TestFlowHashMatchesCRC32 pins Flow.Hash's inline table loop to the
// standard library's crc32.ChecksumIEEE (the flow-group steering and
// lookup keys must not change).
func TestFlowHashMatchesCRC32(t *testing.T) {
	for i := 0; i < 1000; i++ {
		f := Flow{
			SrcIP:   IPv4Addr(i * 2654435761),
			DstIP:   IPv4Addr(i*40503 + 7),
			SrcPort: uint16(i * 31),
			DstPort: uint16(i*17 + 3),
		}
		var b [12]byte
		binary.BigEndian.PutUint32(b[0:], uint32(f.SrcIP))
		binary.BigEndian.PutUint32(b[4:], uint32(f.DstIP))
		binary.BigEndian.PutUint16(b[8:], f.SrcPort)
		binary.BigEndian.PutUint16(b[10:], f.DstPort)
		if got, want := f.Hash(), crc32.ChecksumIEEE(b[:]); got != want {
			t.Fatalf("Hash(%v) = %#x, crc32 = %#x", f, got, want)
		}
	}
}
