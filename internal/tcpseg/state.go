package tcpseg

import (
	"encoding/binary"

	"flextoe/internal/packet"
)

// WindowScale is the fixed window-scale shift FlexTOE's control plane
// negotiates on every connection, so the 16-bit remote_win field in the
// protocol state covers up to 8 MB of in-flight data.
const WindowScale = 7

// PreState is the pre-processor's partition of connection state:
// connection identification for header preparation and filtering (Table 5,
// 15 bytes). Read-only after connection establishment.
type PreState struct {
	PeerMAC    packet.EtherAddr
	PeerIP     packet.IPv4Addr
	LocalIP    packet.IPv4Addr // implicit in the paper (NIC-global); kept per-conn for multi-host sims
	LocalPort  uint16
	RemotePort uint16
	FlowGroup  uint8 // hash(4-tuple) & (flow groups - 1), 2 bits on the Agilio
}

// preStateWire is the packed wire size of the Table 5 pre-processor
// partition (peer MAC 48b + peer IP 32b + ports 32b + flow group 2b,
// rounded up): 15 bytes.
const preStateWire = 15

// MarshalTable5 packs the paper's pre-processor fields (LocalIP excluded:
// the Agilio stores it NIC-globally).
func (s *PreState) MarshalTable5() []byte {
	b := make([]byte, preStateWire)
	copy(b[0:6], s.PeerMAC[:])
	binary.BigEndian.PutUint32(b[6:10], uint32(s.PeerIP))
	binary.BigEndian.PutUint16(b[10:12], s.LocalPort)
	binary.BigEndian.PutUint16(b[12:14], s.RemotePort)
	b[14] = s.FlowGroup & 0x3
	return b
}

// Proto state flags. Only the low nibble is part of the packed Table 5
// state; the higher bits are extensions the marshaller drops.
const (
	flagFinPending uint16 = 1 << 0 // local close requested, FIN not yet sent
	flagFinSent    uint16 = 1 << 1 // FIN transmitted (occupies one seq)
	flagFinAcked   uint16 = 1 << 2 // our FIN acknowledged
	flagFinRx      uint16 = 1 << 3 // peer FIN consumed
	flagECNSeen    uint16 = 1 << 4 // CE observed since last ACK sent
	// flagFinEverTx: some copy of our FIN has been on the wire, even if
	// a go-back-N reset has since rewound flagFinSent. Only then can an
	// ack of the FIN's sequence slot be legitimate.
	flagFinEverTx uint16 = 1 << 5
	// flagSACKPerm: both SYNs carried SACK-permitted; ACKs advertise the
	// out-of-order interval set and incoming SACK blocks feed the
	// sender-side scoreboard.
	flagSACKPerm uint16 = 1 << 6
	// flagSACKRenege: the scoreboard could not hold every reported block,
	// so it understates what the peer holds; loss recovery must fall back
	// to go-back-N until the scoreboard drains (RFC 2018 conservatism).
	flagSACKRenege uint16 = 1 << 7
	// flagFinOOO: a FIN arrived beyond a reassembly hole; its sequence
	// slot is remembered in FinOOOSeq and consumed when the cumulative
	// ack reaches it, without waiting for a FIN retransmission.
	flagFinOOO uint16 = 1 << 8
	// flagSACKRecovery: a selective fast retransmit is in progress;
	// HighRetx bounds what has been queued for repair so far, and
	// partial acks / further SACK blocks extend the repair instead of
	// waiting for three fresh duplicate ACKs (RFC 6675).
	flagSACKRecovery uint16 = 1 << 9
)

// ProtoState is the protocol stage's partition: the TCP state machine
// (Table 5, 43 bytes). The protocol stage is the only pipeline stage that
// mutates it, and does so atomically per connection.
type ProtoState struct {
	RxPos     uint32 // RX buffer head: offset where the next in-order byte lands
	TxPos     uint32 // TX buffer head: offset of the next byte to transmit
	TxAvail   uint32 // bytes in the TX buffer not yet transmitted
	RxAvail   uint32 // free RX buffer space measured from Ack
	RemoteWin uint16 // peer receive window, scaled by WindowScale
	TxSent    uint32 // transmitted but unacknowledged bytes
	Seq       uint32 // next local sequence number to transmit
	TxMax     uint32 // highest sequence number ever transmitted (SND.MAX)
	Ack       uint32 // next expected remote sequence number (RCV.NXT)
	DupAcks   uint8  // duplicate-ACK count (4 bits in hardware)
	NextTS    uint32 // peer timestamp to echo in ACKs
	Flags     uint16 // connection lifecycle bits (above)

	// Out-of-order reassembly: a sorted, disjoint set of received ranges
	// beyond Ack. OOOCap is the policy limit (0 or 1 = the paper's
	// single-interval Table 5 budget; up to MaxOOOIntervals). Only the
	// head interval is part of the packed Table 5 state.
	OOO    [MaxOOOIntervals]SeqInterval
	OOOCnt uint8
	OOOCap uint8

	// FinOOOSeq is the remembered sequence slot of an out-of-order FIN
	// (valid while flagFinOOO is set): the octet after the peer's last
	// data byte.
	FinOOOSeq uint32

	// SACK scoreboard (sender side, RFC 2018): a sorted, disjoint set of
	// peer-held ranges in (SND.UNA, SND.MAX], reported by incoming SACK
	// blocks and trimmed as the cumulative ack advances. Same bounded
	// representation as the receive interval set, so the Table 5 state
	// delta is 8 B per interval in use (see MarshalSACKExtension).
	SACKScore [MaxOOOIntervals]SeqInterval
	SACKCnt   uint8

	// Selective-retransmit queue: the holes between scoreboard intervals
	// that the dup-ack path decided to repair. ProcessTX drains it ahead
	// of new data, one MSS per call. At most SACKCnt+1 holes exist.
	RetxQ   [MaxOOOIntervals + 1]SeqInterval
	RetxCnt uint8

	// HighRetx is RFC 6675's HighRxt: the highest sequence queued for
	// selective retransmission in the current recovery episode (valid
	// while flagSACKRecovery is set), so continued recovery never
	// re-queues a hole it already repaired.
	HighRetx uint32
}

// oooCap returns the effective interval-set capacity.
func (s *ProtoState) oooCap() int {
	if s.OOOCap == 0 {
		return 1
	}
	if s.OOOCap > MaxOOOIntervals {
		return MaxOOOIntervals
	}
	return int(s.OOOCap)
}

// OOOIntervals returns the live out-of-order interval set (aliases the
// state; callers must not retain it across ProcessRX calls).
func (s *ProtoState) OOOIntervals() []SeqInterval { return s.OOO[:s.OOOCnt] }

// setOOO copies an interval slice (possibly aliasing a suffix of the
// backing array, as MergeAdvance returns) back down into the state.
func (s *ProtoState) setOOO(ivs []SeqInterval) {
	s.OOOCnt = uint8(copy(s.OOO[:], ivs))
}

// SACKIntervals returns the live sender-side scoreboard (aliases the
// state; callers must not retain it across ProcessRX calls).
func (s *ProtoState) SACKIntervals() []SeqInterval { return s.SACKScore[:s.SACKCnt] }

func (s *ProtoState) setSACK(ivs []SeqInterval) {
	s.SACKCnt = uint8(copy(s.SACKScore[:], ivs))
}

// SACKEnabled reports whether the connection negotiated SACK-permitted.
func (s *ProtoState) SACKEnabled() bool { return s.Flags&flagSACKPerm != 0 }

// SetSACKPerm records the handshake's SACK negotiation result (control
// plane, at establishment).
func (s *ProtoState) SetSACKPerm(on bool) {
	if on {
		s.Flags |= flagSACKPerm
	} else {
		s.Flags &^= flagSACKPerm
	}
}

// protoStateWire is the packed Table 5 size of the protocol partition:
// 43 bytes.
const protoStateWire = 43

// MarshalTable5 packs the protocol partition with the paper's field
// widths. The lifecycle flags share the dup-ACK byte's upper nibble, as
// the 4-bit dupack_cnt field implies. Only the head out-of-order interval
// is packed (the paper's ooo_start/ooo_len); additional intervals are an
// extension beyond the Table 5 budget and marshalled separately by
// MarshalOOOExtension.
func (s *ProtoState) MarshalTable5() []byte {
	b := make([]byte, protoStateWire)
	binary.BigEndian.PutUint32(b[0:], s.RxPos)
	binary.BigEndian.PutUint32(b[4:], s.TxPos)
	binary.BigEndian.PutUint32(b[8:], s.TxAvail)
	binary.BigEndian.PutUint32(b[12:], s.RxAvail)
	binary.BigEndian.PutUint16(b[16:], s.RemoteWin)
	binary.BigEndian.PutUint32(b[18:], s.TxSent)
	binary.BigEndian.PutUint32(b[22:], s.Seq)
	binary.BigEndian.PutUint32(b[26:], s.Ack)
	var headStart, headLen uint32
	if s.OOOCnt > 0 {
		headStart = s.OOO[0].Start
		headLen = uint32(SeqDiff(s.OOO[0].End, s.OOO[0].Start))
	}
	binary.BigEndian.PutUint32(b[30:], headStart)
	binary.BigEndian.PutUint32(b[34:], headLen)
	b[38] = s.DupAcks&0xf | byte(s.Flags<<4)&0xf0
	binary.BigEndian.PutUint32(b[39:], s.NextTS)
	return b
}

// MarshalOOOExtension packs intervals beyond the first: 8 bytes per extra
// interval actually in use. Empty for the paper's N=1 configuration, so
// the Table 5 budget is preserved exactly there.
func (s *ProtoState) MarshalOOOExtension() []byte {
	if s.OOOCnt <= 1 {
		return nil
	}
	b := make([]byte, 8*(int(s.OOOCnt)-1))
	for i := 1; i < int(s.OOOCnt); i++ {
		binary.BigEndian.PutUint32(b[8*(i-1):], s.OOO[i].Start)
		binary.BigEndian.PutUint32(b[8*(i-1)+4:], uint32(SeqDiff(s.OOO[i].End, s.OOO[i].Start)))
	}
	return b
}

// MarshalSACKExtension packs the sender-side scoreboard: 8 bytes per
// interval actually in use. Empty when SACK is not negotiated or no loss
// is outstanding, so the Table 5 budget is preserved exactly there.
func (s *ProtoState) MarshalSACKExtension() []byte {
	if s.SACKCnt == 0 {
		return nil
	}
	b := make([]byte, 8*int(s.SACKCnt))
	for i := 0; i < int(s.SACKCnt); i++ {
		binary.BigEndian.PutUint32(b[8*i:], s.SACKScore[i].Start)
		binary.BigEndian.PutUint32(b[8*i+4:], uint32(SeqDiff(s.SACKScore[i].End, s.SACKScore[i].Start)))
	}
	return b
}

// UnackedBase returns SND.UNA: the oldest unacknowledged sequence number.
func (s *ProtoState) UnackedBase() uint32 { return s.Seq - s.TxSent }

// RemoteWindowBytes returns the peer's receive window in bytes.
func (s *ProtoState) RemoteWindowBytes() uint32 {
	return uint32(s.RemoteWin) << WindowScale
}

// LocalWindow returns the window to advertise, scaled for the header.
func (s *ProtoState) LocalWindow() uint16 {
	w := s.RxAvail >> WindowScale
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

// FinRx reports whether the peer's FIN has been consumed.
func (s *ProtoState) FinRx() bool { return s.Flags&flagFinRx != 0 }

// FinAcked reports whether our FIN has been acknowledged.
func (s *ProtoState) FinAcked() bool { return s.Flags&flagFinAcked != 0 }

// FinSent reports whether our FIN has been transmitted.
func (s *ProtoState) FinSent() bool { return s.Flags&flagFinSent != 0 }

// FinPending reports whether a local close waits for its FIN to go out.
func (s *ProtoState) FinPending() bool { return s.Flags&flagFinPending != 0 }

// PostState is the post-processor's partition: application interface and
// congestion-control accounting (Table 5, 51 bytes). Read-mostly; the
// counters are only incremented (updates commute, §3.1).
type PostState struct {
	Opaque   uint64 // application connection identifier
	Context  uint16 // context-queue id (application thread)
	RxBase   uint64 // host physical address of RX payload buffer
	TxBase   uint64 // host physical address of TX payload buffer
	RxSize   uint32 // RX buffer size (power of two)
	TxSize   uint32 // TX buffer size (power of two)
	CntACKB  uint32 // acknowledged bytes since last control-plane poll
	CntECNB  uint32 // ECN-marked acknowledged bytes since last poll
	CntFRetx uint8  // fast-retransmit count since last poll
	RTTEst   uint32 // RTT estimate from timestamps, microseconds
	Rate     uint32 // configured transmit rate, kbit/s (0 = unlimited)
}

// postStateWire is the packed Table 5 size of the post partition: 51 bytes.
const postStateWire = 51

// MarshalTable5 packs the post-processor partition.
func (s *PostState) MarshalTable5() []byte {
	b := make([]byte, postStateWire)
	binary.BigEndian.PutUint64(b[0:], s.Opaque)
	binary.BigEndian.PutUint16(b[8:], s.Context)
	binary.BigEndian.PutUint64(b[10:], s.RxBase)
	binary.BigEndian.PutUint64(b[18:], s.TxBase)
	binary.BigEndian.PutUint32(b[26:], s.RxSize)
	binary.BigEndian.PutUint32(b[30:], s.TxSize)
	binary.BigEndian.PutUint32(b[34:], s.CntACKB)
	binary.BigEndian.PutUint32(b[38:], s.CntECNB)
	b[42] = s.CntFRetx
	binary.BigEndian.PutUint32(b[43:], s.RTTEst)
	binary.BigEndian.PutUint32(b[47:], s.Rate)
	return b
}

// TotalTable5Bytes is the aggregate per-connection state footprint,
// matching Table 5's total (the paper reports 108 B from raw bit widths;
// byte-aligned packing gives 15+43+51 = 109 B).
const TotalTable5Bytes = preStateWire + protoStateWire + postStateWire

// SegInfo is the pre-processor's header summary (§3.1.3 "Sum"): only the
// fields later pipeline stages need, so the protocol stage never touches
// the raw packet.
type SegInfo struct {
	Flow       packet.Flow
	Seq        uint32
	Ack        uint32
	Flags      uint8
	Window     uint16
	PayloadLen uint32
	HasTS      bool
	TSVal      uint32
	TSEcr      uint32
	ECNCE      bool // IP header carried Congestion Experienced

	// SACK blocks carried in the header (valid prefix of length SACKCnt).
	SACK    [packet.MaxSACKBlocks]SeqInterval
	SACKCnt uint8
}

// Summarize extracts a SegInfo from a decoded packet.
func Summarize(p *packet.Packet) SegInfo {
	s := SegInfo{
		Flow:       p.Flow(),
		Seq:        p.TCP.Seq,
		Ack:        p.TCP.Ack,
		Flags:      p.TCP.Flags,
		Window:     p.TCP.Window,
		PayloadLen: uint32(len(p.Payload)),
		HasTS:      p.TCP.HasTimestamp,
		TSVal:      p.TCP.TSVal,
		TSEcr:      p.TCP.TSEcr,
		ECNCE:      p.IP.ECN() == packet.ECNCE,
	}
	for i := uint8(0); i < p.TCP.NumSACK; i++ {
		s.SACK[i] = SeqInterval{Start: p.TCP.SACKBlocks[i].Start, End: p.TCP.SACKBlocks[i].End}
	}
	s.SACKCnt = p.TCP.NumSACK
	return s
}
