// Package packet implements wire-format encoding and decoding for the
// protocol layers FlexTOE processes: Ethernet (with optional 802.1Q VLAN
// tags), IPv4 with ECN, and TCP with the options the data-path understands
// (MSS, timestamps, SACK-permitted). The design follows gopacket's layered
// model: each layer decodes from and serializes to raw bytes, and a Packet
// bundles the decoded layers with the payload.
//
// The simulator's fast path passes structured segments between pipeline
// stages, but raw bytes are authoritative wherever the paper's system
// touches raw bytes: XDP/eBPF programs, tcpdump-style capture, checksum
// verification, and connection splicing all operate on serialized packets
// produced by this package.
package packet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// EtherAddr is a 48-bit MAC address.
type EtherAddr [6]byte

func (a EtherAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// MAC builds an EtherAddr from six bytes.
func MAC(a, b, c, d, e, f byte) EtherAddr { return EtherAddr{a, b, c, d, e, f} }

// IPv4Addr is a 32-bit IPv4 address in network byte order.
type IPv4Addr uint32

// IP builds an IPv4Addr from dotted-quad components.
func IP(a, b, c, d byte) IPv4Addr {
	return IPv4Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (ip IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// EtherTypes understood by the data-path.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers.
const (
	ProtoTCP byte = 6
	ProtoUDP byte = 17
)

// ECN codepoints in the low two bits of the IPv4 TOS byte.
const (
	ECNNotECT byte = 0x0
	ECNECT1   byte = 0x1
	ECNECT0   byte = 0x2
	ECNCE     byte = 0x3
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
	FlagURG uint8 = 1 << 5
	FlagECE uint8 = 1 << 6
	FlagCWR uint8 = 1 << 7
)

// TCP option kinds.
const (
	OptEnd       byte = 0
	OptNOP       byte = 1
	OptMSS       byte = 2
	OptWScale    byte = 3
	OptSACKPerm  byte = 4
	OptSACK      byte = 5
	OptTimestamp byte = 8
)

// Header sizes in bytes.
const (
	EthernetHeaderLen = 14
	VLANTagLen        = 4
	IPv4HeaderLen     = 20
	TCPHeaderLen      = 20
	TimestampOptLen   = 12 // 2 NOPs + kind/len/tsval/tsecr
	TCPMaxOptionLen   = 40 // data offset is 4 bits: 60-byte header max
)

// MaxSACKBlocks bounds the SACK blocks a header carries. RFC 2018 allows
// at most 4 in the 40-byte option space; with the timestamp option the
// encoder fits only 3 and truncates from the tail, so the most important
// block must be placed first.
const MaxSACKBlocks = 4

// SACKBlock is one selectively acknowledged range [Start, End) in the
// peer's sequence space (RFC 2018 left/right edge; End is exclusive).
type SACKBlock struct {
	Start, End uint32
}

// Ethernet is the layer-2 header.
type Ethernet struct {
	Dst       EtherAddr
	Src       EtherAddr
	EtherType uint16
}

// VLAN is an 802.1Q tag between the Ethernet header and the payload.
type VLAN struct {
	Priority  uint8  // PCP, 3 bits
	ID        uint16 // VID, 12 bits
	EtherType uint16 // encapsulated ethertype
}

// IPv4 is the layer-3 header (no options supported: the data-path filters
// IP-option packets to the control plane, like the hardware pre-processor).
type IPv4 struct {
	TOS      byte // DSCP<<2 | ECN
	Length   uint16
	ID       uint16
	TTL      byte
	Protocol byte
	Checksum uint16
	Src      IPv4Addr
	Dst      IPv4Addr
}

// ECN returns the ECN codepoint.
func (ip *IPv4) ECN() byte { return ip.TOS & 0x3 }

// SetECN sets the ECN codepoint, preserving DSCP.
func (ip *IPv4) SetECN(c byte) { ip.TOS = ip.TOS&^0x3 | c&0x3 }

// TCP is the layer-4 header.
type TCP struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words
	Flags      uint8
	Window     uint16
	Checksum   uint16
	Urgent     uint16

	// Decoded options (only kinds the data-path understands).
	MSS          uint16 // 0 when absent
	HasTimestamp bool
	TSVal        uint32
	TSEcr        uint32
	SACKPerm     bool
	WScale       int8 // -1 when absent

	// SACK blocks (kind 5). The array is fixed so the hot-path decode
	// stays allocation-free; NumSACK counts the valid prefix.
	SACKBlocks [MaxSACKBlocks]SACKBlock
	NumSACK    uint8
}

// AddSACK appends a SACK block, dropping silently at capacity.
func (t *TCP) AddSACK(b SACKBlock) {
	if t.NumSACK < MaxSACKBlocks {
		t.SACKBlocks[t.NumSACK] = b
		t.NumSACK++
	}
}

// HasFlag reports whether all bits in f are set.
func (t *TCP) HasFlag(f uint8) bool { return t.Flags&f == f }

// IsDataPath reports whether the segment belongs to the offloaded
// data-path. Per §3.1.3, data-path segments carry any of ACK, FIN, PSH,
// ECE, CWR and none of SYN/RST; SYN and RST segments go to the
// control plane.
func (t *TCP) IsDataPath() bool {
	if t.Flags&(FlagSYN|FlagRST) != 0 {
		return false
	}
	return t.Flags&(FlagACK|FlagFIN|FlagPSH|FlagECE|FlagCWR) != 0
}

// Flow identifies a TCP connection by its 4-tuple. The flow's protocol is
// implicitly TCP (the paper ignores the protocol field in the hash).
type Flow struct {
	SrcIP   IPv4Addr
	DstIP   IPv4Addr
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the flow seen from the other endpoint.
func (f Flow) Reverse() Flow {
	return Flow{SrcIP: f.DstIP, DstIP: f.SrcIP, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// ieeeTable backs Flow.Hash's inline CRC-32 (identical to
// crc32.ChecksumIEEE; see TestFlowHashMatchesCRC32).
var ieeeTable = crc32.MakeTable(crc32.IEEE)

// Hash returns the CRC-32 hash of the 4-tuple, matching the pre-processor's
// use of the NFP lookup engine's CRC-32 unit (§4.1). The byte-at-a-time
// loop is local so the scratch buffer stays on the stack (ChecksumIEEE
// dispatches through a function pointer, which forces it to escape —
// three heap allocations per simulated segment on the old path).
func (f Flow) Hash() uint32 {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:], uint32(f.SrcIP))
	binary.BigEndian.PutUint32(b[4:], uint32(f.DstIP))
	binary.BigEndian.PutUint16(b[8:], f.SrcPort)
	binary.BigEndian.PutUint16(b[10:], f.DstPort)
	crc := ^uint32(0)
	for _, c := range b {
		crc = ieeeTable[byte(crc)^c] ^ (crc >> 8)
	}
	return ^crc
}

// FlowGroup maps the flow to one of n flow-group islands (§3.1).
func (f Flow) FlowGroup(n int) int { return HashGroup(f.Hash(), n) }

// HashGroup is FlowGroup for a caller that already holds hash ==
// f.Hash(), read off the segment (Packet.FlowHash / RevFlowHash).
func HashGroup(hash uint32, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hash % uint32(n))
}

func (f Flow) String() string {
	return fmt.Sprintf("%v:%d>%v:%d", f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}
