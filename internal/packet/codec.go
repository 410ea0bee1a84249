package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Packet bundles decoded layers with the TCP payload. Nil layer pointers
// mean the layer is absent.
//
// Packets on the simulated wire are single-owner objects: building and
// sending one transfers it to the fabric, and whoever terminates its
// journey (the consuming stack, or a drop point) calls Release exactly
// once. See Get/Release in pool.go for the recycling contract.
type Packet struct {
	Eth     Ethernet
	VLAN    *VLAN
	IP      IPv4
	TCP     TCP
	Payload []byte

	// buf is the retained payload backing of a pooled packet (GrowPayload
	// carves Payload from it); pooled marks packets obtained from a Pool
	// so Release is a safe no-op on ordinary &Packet{} literals; pool is
	// the pool the packet was drawn from.
	buf    []byte
	pooled bool
	pool   *Pool

	// Flow-hash memo (FlowHash/RevFlowHash): hashFlow is the 4-tuple
	// fwdHash and revHash were computed for, valid while hashed is set
	// and hashFlow still equals Flow().
	hashed   bool
	hashFlow Flow
	fwdHash  uint32
	revHash  uint32
}

// Decode errors.
var (
	ErrTruncated    = errors.New("packet: truncated")
	ErrNotIPv4      = errors.New("packet: not IPv4")
	ErrNotTCP       = errors.New("packet: not TCP")
	ErrBadIPHeader  = errors.New("packet: bad IPv4 header")
	ErrBadTCPHeader = errors.New("packet: bad TCP header")
)

// Decode parses an Ethernet frame carrying IPv4/TCP. It does not verify
// checksums; use VerifyChecksums for that.
func Decode(data []byte) (*Packet, error) {
	p := &Packet{}
	if err := p.DecodeInto(data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses into an existing Packet, avoiding allocation on hot
// paths (the XDP stage re-decodes after programs run).
func (p *Packet) DecodeInto(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(p.Eth.Dst[:], data[0:6])
	copy(p.Eth.Src[:], data[6:12])
	p.Eth.EtherType = binary.BigEndian.Uint16(data[12:14])
	rest := data[EthernetHeaderLen:]
	p.VLAN = nil

	if p.Eth.EtherType == EtherTypeVLAN {
		if len(rest) < VLANTagLen {
			return ErrTruncated
		}
		tci := binary.BigEndian.Uint16(rest[0:2])
		p.VLAN = &VLAN{
			Priority:  uint8(tci >> 13),
			ID:        tci & 0x0fff,
			EtherType: binary.BigEndian.Uint16(rest[2:4]),
		}
		rest = rest[VLANTagLen:]
		if p.VLAN.EtherType != EtherTypeIPv4 {
			return ErrNotIPv4
		}
	} else if p.Eth.EtherType != EtherTypeIPv4 {
		return ErrNotIPv4
	}

	if len(rest) < IPv4HeaderLen {
		return ErrTruncated
	}
	vihl := rest[0]
	if vihl>>4 != 4 {
		return ErrBadIPHeader
	}
	ihl := int(vihl&0xf) * 4
	if ihl < IPv4HeaderLen || len(rest) < ihl {
		return ErrBadIPHeader
	}
	p.IP.TOS = rest[1]
	p.IP.Length = binary.BigEndian.Uint16(rest[2:4])
	p.IP.ID = binary.BigEndian.Uint16(rest[4:6])
	p.IP.TTL = rest[8]
	p.IP.Protocol = rest[9]
	p.IP.Checksum = binary.BigEndian.Uint16(rest[10:12])
	p.IP.Src = IPv4Addr(binary.BigEndian.Uint32(rest[12:16]))
	p.IP.Dst = IPv4Addr(binary.BigEndian.Uint32(rest[16:20]))
	if p.IP.Protocol != ProtoTCP {
		return ErrNotTCP
	}
	if int(p.IP.Length) < ihl || int(p.IP.Length) > len(rest) {
		return ErrBadIPHeader
	}
	seg := rest[ihl:p.IP.Length]

	if len(seg) < TCPHeaderLen {
		return ErrTruncated
	}
	t := &p.TCP
	*t = TCP{WScale: -1}
	t.SrcPort = binary.BigEndian.Uint16(seg[0:2])
	t.DstPort = binary.BigEndian.Uint16(seg[2:4])
	t.Seq = binary.BigEndian.Uint32(seg[4:8])
	t.Ack = binary.BigEndian.Uint32(seg[8:12])
	t.DataOffset = seg[12] >> 4
	t.Flags = seg[13]
	t.Window = binary.BigEndian.Uint16(seg[14:16])
	t.Checksum = binary.BigEndian.Uint16(seg[16:18])
	t.Urgent = binary.BigEndian.Uint16(seg[18:20])
	hdrLen := int(t.DataOffset) * 4
	if hdrLen < TCPHeaderLen || hdrLen > len(seg) {
		return ErrBadTCPHeader
	}
	if err := decodeTCPOptions(t, seg[TCPHeaderLen:hdrLen]); err != nil {
		return err
	}
	p.Payload = seg[hdrLen:]
	return nil
}

func decodeTCPOptions(t *TCP, opts []byte) error {
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case OptEnd:
			return nil
		case OptNOP:
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			return ErrBadTCPHeader
		}
		olen := int(opts[1])
		if olen < 2 || olen > len(opts) {
			return ErrBadTCPHeader
		}
		body := opts[2:olen]
		switch kind {
		case OptMSS:
			if len(body) == 2 {
				t.MSS = binary.BigEndian.Uint16(body)
			}
		case OptTimestamp:
			if len(body) == 8 {
				t.HasTimestamp = true
				t.TSVal = binary.BigEndian.Uint32(body[0:4])
				t.TSEcr = binary.BigEndian.Uint32(body[4:8])
			}
		case OptSACKPerm:
			t.SACKPerm = true
		case OptSACK:
			for i := 0; i+8 <= len(body) && t.NumSACK < MaxSACKBlocks; i += 8 {
				t.SACKBlocks[t.NumSACK] = SACKBlock{
					Start: binary.BigEndian.Uint32(body[i : i+4]),
					End:   binary.BigEndian.Uint32(body[i+4 : i+8]),
				}
				t.NumSACK++
			}
		case OptWScale:
			if len(body) == 1 {
				t.WScale = int8(body[0])
			}
		}
		opts = opts[olen:]
	}
	return nil
}

// baseOptionsLen is the unpadded length of all options except SACK.
func (t *TCP) baseOptionsLen() int {
	n := 0
	if t.MSS != 0 {
		n += 4
	}
	if t.SACKPerm {
		n += 2
	}
	if t.WScale >= 0 {
		n += 3
	}
	if t.HasTimestamp {
		n += 10
	}
	return n
}

// sackFit returns how many SACK blocks the remaining option space holds
// (RFC 2018: 4 alone, 3 alongside the timestamp option). The encoder
// truncates from the tail, so callers place the most important block
// first.
func (t *TCP) sackFit() int {
	if t.NumSACK == 0 {
		return 0
	}
	fit := (TCPMaxOptionLen - t.baseOptionsLen() - 2) / 8
	if fit < 0 {
		fit = 0
	}
	if fit > int(t.NumSACK) {
		fit = int(t.NumSACK)
	}
	return fit
}

// tcpOptionsLen returns the encoded (padded) option length for t.
func (t *TCP) tcpOptionsLen() int {
	n := t.baseOptionsLen()
	if fit := t.sackFit(); fit > 0 {
		n += 2 + 8*fit
	}
	return (n + 3) &^ 3 // pad to 32-bit boundary
}

// SerializeOptions controls Serialize behaviour, mirroring gopacket.
type SerializeOptions struct {
	// FixLengths recomputes the IPv4 total length and TCP data offset.
	FixLengths bool
	// ComputeChecksums fills in the IPv4 header checksum and the TCP
	// checksum (with pseudo-header).
	ComputeChecksums bool
}

// Serialize encodes the packet into a freshly allocated frame.
func (p *Packet) Serialize(opts SerializeOptions) []byte {
	optLen := p.TCP.tcpOptionsLen()
	tcpLen := TCPHeaderLen + optLen + len(p.Payload)
	ipLen := IPv4HeaderLen + tcpLen
	frameLen := EthernetHeaderLen + ipLen
	if p.VLAN != nil {
		frameLen += VLANTagLen
	}
	buf := make([]byte, frameLen)
	p.SerializeTo(buf, opts)
	return buf
}

// SerializeTo encodes into buf, which must be exactly WireLen() bytes. It
// returns the number of bytes written.
func (p *Packet) SerializeTo(buf []byte, opts SerializeOptions) int {
	optLen := p.TCP.tcpOptionsLen()
	tcpLen := TCPHeaderLen + optLen + len(p.Payload)
	ipLen := IPv4HeaderLen + tcpLen

	copy(buf[0:6], p.Eth.Dst[:])
	copy(buf[6:12], p.Eth.Src[:])
	off := EthernetHeaderLen
	if p.VLAN != nil {
		binary.BigEndian.PutUint16(buf[12:14], EtherTypeVLAN)
		tci := uint16(p.VLAN.Priority)<<13 | p.VLAN.ID&0x0fff
		binary.BigEndian.PutUint16(buf[14:16], tci)
		binary.BigEndian.PutUint16(buf[16:18], EtherTypeIPv4)
		off += VLANTagLen
	} else {
		et := p.Eth.EtherType
		if et == 0 || opts.FixLengths {
			et = EtherTypeIPv4
		}
		binary.BigEndian.PutUint16(buf[12:14], et)
	}

	ip := buf[off:]
	ip[0] = 0x45
	ip[1] = p.IP.TOS
	length := p.IP.Length
	if opts.FixLengths || length == 0 {
		length = uint16(ipLen)
	}
	binary.BigEndian.PutUint16(ip[2:4], length)
	binary.BigEndian.PutUint16(ip[4:6], p.IP.ID)
	ip[6], ip[7] = 0x40, 0 // DF, no fragment offset
	ttl := p.IP.TTL
	if ttl == 0 {
		ttl = 64
	}
	ip[8] = ttl
	ip[9] = ProtoTCP
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint32(ip[12:16], uint32(p.IP.Src))
	binary.BigEndian.PutUint32(ip[16:20], uint32(p.IP.Dst))
	if opts.ComputeChecksums {
		binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:IPv4HeaderLen]))
	} else {
		binary.BigEndian.PutUint16(ip[10:12], p.IP.Checksum)
	}

	seg := ip[IPv4HeaderLen : IPv4HeaderLen+tcpLen]
	t := &p.TCP
	binary.BigEndian.PutUint16(seg[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], t.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], t.Seq)
	binary.BigEndian.PutUint32(seg[8:12], t.Ack)
	dataOff := t.DataOffset
	if opts.FixLengths || dataOff == 0 {
		dataOff = uint8((TCPHeaderLen + optLen) / 4)
	}
	seg[12] = dataOff << 4
	seg[13] = t.Flags
	binary.BigEndian.PutUint16(seg[14:16], t.Window)
	seg[16], seg[17] = 0, 0
	binary.BigEndian.PutUint16(seg[18:20], t.Urgent)
	encodeTCPOptions(t, seg[TCPHeaderLen:TCPHeaderLen+optLen])
	copy(seg[TCPHeaderLen+optLen:], p.Payload)
	if opts.ComputeChecksums {
		binary.BigEndian.PutUint16(seg[16:18], tcpChecksum(p.IP.Src, p.IP.Dst, seg))
	} else {
		binary.BigEndian.PutUint16(seg[16:18], t.Checksum)
	}
	return off + ipLen
}

func encodeTCPOptions(t *TCP, buf []byte) {
	i := 0
	if t.MSS != 0 {
		buf[i] = OptMSS
		buf[i+1] = 4
		binary.BigEndian.PutUint16(buf[i+2:], t.MSS)
		i += 4
	}
	if t.SACKPerm {
		buf[i] = OptSACKPerm
		buf[i+1] = 2
		i += 2
	}
	if t.WScale >= 0 {
		buf[i] = OptWScale
		buf[i+1] = 3
		buf[i+2] = byte(t.WScale)
		i += 3
	}
	if t.HasTimestamp {
		buf[i] = OptTimestamp
		buf[i+1] = 10
		binary.BigEndian.PutUint32(buf[i+2:], t.TSVal)
		binary.BigEndian.PutUint32(buf[i+6:], t.TSEcr)
		i += 10
	}
	if fit := t.sackFit(); fit > 0 {
		buf[i] = OptSACK
		buf[i+1] = byte(2 + 8*fit)
		i += 2
		for k := 0; k < fit; k++ {
			binary.BigEndian.PutUint32(buf[i:], t.SACKBlocks[k].Start)
			binary.BigEndian.PutUint32(buf[i+4:], t.SACKBlocks[k].End)
			i += 8
		}
	}
	for ; i < len(buf); i++ {
		buf[i] = OptNOP
	}
}

// WireLen returns the frame's on-wire size in bytes.
func (p *Packet) WireLen() int {
	n := EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + p.TCP.tcpOptionsLen() + len(p.Payload)
	if p.VLAN != nil {
		n += VLANTagLen
	}
	return n
}

// Flow returns the packet's 4-tuple.
func (p *Packet) Flow() Flow {
	return Flow{SrcIP: p.IP.Src, DstIP: p.IP.Dst, SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort}
}

// FlowHash returns Flow().Hash(): the pre-processor hashes a segment once
// and every later stage reuses the result (§3.1.3, §4.1), so the CRC-32
// is kept on the packet. The memo is a cache, never a source of truth:
// every read compares it with the current headers and recomputes after a
// rewrite (XDP, splicing, DecodeInto, a test poking TCP.SrcPort).
func (p *Packet) FlowHash() uint32 {
	p.flowHashes()
	return p.fwdHash
}

// RevFlowHash returns Flow().Reverse().Hash() — the hash of the flow as
// the receiving endpoint keys it — from the same memo as FlowHash.
func (p *Packet) RevFlowHash() uint32 {
	p.flowHashes()
	return p.revHash
}

// flowHashes makes the memo valid for the current headers: a 12-byte
// compare on a hit, both CRCs on an unseeded packet's first read or on
// any read after a rewrite.
func (p *Packet) flowHashes() {
	f := p.Flow()
	if !p.hashed || p.hashFlow != f {
		p.hashed, p.hashFlow, p.fwdHash, p.revHash = true, f, f.Hash(), f.Reverse().Hash()
		return
	}
	checkFlowHashes(p)
}

// SeedFlowHashes stores hashes the caller already holds for the packet's
// current 4-tuple: fwd must equal Flow().Hash() and rev
// Flow().Reverse().Hash(). Only whoever wrote the headers may seed, and
// only after writing them (a connection stamps the pair it computed at
// establishment on every segment it builds); the flexdebug build checks
// the pair here and on every later read.
func (p *Packet) SeedFlowHashes(fwd, rev uint32) {
	p.hashed, p.hashFlow, p.fwdHash, p.revHash = true, p.Flow(), fwd, rev
	checkFlowHashes(p)
}

// ipChecksum computes the IPv4 header checksum over hdr (checksum field
// must be zero).
func ipChecksum(hdr []byte) uint16 {
	return onesComplement(sum16(hdr, 0))
}

// tcpChecksum computes the TCP checksum including the IPv4 pseudo-header.
// The checksum field in seg must be zero.
func tcpChecksum(src, dst IPv4Addr, seg []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:], uint32(src))
	binary.BigEndian.PutUint32(pseudo[4:], uint32(dst))
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(seg)))
	s := sum16(pseudo[:], 0)
	s = sum16(seg, s)
	return onesComplement(s)
}

func sum16(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

func onesComplement(s uint32) uint16 {
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// VerifyChecksums reports whether the frame's IPv4 and TCP checksums are
// valid.
func VerifyChecksums(frame []byte) error {
	var p Packet
	if err := p.DecodeInto(frame); err != nil {
		return err
	}
	off := EthernetHeaderLen
	if p.VLAN != nil {
		off += VLANTagLen
	}
	ip := frame[off:]
	if got := sum16(ip[:IPv4HeaderLen], 0); onesComplement(got) != 0 {
		return fmt.Errorf("packet: bad IPv4 checksum")
	}
	seg := ip[IPv4HeaderLen:p.IP.Length]
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:], uint32(p.IP.Src))
	binary.BigEndian.PutUint32(pseudo[4:], uint32(p.IP.Dst))
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(seg)))
	s := sum16(pseudo[:], 0)
	s = sum16(seg, s)
	if onesComplement(s) != 0 {
		return fmt.Errorf("packet: bad TCP checksum")
	}
	return nil
}

// IncrementalChecksumAdjust updates an Internet checksum for a field that
// changed from old to new (RFC 1624). The splicing module uses this to
// patch checksums without recomputation, exactly as the NFP's CRC/checksum
// unit would.
func IncrementalChecksumAdjust(sum uint16, old, new uint32) uint16 {
	// HC' = ~(~HC + ~m + m') per RFC 1624 eqn. 3, applied per 16-bit half.
	acc := uint32(^sum) & 0xffff
	acc += uint32(^uint16(old>>16)) & 0xffff
	acc += uint32(^uint16(old)) & 0xffff
	acc += uint32(uint16(new >> 16))
	acc += uint32(uint16(new))
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}
