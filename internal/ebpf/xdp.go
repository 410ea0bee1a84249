package ebpf

import (
	"fmt"

	"flextoe/internal/xdp"
)

// XDPProgram adapts a verified eBPF program to FlexTOE's XDP module
// interface. Each execution reports its true instruction count, which the
// data-path charges as FPC cycles (eBPF compiles roughly 1:1 to NFP
// assembly, §5.1).
type XDPProgram struct {
	vm   *VM
	prog []Insn
}

// LoadXDP verifies prog and wraps it for attachment.
func LoadXDP(vm *VM, prog []Insn) (*XDPProgram, error) {
	if err := vm.Verify(prog); err != nil {
		return nil, err
	}
	return &XDPProgram{vm: vm, prog: prog}, nil
}

// Run executes the program on the raw frame.
func (p *XDPProgram) Run(ctx *xdp.Context) (xdp.Verdict, int64) {
	res, err := p.vm.Run(p.prog, ctx.Data)
	if err != nil {
		// A faulting program drops the packet (XDP_ABORTED semantics).
		return xdp.Drop, res.Instructions
	}
	switch res.R0 {
	case XDPPass:
		return xdp.Pass, res.Instructions
	case XDPTx:
		return xdp.TX, res.Instructions
	case XDPRedirect:
		return xdp.Redirect, res.Instructions
	default: // XDPDrop, XDPAborted, anything else
		return xdp.Drop, res.Instructions
	}
}

var _ xdp.Program = (*XDPProgram)(nil)

// ---------------------------------------------------------------------
// Connection splicing (Listing 1): AccelTCP-style layer-4 proxying in 24
// lines of eBPF. The control plane installs per-flow entries mapping an
// incoming 4-tuple to the opposite connection's identity plus
// sequence/acknowledgment deltas; the program patches headers and
// transmits without host involvement.
// ---------------------------------------------------------------------

// Packet field offsets (Ethernet + IPv4 without options + TCP).
const (
	offEthDst   = 0
	offEthSrc   = 6
	offEthType  = 12
	offIPProto  = 23
	offIPSrc    = 26
	offIPDst    = 30
	offTCPSport = 34
	offTCPDport = 36
	offTCPSeq   = 38
	offTCPAck   = 42
	offTCPFlags = 47
)

// Splice value layout (struct tcp_splice_t).
const (
	spliceValRemoteMAC  = 0  // 6 bytes
	spliceValRemoteIP   = 8  // 4 bytes
	spliceValLocalPort  = 12 // 2 bytes
	spliceValRemotePort = 14 // 2 bytes
	spliceValSeqDelta   = 16 // 4 bytes
	spliceValAckDelta   = 20 // 4 bytes
	spliceValSize       = 24
	spliceKeySize       = 12 // src ip, dst ip, sport, dport
)

// SpliceMaxFlows matches SPLICE_MAX_FLOWS in Listing 1.
const SpliceMaxFlows = 16384

// NewSpliceTable creates the splice_tbl hash map.
func NewSpliceTable() *HashMap {
	return NewHashMap("splice_tbl", spliceKeySize, spliceValSize, SpliceMaxFlows)
}

// SpliceKey encodes a lookup key from the packet 4-tuple fields (network
// byte order, as read from the wire).
func SpliceKey(srcIP, dstIP uint32, sport, dport uint16) []byte {
	k := make([]byte, spliceKeySize)
	storeBE(k[0:4], uint64(srcIP))
	storeBE(k[4:8], uint64(dstIP))
	storeBE(k[8:10], uint64(sport))
	storeBE(k[10:12], uint64(dport))
	return k
}

// SpliceValue encodes a tcp_splice_t.
func SpliceValue(remoteMAC [6]byte, remoteIP uint32, localPort, remotePort uint16, seqDelta, ackDelta uint32) []byte {
	v := make([]byte, spliceValSize)
	copy(v[spliceValRemoteMAC:], remoteMAC[:])
	storeBE(v[spliceValRemoteIP:spliceValRemoteIP+4], uint64(remoteIP))
	storeBE(v[spliceValLocalPort:spliceValLocalPort+2], uint64(localPort))
	storeBE(v[spliceValRemotePort:spliceValRemotePort+2], uint64(remotePort))
	storeBE(v[spliceValSeqDelta:spliceValSeqDelta+4], uint64(seqDelta))
	storeBE(v[spliceValAckDelta:spliceValAckDelta+4], uint64(ackDelta))
	return v
}

// SpliceProgram assembles Listing 1 against the given VM and table. The
// returned program:
//   - redirects non-IPv4/TCP segments to the control plane,
//   - on SYN/FIN/RST atomically removes the map entry and redirects,
//   - passes unmatched segments to the FlexTOE data-plane,
//   - otherwise patches MACs, IPs, ports, and translates seq/ack by the
//     configured deltas, then transmits out the MAC (XDP_TX).
func SpliceProgram(vm *VM, tbl *HashMap) ([]Insn, error) {
	fd := vm.RegisterMap(tbl)
	a := NewAsm()

	// if (!segment_ipv4_tcp(hdr)) return XDP_REDIRECT;
	a.LoadMem(R3, R1, offEthType, SizeH)
	a.JmpImm(JNe, R3, 0x0800, "redirect")
	a.LoadMem(R3, R1, offIPProto, SizeB)
	a.JmpImm(JNe, R3, 6, "redirect")

	// Build the key on the stack: [-16..-4) = {src ip, dst ip, ports}.
	a.LoadMem(R3, R1, offIPSrc, SizeW)
	a.StoreMem(R10, R3, -16, SizeW)
	a.LoadMem(R3, R1, offIPDst, SizeW)
	a.StoreMem(R10, R3, -12, SizeW)
	a.LoadMem(R3, R1, offTCPSport, SizeH)
	a.StoreMem(R10, R3, -8, SizeH)
	a.LoadMem(R3, R1, offTCPDport, SizeH)
	a.StoreMem(R10, R3, -6, SizeH)

	// if (segment_tcp_ctrlflags(hdr)) { map_delete(key); return XDP_REDIRECT; }
	a.LoadMem(R3, R1, offTCPFlags, SizeB)
	a.MovReg(R6, R1)          // save packet base across calls
	a.AluImm(OpAnd, R3, 0x07) // FIN|SYN|RST
	a.JmpImm(JEq, R3, 0, "lookup")
	a.MovImm(R1, fd)
	a.MovReg(R2, R10)
	a.AluImm(OpAdd, R2, -16)
	a.CallHelper(HelperMapDelete)
	a.Jmp("redirect")

	// if (map_lookup(key) < 0) return XDP_PASS;
	a.Label("lookup")
	a.MovImm(R1, fd)
	a.MovReg(R2, R10)
	a.AluImm(OpAdd, R2, -16)
	a.CallHelper(HelperMapLookup)
	a.JmpImm(JNe, R0, 0, "patch")
	a.MovImm(R0, XDPPass)
	a.Exit()

	// patch_headers(hdr, state); return XDP_TX;
	a.Label("patch")
	a.MovReg(R7, R0) // value pointer
	a.MovReg(R1, R6) // packet base

	// eth.src = eth.dst
	a.LoadMem(R3, R1, offEthDst, SizeW)
	a.StoreMem(R1, R3, offEthSrc, SizeW)
	a.LoadMem(R3, R1, offEthDst+4, SizeH)
	a.StoreMem(R1, R3, offEthSrc+4, SizeH)
	// eth.dst = state->remote_mac
	a.LoadMem(R3, R7, spliceValRemoteMAC, SizeW)
	a.StoreMem(R1, R3, offEthDst, SizeW)
	a.LoadMem(R3, R7, spliceValRemoteMAC+4, SizeH)
	a.StoreMem(R1, R3, offEthDst+4, SizeH)
	// ip.src = ip.dst; ip.dst = state->remote_ip
	a.LoadMem(R3, R1, offIPDst, SizeW)
	a.StoreMem(R1, R3, offIPSrc, SizeW)
	a.LoadMem(R3, R7, spliceValRemoteIP, SizeW)
	a.StoreMem(R1, R3, offIPDst, SizeW)
	// tcp ports
	a.LoadMem(R3, R7, spliceValLocalPort, SizeH)
	a.StoreMem(R1, R3, offTCPSport, SizeH)
	a.LoadMem(R3, R7, spliceValRemotePort, SizeH)
	a.StoreMem(R1, R3, offTCPDport, SizeH)
	// tcp.seq += seq_delta; tcp.ack += ack_delta
	a.LoadMem(R3, R1, offTCPSeq, SizeW)
	a.LoadMem(R4, R7, spliceValSeqDelta, SizeW)
	a.AluReg(OpAdd, R3, R4)
	a.StoreMem(R1, R3, offTCPSeq, SizeW)
	a.LoadMem(R3, R1, offTCPAck, SizeW)
	a.LoadMem(R4, R7, spliceValAckDelta, SizeW)
	a.AluReg(OpAdd, R3, R4)
	a.StoreMem(R1, R3, offTCPAck, SizeW)
	a.MovImm(R0, XDPTx)
	a.Exit()

	a.Label("redirect")
	a.MovImm(R0, XDPRedirect)
	a.Exit()

	prog, err := a.Program()
	if err != nil {
		return nil, err
	}
	if err := vm.Verify(prog); err != nil {
		return nil, fmt.Errorf("splice program: %w", err)
	}
	return prog, nil
}
