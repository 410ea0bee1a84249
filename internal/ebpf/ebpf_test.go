package ebpf

import (
	"bytes"
	"testing"
	"testing/quick"

	"flextoe/internal/packet"
	"flextoe/internal/xdp"
)

func run(t *testing.T, prog []Insn, pkt []byte) Result {
	t.Helper()
	vm := NewVM()
	if err := vm.Verify(prog); err != nil {
		t.Fatalf("verify: %v", err)
	}
	res, err := vm.Run(prog, pkt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestALUArithmetic(t *testing.T) {
	prog := NewAsm().
		MovImm(R0, 10).
		AluImm(OpAdd, R0, 32).
		AluImm(OpMul, R0, 2).
		AluImm(OpSub, R0, 4).
		AluImm(OpDiv, R0, 8).
		Exit().MustProgram()
	if res := run(t, prog, nil); res.R0 != 10 {
		t.Fatalf("R0 = %d", res.R0) // ((10+32)*2-4)/8 = 10
	}
}

func TestALURegisterOps(t *testing.T) {
	prog := NewAsm().
		MovImm(R1, 0xF0).
		MovImm(R2, 0x0F).
		MovReg(R0, R1).
		AluReg(OpOr, R0, R2).
		AluImm(OpXor, R0, 0xFF).
		Exit().MustProgram()
	if res := run(t, prog, nil); res.R0 != 0 {
		t.Fatalf("R0 = %d", res.R0)
	}
}

func TestShiftsAndNeg(t *testing.T) {
	prog := NewAsm().
		MovImm(R0, 1).
		AluImm(OpLsh, R0, 8).
		AluImm(OpRsh, R0, 4).
		AluImm(OpNeg, R0, 0).
		Exit().MustProgram()
	if res := run(t, prog, nil); int64(res.R0) != -16 {
		t.Fatalf("R0 = %d", int64(res.R0))
	}
}

func TestDivByZeroFaults(t *testing.T) {
	prog := NewAsm().
		MovImm(R0, 5).
		AluImm(OpDiv, R0, 0).
		Exit().MustProgram()
	vm := NewVM()
	if _, err := vm.Run(prog, nil); err != ErrDivByZero {
		t.Fatalf("err = %v", err)
	}
}

func TestPacketLoadStore(t *testing.T) {
	pkt := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}
	prog := NewAsm().
		LoadMem(R0, R1, 0, SizeW). // big-endian load
		StoreImm(R1, 4, SizeW, 0x12345678).
		Exit().MustProgram()
	res := run(t, prog, pkt)
	if res.R0 != 0xdeadbeef {
		t.Fatalf("R0 = %#x", res.R0)
	}
	if pkt[4] != 0x12 || pkt[7] != 0x78 {
		t.Fatalf("store failed: %x", pkt)
	}
}

func TestOutOfBoundsFaults(t *testing.T) {
	prog := NewAsm().
		LoadMem(R0, R1, 100, SizeW).
		Exit().MustProgram()
	vm := NewVM()
	if _, err := vm.Run(prog, make([]byte, 8)); err != ErrOutOfBounds {
		t.Fatalf("err = %v", err)
	}
}

func TestStackAccess(t *testing.T) {
	prog := NewAsm().
		StoreImm(R10, -8, SizeDW, 4242).
		LoadMem(R0, R10, -8, SizeDW).
		Exit().MustProgram()
	if res := run(t, prog, nil); res.R0 != 4242 {
		t.Fatalf("R0 = %d", res.R0)
	}
}

func TestBranches(t *testing.T) {
	// abs(x - 50) via conditional branch, x in packet byte 0.
	prog := NewAsm().
		LoadMem(R0, R1, 0, SizeB).
		AluImm(OpSub, R0, 50).
		JmpImm(JSGe, R0, 0, "done").
		AluImm(OpNeg, R0, 0).
		Label("done").
		Exit().MustProgram()
	if res := run(t, prog, []byte{80}); res.R0 != 30 {
		t.Fatalf("R0 = %d", res.R0)
	}
	if res := run(t, prog, []byte{20}); res.R0 != 30 {
		t.Fatalf("R0 = %d", res.R0)
	}
}

func TestLoopWithBackwardJump(t *testing.T) {
	// Sum 1..10 with a loop: R2 counter, R0 accumulator.
	prog := NewAsm().
		MovImm(R0, 0).
		MovImm(R2, 10).
		Label("loop").
		AluReg(OpAdd, R0, R2).
		AluImm(OpSub, R2, 1).
		JmpImm(JGt, R2, 0, "loop").
		Exit().MustProgram()
	res := run(t, prog, nil)
	if res.R0 != 55 {
		t.Fatalf("R0 = %d", res.R0)
	}
	if res.Instructions < 30 {
		t.Fatalf("instruction count = %d", res.Instructions)
	}
}

func TestInstructionLimit(t *testing.T) {
	prog := NewAsm().
		Label("spin").
		MovImm(R0, 1).
		Jmp("spin").
		Exit().MustProgram()
	vm := NewVM()
	if _, err := vm.Run(prog, nil); err != ErrTooLong {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifierRejects(t *testing.T) {
	vm := NewVM()
	// Jump out of range.
	bad := []Insn{{Op: ClassJMP | JA, Off: 100}}
	if err := vm.Verify(bad); err == nil {
		t.Fatal("out-of-range jump accepted")
	}
	// Write to R10.
	bad = []Insn{{Op: ClassALU64 | OpMov | SrcImm, Dst: R10}, {Op: ClassJMP | Exit}}
	if err := vm.Verify(bad); err == nil {
		t.Fatal("write to r10 accepted")
	}
	bad = []Insn{{Op: ClassLDX | ModeMem | SizeDW, Dst: R10, Src: R1}, {Op: ClassJMP | Exit}}
	if err := vm.Verify(bad); err == nil {
		t.Fatal("load into r10 accepted")
	}
	// No exit.
	bad = []Insn{{Op: ClassALU64 | OpMov | SrcImm, Dst: R0}}
	if err := vm.Verify(bad); err == nil {
		t.Fatal("missing exit accepted")
	}
	// Empty.
	if err := vm.Verify(nil); err == nil {
		t.Fatal("empty program accepted")
	}
}

func TestHashMapCapacityAndDelete(t *testing.T) {
	m := NewHashMap("tbl", 4, 4, 2)
	if err := m.Update([]byte{1, 0, 0, 0}, []byte{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update([]byte{2, 0, 0, 0}, []byte{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update([]byte{3, 0, 0, 0}, []byte{3, 3, 3, 3}); err == nil {
		t.Fatal("update beyond capacity succeeded")
	}
	if !m.Delete([]byte{1, 0, 0, 0}) {
		t.Fatal("delete failed")
	}
	if m.Delete([]byte{1, 0, 0, 0}) {
		t.Fatal("double delete succeeded")
	}
	if err := m.Update([]byte{3, 0, 0, 0}, []byte{3, 3, 3, 3}); err != nil {
		t.Fatal("update after delete failed")
	}
}

func TestMapHelpersFromProgram(t *testing.T) {
	vm := NewVM()
	m := NewHashMap("state", 4, 8, 16)
	fd := vm.RegisterMap(m)
	// Program: store key 7 on stack, look it up; if missing return 1,
	// else load first 8 bytes of value into R0.
	prog := NewAsm().
		StoreImm(R10, -4, SizeW, 7).
		MovImm(R1, fd).
		MovReg(R2, R10).
		AluImm(OpAdd, R2, -4).
		CallHelper(HelperMapLookup).
		JmpImm(JNe, R0, 0, "found").
		MovImm(R0, 1).
		Exit().
		Label("found").
		LoadMem(R0, R0, 0, SizeDW).
		Exit().MustProgram()
	if err := vm.Verify(prog); err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.R0 != 1 {
		t.Fatalf("missing entry: R0 = %d", res.R0)
	}
	// Insert via the control plane and re-run.
	key := make([]byte, 4)
	storeBE(key, 7)
	val := make([]byte, 8)
	storeBE(val, 0xCAFE)
	if err := m.Update(key, val); err != nil {
		t.Fatal(err)
	}
	res, err = vm.Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.R0 != 0xCAFE {
		t.Fatalf("R0 = %#x", res.R0)
	}
}

func makeTCPFrame(t testing.TB, srcIP, dstIP packet.IPv4Addr, sport, dport uint16, flags uint8) []byte {
	t.Helper()
	p := &packet.Packet{
		Eth: packet.Ethernet{
			Dst: packet.MAC(2, 0, 0, 0, 0, 9), Src: packet.MAC(2, 0, 0, 0, 0, 8),
			EtherType: packet.EtherTypeIPv4,
		},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: srcIP, Dst: dstIP},
		TCP:     packet.TCP{SrcPort: sport, DstPort: dport, Seq: 1000, Ack: 2000, Flags: flags, WScale: -1},
		Payload: []byte("splice me"),
	}
	return p.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
}

func TestSpliceProgram(t *testing.T) {
	vm := NewVM()
	tbl := NewSpliceTable()
	prog, err := SpliceProgram(vm, tbl)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := LoadXDP(vm, prog)
	if err != nil {
		t.Fatal(err)
	}

	clientIP := packet.IP(10, 0, 0, 1)
	proxyIP := packet.IP(10, 0, 0, 2)
	serverIP := packet.IP(10, 0, 0, 3)
	serverMAC := [6]byte{2, 0, 0, 0, 0, 3}

	// No entry: pass to the data-plane.
	frame := makeTCPFrame(t, clientIP, proxyIP, 5000, 80, packet.FlagACK|packet.FlagPSH)
	v, instr := xp.Run(&xdp.Context{Data: frame})
	if v != xdp.Pass {
		t.Fatalf("verdict = %v", v)
	}
	if instr == 0 {
		t.Fatal("no instructions counted")
	}

	// Install a splice entry: client->proxy rewrites to proxy->server.
	key := SpliceKey(uint32(clientIP), uint32(proxyIP), 5000, 80)
	val := SpliceValue(serverMAC, uint32(serverIP), 6000, 8080, 111, 222)
	if err := tbl.Update(key, val); err != nil {
		t.Fatal(err)
	}

	frame = makeTCPFrame(t, clientIP, proxyIP, 5000, 80, packet.FlagACK|packet.FlagPSH)
	v, _ = xp.Run(&xdp.Context{Data: frame})
	if v != xdp.TX {
		t.Fatalf("verdict = %v, want XDP_TX", v)
	}
	// Decode the patched frame and check every rewritten field.
	out, err := packet.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Eth.Dst != packet.EtherAddr(serverMAC) {
		t.Fatalf("dst MAC = %v", out.Eth.Dst)
	}
	if out.IP.Src != proxyIP || out.IP.Dst != serverIP {
		t.Fatalf("IPs = %v -> %v", out.IP.Src, out.IP.Dst)
	}
	if out.TCP.SrcPort != 6000 || out.TCP.DstPort != 8080 {
		t.Fatalf("ports = %d -> %d", out.TCP.SrcPort, out.TCP.DstPort)
	}
	if out.TCP.Seq != 1000+111 || out.TCP.Ack != 2000+222 {
		t.Fatalf("seq/ack = %d/%d", out.TCP.Seq, out.TCP.Ack)
	}

	// Control flags remove the entry and redirect.
	frame = makeTCPFrame(t, clientIP, proxyIP, 5000, 80, packet.FlagFIN|packet.FlagACK)
	v, _ = xp.Run(&xdp.Context{Data: frame})
	if v != xdp.Redirect {
		t.Fatalf("FIN verdict = %v", v)
	}
	if tbl.Len() != 0 {
		t.Fatal("map entry not removed on FIN")
	}
}

func TestSpliceRedirectsNonTCP(t *testing.T) {
	vm := NewVM()
	tbl := NewSpliceTable()
	prog, err := SpliceProgram(vm, tbl)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	res, err := vm.Run(prog, frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.R0 != XDPRedirect {
		t.Fatalf("R0 = %d", res.R0)
	}
}

func TestALUPropertyAddSub(t *testing.T) {
	// Property: (x + y) - y == x through the VM.
	f := func(x, y int32) bool {
		prog := NewAsm().
			MovImm(R0, x).
			AluImm(OpAdd, R0, y).
			AluImm(OpSub, R0, y).
			Exit().MustProgram()
		vm := NewVM()
		res, err := vm.Run(prog, nil)
		return err == nil && res.R0 == uint64(int64(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryPropertyRoundTrip(t *testing.T) {
	// Property: store then load through the VM returns the value
	// (truncated to the access size).
	f := func(v uint32, off uint8) bool {
		offset := int16(off % 60)
		prog := NewAsm().
			MovImm(R3, int32(v)).
			StoreMem(R1, R3, offset, SizeW).
			LoadMem(R0, R1, offset, SizeW).
			Exit().MustProgram()
		vm := NewVM()
		res, err := vm.Run(prog, make([]byte, 64))
		return err == nil && uint32(res.R0) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXDPAdapterFaultDrops(t *testing.T) {
	vm := NewVM()
	prog := NewAsm().
		LoadMem(R0, R1, 1000, SizeW). // out of bounds
		Exit().MustProgram()
	xp, err := LoadXDP(vm, prog)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := xp.Run(&xdp.Context{Data: make([]byte, 10)})
	if v != xdp.Drop {
		t.Fatalf("verdict = %v, want Drop (XDP_ABORTED semantics)", v)
	}
}

func TestNativeModules(t *testing.T) {
	// VLAN strip.
	p := &packet.Packet{
		Eth:  packet.Ethernet{Dst: packet.MAC(2, 0, 0, 0, 0, 1), Src: packet.MAC(2, 0, 0, 0, 0, 2)},
		VLAN: &packet.VLAN{ID: 7, EtherType: packet.EtherTypeIPv4},
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: packet.IP(1, 1, 1, 1), Dst: packet.IP(2, 2, 2, 2)},
		TCP:  packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK, WScale: -1},
	}
	frame := p.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
	ctx := &xdp.Context{Data: frame}
	strip := xdp.VLANStrip()
	v, _ := strip.Run(ctx)
	if v != xdp.Pass {
		t.Fatalf("verdict = %v", v)
	}
	out, err := packet.Decode(ctx.Data)
	if err != nil {
		t.Fatal(err)
	}
	if out.VLAN != nil {
		t.Fatal("VLAN tag survived strip")
	}

	// Firewall.
	fw := xdp.NewFirewall()
	fw.Block(uint32(packet.IP(1, 1, 1, 1)))
	frame2 := makeTCPFrame(t, packet.IP(1, 1, 1, 1), packet.IP(2, 2, 2, 2), 1, 2, packet.FlagACK)
	v, _ = fw.Run(&xdp.Context{Data: frame2})
	if v != xdp.Drop {
		t.Fatalf("firewall verdict = %v", v)
	}
	fw.Unblock(uint32(packet.IP(1, 1, 1, 1)))
	v, _ = fw.Run(&xdp.Context{Data: frame2})
	if v != xdp.Pass {
		t.Fatalf("firewall verdict after unblock = %v", v)
	}

	// Flow classifier.
	fc := xdp.NewFlowClassifier()
	for i := 0; i < 5; i++ {
		fc.Run(&xdp.Context{Data: frame2})
	}
	cnt, ok := fc.Lookup(uint32(packet.IP(1, 1, 1, 1)), uint32(packet.IP(2, 2, 2, 2)), 1, 2)
	if !ok || cnt.Packets != 5 {
		t.Fatalf("classifier count = %+v ok=%v", cnt, ok)
	}
	if fc.Flows() != 1 {
		t.Fatalf("flows = %d", fc.Flows())
	}

	if !bytes.Equal(frame2, frame2) {
		t.Fatal("unreachable")
	}
}
