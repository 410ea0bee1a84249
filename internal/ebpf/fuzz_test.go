package ebpf

import (
	"encoding/binary"
	"errors"
	"testing"

	"flextoe/internal/packet"
)

// fuzzInsnSize is one encoded instruction: op, dst, src, off (2 bytes,
// big-endian) and imm (4 bytes, big-endian). Registers are not masked, so
// a program can name registers that do not exist.
const fuzzInsnSize = 9

// decodeFuzzInput splits data into a program and a packet: byte 0 is the
// instruction count, then that many 9-byte instructions (fewer if data
// runs out), and the rest is the packet.
func decodeFuzzInput(data []byte) ([]Insn, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n, data := int(data[0]), data[1:]
	n = min(n, len(data)/fuzzInsnSize)
	prog := make([]Insn, n)
	for i := range prog {
		b := data[i*fuzzInsnSize:]
		prog[i] = Insn{
			Op: b[0], Dst: b[1], Src: b[2],
			Off: int16(binary.BigEndian.Uint16(b[3:])),
			Imm: int32(binary.BigEndian.Uint32(b[5:])),
		}
	}
	return prog, data[n*fuzzInsnSize:]
}

// encodeFuzzInput is decodeFuzzInput's inverse, for programs of at most
// 255 instructions.
func encodeFuzzInput(prog []Insn, pkt []byte) []byte {
	data := []byte{byte(len(prog))}
	for _, ins := range prog {
		data = append(data, ins.Op, ins.Dst, ins.Src)
		data = binary.BigEndian.AppendUint16(data, uint16(ins.Off))
		data = binary.BigEndian.AppendUint32(data, uint32(ins.Imm))
	}
	return append(data, pkt...)
}

// fuzzVM returns a VM whose map 1 is a splice table holding the entry for
// 10.0.0.1:5000 -> 10.0.0.2:80 and whose map 2 is a 4-slot array, with a
// clock and a trace sink, so every helper has something to reach.
func fuzzVM() *VM {
	vm := NewVM()
	tbl := NewSpliceTable()
	key := SpliceKey(uint32(packet.IP(10, 0, 0, 1)), uint32(packet.IP(10, 0, 0, 2)), 5000, 80)
	if err := tbl.Update(key, SpliceValue([6]byte{2, 0, 0, 0, 0, 3}, uint32(packet.IP(10, 0, 0, 3)), 6000, 8080, 111, 222)); err != nil {
		panic(err)
	}
	vm.RegisterMap(tbl)
	vm.RegisterMap(NewArrayMap("fuzz_arr", 8, 4))
	vm.Clock = func() uint64 { return 1 }
	vm.Trace = func(int64) {}
	return vm
}

// vmErrors are the errors Run may return for a verified program.
var vmErrors = []error{ErrOutOfBounds, ErrDivByZero, ErrBadInsn, ErrTooLong, ErrBadHelper, ErrBadMap}

// FuzzVerifyRun decodes arbitrary bytes as a program and a packet (see
// decodeFuzzInput), verifies the program and runs it only if it verifies.
// Properties: no input panics, and a verified program halts within
// MaxInstructions with a verdict or one of the package's error values.
// The seeds are Table 2's splice program (SpliceProgram) on a frame the
// table splices, on one it passes and on a FIN it redirects. Kills:
// a verifier that lets a jump name a register past R10, and an address
// check that wraps when a program adds a near-2^64 offset.
func FuzzVerifyRun(f *testing.F) {
	splice, err := SpliceProgram(NewVM(), NewSpliceTable())
	if err != nil {
		f.Fatal(err)
	}
	client, proxy := packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2)
	for _, frame := range [][]byte{
		makeTCPFrame(f, client, proxy, 5000, 80, packet.FlagACK|packet.FlagPSH),
		makeTCPFrame(f, client, proxy, 5001, 80, packet.FlagACK),
		makeTCPFrame(f, client, proxy, 5000, 80, packet.FlagFIN|packet.FlagACK),
	} {
		f.Add(encodeFuzzInput(splice, frame))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, pkt := decodeFuzzInput(data)
		vm := fuzzVM()
		if vm.Verify(prog) != nil {
			return
		}
		res, err := vm.Run(prog, pkt)
		if res.Instructions > MaxInstructions {
			t.Fatalf("ran %d instructions, limit %d", res.Instructions, MaxInstructions)
		}
		if err != nil {
			for _, e := range vmErrors {
				if errors.Is(err, e) {
					return
				}
			}
			t.Fatalf("verified program failed with %v, not one of the package's errors", err)
		}
	})
}

// TestSpliceSeedRoundTrip holds the fuzz encoding to the splice program:
// it decodes back to the same instructions and packet, and the decoded
// program splices the frame as the assembled one does.
func TestSpliceSeedRoundTrip(t *testing.T) {
	splice, err := SpliceProgram(NewVM(), NewSpliceTable())
	if err != nil {
		t.Fatal(err)
	}
	frame := makeTCPFrame(t, packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2), 5000, 80, packet.FlagACK|packet.FlagPSH)
	prog, pkt := decodeFuzzInput(encodeFuzzInput(splice, frame))
	if len(prog) != len(splice) || string(pkt) != string(frame) {
		t.Fatalf("decoded %d instructions and %d packet bytes, want %d and %d", len(prog), len(pkt), len(splice), len(frame))
	}
	for i := range prog {
		if prog[i] != splice[i] {
			t.Fatalf("instruction %d decoded as %v, want %v", i, prog[i], splice[i])
		}
	}
	vm := fuzzVM()
	if err := vm.Verify(prog); err != nil {
		t.Fatal(err)
	}
	if res, err := vm.Run(prog, pkt); err != nil || res.R0 != XDPTx {
		t.Fatalf("splice seed: R0 %d, err %v; want XDP_TX", res.R0, err)
	}
}

// TestVerifierRejectsBadJumpRegister and TestWrappedAddressFaults pin two
// panics on verified programs: a conditional jump naming register 200
// indexed past the register file, and a load at 2^64-1 passed the packet
// bounds check because its end address wrapped to 3 (on an empty packet,
// a load at 2^64-2 passed the stack's the same way).
func TestVerifierRejectsBadJumpRegister(t *testing.T) {
	bad := []Insn{{Op: ClassJMP | JEq | SrcReg, Dst: 200, Src: R1}, {Op: ClassJMP | Exit}}
	if err := NewVM().Verify(bad); err == nil {
		t.Fatal("jump on register 200 accepted")
	}
}

func TestWrappedAddressFaults(t *testing.T) {
	for _, c := range []struct {
		addr   int32 // sign-extended: -1 is 2^64-1
		pktLen int
	}{{-1, 8}, {-4, 0}, {-2, 0}} {
		prog := NewAsm().MovImm(R3, c.addr).LoadMem(R0, R3, 0, SizeW).Exit().MustProgram()
		if _, err := NewVM().Run(prog, make([]byte, c.pktLen)); !errors.Is(err, ErrOutOfBounds) {
			t.Fatalf("4-byte load at %d on a %d-byte packet: err = %v, want ErrOutOfBounds", c.addr, c.pktLen, err)
		}
	}
}
