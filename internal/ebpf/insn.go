// Package ebpf implements a from-scratch eBPF virtual machine for
// FlexTOE's XDP modules (§3.3): the classic 64-bit register machine with
// the standard 8-byte instruction encoding, ALU/branch/memory classes,
// helper calls, and BPF maps (array and hash). Programs are built with the
// package's assembler and executed by the interpreter, which counts
// instructions so the data-path charges real simulated cycles per packet
// ("eBPF programs can be compiled to NFP assembly", §5.1).
//
// The memory model exposes three regions to programs: the packet at
// address 0, a 512-byte stack below R10, and a scratch region where map
// helpers place values.
package ebpf

import "fmt"

// Instruction classes (low 3 bits of the opcode).
const (
	ClassLD    = 0x00
	ClassLDX   = 0x01
	ClassST    = 0x02
	ClassSTX   = 0x03
	ClassALU   = 0x04
	ClassJMP   = 0x05
	ClassALU64 = 0x07
)

// ALU/JMP operation (high 4 bits).
const (
	OpAdd  = 0x00
	OpSub  = 0x10
	OpMul  = 0x20
	OpDiv  = 0x30
	OpOr   = 0x40
	OpAnd  = 0x50
	OpLsh  = 0x60
	OpRsh  = 0x70
	OpNeg  = 0x80
	OpMod  = 0x90
	OpXor  = 0xa0
	OpMov  = 0xb0
	OpArsh = 0xc0
	OpEnd  = 0xd0
)

// Jump operations.
const (
	JA   = 0x00
	JEq  = 0x10
	JGt  = 0x20
	JGe  = 0x30
	JSet = 0x40
	JNe  = 0x50
	JSGt = 0x60
	JSGe = 0x70
	Call = 0x80
	Exit = 0x90
	JLt  = 0xa0
	JLe  = 0xb0
	JSLt = 0xc0
	JSLe = 0xd0
)

// Source modifier.
const (
	SrcImm = 0x00
	SrcReg = 0x08
)

// Memory access sizes.
const (
	SizeW  = 0x00 // 4 bytes
	SizeH  = 0x08 // 2 bytes
	SizeB  = 0x10 // 1 byte
	SizeDW = 0x18 // 8 bytes
)

// Memory access mode.
const (
	ModeImm = 0x00
	ModeMem = 0x60
)

// Registers.
const (
	R0 = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10 // frame pointer, read-only
	NumRegs
)

// Insn is one decoded eBPF instruction.
type Insn struct {
	Op  uint8
	Dst uint8
	Src uint8
	Off int16
	Imm int32
}

func (i Insn) String() string {
	return fmt.Sprintf("op=%02x dst=r%d src=r%d off=%d imm=%d", i.Op, i.Dst, i.Src, i.Off, i.Imm)
}

// XDP verdict values (matching the kernel ABI).
const (
	XDPAborted  = 0
	XDPDrop     = 1
	XDPPass     = 2
	XDPTx       = 3
	XDPRedirect = 4
)

// --- Assembler -------------------------------------------------------

// Asm builds instruction slices fluently.
type Asm struct {
	ins    []Insn
	labels map[string]int
	fixups []fixup
}

type fixup struct {
	idx   int
	label string
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

func (a *Asm) emit(i Insn) *Asm { a.ins = append(a.ins, i); return a }

// Label marks the next instruction's position.
func (a *Asm) Label(name string) *Asm {
	a.labels[name] = len(a.ins)
	return a
}

// MovImm sets dst = imm (64-bit).
func (a *Asm) MovImm(dst uint8, imm int32) *Asm {
	return a.emit(Insn{Op: ClassALU64 | OpMov | SrcImm, Dst: dst, Imm: imm})
}

// MovReg sets dst = src.
func (a *Asm) MovReg(dst, src uint8) *Asm {
	return a.emit(Insn{Op: ClassALU64 | OpMov | SrcReg, Dst: dst, Src: src})
}

// AluImm performs dst = dst <op> imm.
func (a *Asm) AluImm(op uint8, dst uint8, imm int32) *Asm {
	return a.emit(Insn{Op: ClassALU64 | op | SrcImm, Dst: dst, Imm: imm})
}

// AluReg performs dst = dst <op> src.
func (a *Asm) AluReg(op uint8, dst, src uint8) *Asm {
	return a.emit(Insn{Op: ClassALU64 | op | SrcReg, Dst: dst, Src: src})
}

// LoadMem loads dst = *(size*)(src + off).
func (a *Asm) LoadMem(dst, src uint8, off int16, size uint8) *Asm {
	return a.emit(Insn{Op: ClassLDX | ModeMem | size, Dst: dst, Src: src, Off: off})
}

// StoreMem stores *(size*)(dst + off) = src.
func (a *Asm) StoreMem(dst, src uint8, off int16, size uint8) *Asm {
	return a.emit(Insn{Op: ClassSTX | ModeMem | size, Dst: dst, Src: src, Off: off})
}

// JmpImm jumps to label when dst <op> imm.
func (a *Asm) JmpImm(op uint8, dst uint8, imm int32, label string) *Asm {
	a.fixups = append(a.fixups, fixup{len(a.ins), label})
	return a.emit(Insn{Op: ClassJMP | op | SrcImm, Dst: dst, Imm: imm})
}

// Jmp jumps unconditionally.
func (a *Asm) Jmp(label string) *Asm {
	a.fixups = append(a.fixups, fixup{len(a.ins), label})
	return a.emit(Insn{Op: ClassJMP | JA})
}

// CallHelper invokes helper id.
func (a *Asm) CallHelper(id int32) *Asm {
	return a.emit(Insn{Op: ClassJMP | Call, Imm: id})
}

// Exit returns from the program with R0 as the verdict.
func (a *Asm) Exit() *Asm {
	return a.emit(Insn{Op: ClassJMP | Exit})
}

// Program resolves labels and returns the instruction stream.
func (a *Asm) Program() ([]Insn, error) {
	out := make([]Insn, len(a.ins))
	copy(out, a.ins)
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("ebpf: undefined label %q", f.label)
		}
		out[f.idx].Off = int16(target - f.idx - 1)
	}
	return out, nil
}
