package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Memory layout constants: the VM exposes the packet at address 0, a
// stack below StackTop, and a scratch region where map helpers place
// values (lookup returns a scratch pointer, as the kernel returns a map
// value pointer).
const (
	StackSize   = 512
	StackBase   = 0x1000_0000
	StackTop    = StackBase + StackSize
	ScratchBase = 0x2000_0000
	ScratchSize = 4096
)

// Helper IDs (a subset of the kernel's, renumbered).
const (
	HelperMapLookup = 1
	HelperMapUpdate = 2
	HelperMapDelete = 3
	HelperKtime     = 4
	HelperTrace     = 5
	HelperCsumDiff  = 6
)

// MaxInstructions bounds one execution (the verifier's complexity limit
// stands in for termination checking).
const MaxInstructions = 100_000

// Execution errors.
var (
	ErrOutOfBounds = errors.New("ebpf: memory access out of bounds")
	ErrDivByZero   = errors.New("ebpf: division by zero")
	ErrBadInsn     = errors.New("ebpf: unknown instruction")
	ErrTooLong     = errors.New("ebpf: instruction limit exceeded")
	ErrBadHelper   = errors.New("ebpf: unknown helper")
	ErrBadMap      = errors.New("ebpf: bad map reference")
)

// VM executes eBPF programs against packet memory and registered maps.
type VM struct {
	maps  []Map
	Clock func() uint64  // ktime source; nil = 0
	Trace func(id int64) // trace helper sink
}

// NewVM returns an empty VM.
func NewVM() *VM { return &VM{} }

// RegisterMap registers a map and returns its descriptor (used as the
// first argument to map helpers).
func (v *VM) RegisterMap(m Map) int32 {
	v.maps = append(v.maps, m)
	return int32(len(v.maps))
}

// Verify performs the static checks the kernel verifier would: known
// opcodes, registers that exist, jump targets in range, and no writes to
// R10.
func (v *VM) Verify(prog []Insn) error {
	if len(prog) == 0 {
		return fmt.Errorf("ebpf: empty program")
	}
	for pc, ins := range prog {
		if ins.Dst >= NumRegs || ins.Src >= NumRegs {
			return fmt.Errorf("ebpf: bad register at %d: %v", pc, ins)
		}
		cls := ins.Op & 0x07
		switch cls {
		case ClassALU, ClassALU64, ClassLDX, ClassSTX, ClassST:
			if (cls == ClassALU || cls == ClassALU64 || cls == ClassLDX) && ins.Dst == R10 {
				return fmt.Errorf("ebpf: write to r10 at %d", pc)
			}
		case ClassJMP:
			op := ins.Op & 0xf0
			if op == Exit || op == Call {
				continue
			}
			target := pc + 1 + int(ins.Off)
			if target < 0 || target >= len(prog) {
				return fmt.Errorf("ebpf: jump out of range at %d: %v", pc, ins)
			}
		default:
			return fmt.Errorf("ebpf: unsupported class %#x at %d", cls, pc)
		}
	}
	last := prog[len(prog)-1]
	if last.Op&0x07 == ClassJMP && (last.Op&0xf0 == Exit || last.Op&0xf0 == JA) {
		return nil
	}
	return fmt.Errorf("ebpf: program does not end in exit or jump")
}

// memory bundles the VM's address regions for one execution.
type memory struct {
	pkt     []byte
	stack   [StackSize]byte
	scratch [ScratchSize]byte
}

// slice returns the size bytes at addr. Each bound is checked as an offset
// into its region, so an address near 2^64 cannot wrap into one.
func (m *memory) slice(addr uint64, size int) ([]byte, error) {
	n := uint64(size)
	if pkt := uint64(len(m.pkt)); addr <= pkt && n <= pkt-addr {
		return m.pkt[addr : addr+n], nil
	}
	if off := addr - StackBase; addr >= StackBase && off <= StackSize && n <= StackSize-off {
		return m.stack[off : off+n], nil
	}
	if off := addr - ScratchBase; addr >= ScratchBase && off <= ScratchSize && n <= ScratchSize-off {
		return m.scratch[off : off+n], nil
	}
	return nil, ErrOutOfBounds
}

// Result reports one program execution.
type Result struct {
	R0           uint64
	Instructions int64
}

// Run executes prog with R1 = packet address (0) and R2 = packet length.
// It returns R0 (the XDP verdict) and the executed instruction count.
func (v *VM) Run(prog []Insn, pkt []byte) (Result, error) {
	var regs [NumRegs]uint64
	mem := &memory{pkt: pkt}
	regs[R1] = 0
	regs[R2] = uint64(len(pkt))
	regs[R10] = StackTop

	scratchUsed := 0
	pc := 0
	var count int64
	for {
		if count >= MaxInstructions {
			return Result{Instructions: count}, ErrTooLong
		}
		if pc < 0 || pc >= len(prog) {
			return Result{Instructions: count}, fmt.Errorf("ebpf: pc %d out of range", pc)
		}
		ins := prog[pc]
		count++
		cls := ins.Op & 0x07
		switch cls {
		case ClassALU64, ClassALU:
			var src uint64
			if ins.Op&SrcReg != 0 {
				src = regs[ins.Src]
			} else {
				src = uint64(int64(ins.Imm))
			}
			dst := regs[ins.Dst]
			var out uint64
			switch ins.Op & 0xf0 {
			case OpAdd:
				out = dst + src
			case OpSub:
				out = dst - src
			case OpMul:
				out = dst * src
			case OpDiv:
				if src == 0 {
					return Result{Instructions: count}, ErrDivByZero
				}
				out = dst / src
			case OpOr:
				out = dst | src
			case OpAnd:
				out = dst & src
			case OpLsh:
				out = dst << (src & 63)
			case OpRsh:
				out = dst >> (src & 63)
			case OpNeg:
				out = uint64(-int64(dst))
			case OpMod:
				if src == 0 {
					return Result{Instructions: count}, ErrDivByZero
				}
				out = dst % src
			case OpXor:
				out = dst ^ src
			case OpMov:
				out = src
			case OpArsh:
				out = uint64(int64(dst) >> (src & 63))
			case OpEnd:
				out = dst // byte-swap treated as no-op (simulation is BE on the wire already)
			default:
				return Result{Instructions: count}, ErrBadInsn
			}
			if cls == ClassALU {
				out = uint64(uint32(out))
			}
			regs[ins.Dst] = out
			pc++

		case ClassLDX:
			size := sizeOf(ins.Op)
			if size == 0 {
				return Result{Instructions: count}, ErrBadInsn
			}
			b, err := mem.slice(regs[ins.Src]+uint64(int64(ins.Off)), size)
			if err != nil {
				return Result{Instructions: count}, err
			}
			regs[ins.Dst] = loadBE(b)
			pc++

		case ClassSTX, ClassST:
			size := sizeOf(ins.Op)
			if size == 0 {
				return Result{Instructions: count}, ErrBadInsn
			}
			b, err := mem.slice(regs[ins.Dst]+uint64(int64(ins.Off)), size)
			if err != nil {
				return Result{Instructions: count}, err
			}
			var val uint64
			if cls == ClassSTX {
				val = regs[ins.Src]
			} else {
				val = uint64(int64(ins.Imm))
			}
			storeBE(b, val)
			pc++

		case ClassJMP:
			op := ins.Op & 0xf0
			if op == Exit {
				return Result{R0: regs[R0], Instructions: count}, nil
			}
			if op == Call {
				if err := v.call(ins.Imm, &regs, mem, &scratchUsed); err != nil {
					return Result{Instructions: count}, err
				}
				pc++
				continue
			}
			var src uint64
			if ins.Op&SrcReg != 0 {
				src = regs[ins.Src]
			} else {
				src = uint64(int64(ins.Imm))
			}
			dst := regs[ins.Dst]
			taken := false
			switch op {
			case JA:
				taken = true
			case JEq:
				taken = dst == src
			case JGt:
				taken = dst > src
			case JGe:
				taken = dst >= src
			case JSet:
				taken = dst&src != 0
			case JNe:
				taken = dst != src
			case JSGt:
				taken = int64(dst) > int64(src)
			case JSGe:
				taken = int64(dst) >= int64(src)
			case JLt:
				taken = dst < src
			case JLe:
				taken = dst <= src
			case JSLt:
				taken = int64(dst) < int64(src)
			case JSLe:
				taken = int64(dst) <= int64(src)
			default:
				return Result{Instructions: count}, ErrBadInsn
			}
			if taken {
				pc += 1 + int(ins.Off)
			} else {
				pc++
			}

		default:
			return Result{Instructions: count}, ErrBadInsn
		}
	}
}

func sizeOf(op uint8) int {
	switch op & 0x18 {
	case SizeB:
		return 1
	case SizeH:
		return 2
	case SizeW:
		return 4
	case SizeDW:
		return 8
	}
	return 0
}

func loadBE(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	default:
		return binary.BigEndian.Uint64(b)
	}
}

func storeBE(b []byte, v uint64) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	default:
		binary.BigEndian.PutUint64(b, v)
	}
}

// call dispatches a helper. Map helpers take (mapfd in R1, key ptr in R2,
// value ptr in R3 for update).
func (v *VM) call(id int32, regs *[NumRegs]uint64, mem *memory, scratchUsed *int) error {
	switch id {
	case HelperMapLookup:
		m, err := v.mapOf(regs[R1])
		if err != nil {
			return err
		}
		key, err := mem.slice(regs[R2], m.KeySize())
		if err != nil {
			return err
		}
		val, ok := m.Lookup(key)
		if !ok {
			regs[R0] = 0
			return nil
		}
		// Copy the value into scratch and return a pointer to it.
		if *scratchUsed+len(val) > ScratchSize {
			*scratchUsed = 0
		}
		off := *scratchUsed
		copy(mem.scratch[off:], val)
		*scratchUsed += (len(val) + 7) &^ 7
		regs[R0] = ScratchBase + uint64(off)
	case HelperMapUpdate:
		m, err := v.mapOf(regs[R1])
		if err != nil {
			return err
		}
		key, err := mem.slice(regs[R2], m.KeySize())
		if err != nil {
			return err
		}
		val, err := mem.slice(regs[R3], m.ValueSize())
		if err != nil {
			return err
		}
		if err := m.Update(key, val); err != nil {
			regs[R0] = ^uint64(0) // -1
			return nil
		}
		regs[R0] = 0
	case HelperMapDelete:
		m, err := v.mapOf(regs[R1])
		if err != nil {
			return err
		}
		key, err := mem.slice(regs[R2], m.KeySize())
		if err != nil {
			return err
		}
		if m.Delete(key) {
			regs[R0] = 0
		} else {
			regs[R0] = ^uint64(0)
		}
	case HelperKtime:
		if v.Clock != nil {
			regs[R0] = v.Clock()
		} else {
			regs[R0] = 0
		}
	case HelperTrace:
		if v.Trace != nil {
			v.Trace(int64(regs[R1]))
		}
		regs[R0] = 0
	case HelperCsumDiff:
		// csum_diff(old, new) — returns the RFC 1624 adjustment input;
		// the data-path applies it on egress. Modeled as a no-op value.
		regs[R0] = regs[R1] ^ regs[R2]
	default:
		return ErrBadHelper
	}
	return nil
}

func (v *VM) mapOf(fd uint64) (Map, error) {
	idx := int(fd) - 1
	if idx < 0 || idx >= len(v.maps) {
		return nil, ErrBadMap
	}
	return v.maps[idx], nil
}
