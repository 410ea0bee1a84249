package ebpf

// StoreImm stores *(size*)(dst + off) = imm: the one store form the
// shipped programs do not use, assembled here for the VM's tests.
func (a *Asm) StoreImm(dst uint8, off int16, size uint8, imm int32) *Asm {
	return a.emit(Insn{Op: ClassST | ModeMem | size, Dst: dst, Off: off, Imm: imm})
}

// MustProgram is Program, panicking on error (for the tests' static
// programs).
func (a *Asm) MustProgram() []Insn {
	p, err := a.Program()
	if err != nil {
		panic(err)
	}
	return p
}
