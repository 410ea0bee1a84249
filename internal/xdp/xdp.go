// Package xdp defines FlexTOE's eXpress Data Path module interface
// (§3.3): programs that operate on raw packets inside the data-path
// pipeline and return a verdict. Programs may be written natively in Go
// or in eBPF bytecode (see internal/ebpf); both report the instruction
// count they executed so the pipeline charges real simulated cycles.
package xdp

// Verdict is an XDP program's result code.
type Verdict int

const (
	// Pass forwards the packet to the next FlexTOE pipeline stage.
	Pass Verdict = iota
	// Drop discards the packet.
	Drop
	// TX sends the packet out the MAC immediately.
	TX
	// Redirect forwards the packet to the control plane.
	Redirect
)

// Context is the packet view handed to a program: the raw frame bytes,
// mutable in place. Length changes (e.g. VLAN strip) shrink or grow Data.
type Context struct {
	Data []byte
}

// Program is an XDP module. Run may mutate ctx.Data and returns the
// verdict plus the number of instructions executed (the pipeline charges
// them as FPC cycles; eBPF programs count dynamically, native programs
// estimate statically).
type Program interface {
	Run(ctx *Context) (Verdict, int64)
}

// Func adapts a plain function (with a fixed instruction estimate) to the
// Program interface — the "C module" flavour of the paper's API.
type Func struct {
	Instr int64
	F     func(ctx *Context) Verdict
}

// Run invokes the function.
func (f *Func) Run(ctx *Context) (Verdict, int64) {
	return f.F(ctx), f.Instr
}

// Null is the no-op program used by Table 2's "XDP (null)" row: it passes
// every packet untouched, costing only the hook overhead.
func Null() Program {
	return &Func{Instr: 24, F: func(*Context) Verdict { return Pass }}
}
