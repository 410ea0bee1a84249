// Package core implements the FlexTOE data-path (§3): a fine-grained
// data-parallel pipeline of processing modules — pre-processing, protocol,
// post-processing, DMA and context-queue stages — executing on simulated
// SmartNIC flow processing cores, with per-flow-group islands, segment
// sequencing and reordering, a Carousel flow scheduler, an extensible
// module/XDP API, and one-shot segment handling (payload moves directly
// between the wire and per-socket host buffers; the NIC never buffers
// segments).
//
// The identical pipeline runs on three platforms (§4, §E): the Agilio-CX40
// NFP-4000 model, and x86/BlueField ports where stages map to symmetric
// cores with software rings and an extra netif stage. Platform differences
// are confined to Config.
//
// The run-to-completion ablation (Config.RunToCompletion, Table 3's
// Baseline row) is a cost model over the pipeline's own decisions: it
// runs the pipeline's per-segment methods one segment at a time on a
// single FPC, so the two differ in parallelism and cost alone.
package core

import (
	"fmt"

	"flextoe/internal/nfp"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// Config shapes one FlexTOE data-path instance.
type Config struct {
	NFP nfp.Config // processor/memory model

	// Pipeline geometry (§4 "FPC mapping").
	FlowGroups int // protocol islands (Agilio CX: 4)
	PreRepl    int // pre-processing FPCs per flow group
	ProtoRepl  int // protocol FPCs per flow group (atomic per connection)
	PostRepl   int // post-processing FPCs per flow group
	DMARepl    int // DMA manager FPCs on the service island
	CtxRepl    int // context-queue FPCs on the service island

	ThreadsPerFPC int // hardware threads (8; 1 in the Table 3 ablation)

	// Ablation switches (Table 3).
	RunToCompletion bool // entire data-path on one FPC, no pipeline

	// Protocol parameters.
	MSS uint32
	// OOOIntervals is the receive-reassembly interval-set capacity per
	// connection. 1 (default) reproduces the paper's TAS-style single
	// interval within the Table 5 state budget; up to
	// tcpseg.MaxOOOIntervals trades 8 B of protocol state per extra
	// interval for fewer out-of-order drops under heavy reordering.
	OOOIntervals int
	// EnableSACK lets the control plane negotiate SACK-permitted on new
	// connections: the protocol stage then advertises the reassembly
	// interval set as SACK blocks in ACKs and recovers from duplicate
	// ACKs with selective retransmission (a bounded per-connection
	// scoreboard, 8 B per interval in use beyond the Table 5 budget)
	// instead of go-back-N. Off (default) reproduces the paper's
	// TAS-style recovery exactly.
	EnableSACK bool

	// Platform adjustments for the x86/BlueField ports (§E). SoftwarePort
	// marks a port on general-purpose cores: inter-stage queues cost ring
	// ops instead of CLS rings, an extra DPDK netif module runs per
	// received packet, and a hardware cache hierarchy makes post-processing
	// state cost a flat FlatMemCycles.
	SoftwarePort    bool
	CostScale       float64 // instruction-count multiplier (ISA/IPC difference)
	CopyBytesPerSec float64 // memcpy bandwidth for the shared-memory "DMA" stage; 0 = use PCIe DMA engine
	FlatMemCycles   int
}

// Data-path parameters that hold one value on every platform, figure,
// spec and workload. Every data segment is acknowledged and every
// segment carries TCP timestamps, as in the paper.
const (
	// Bounded resource pools (§3.1.1).
	segPoolSize  = 512 // CTM segment buffers
	descPoolSize = 256 // HC descriptor buffers

	// Scheduler wheel (§3.4).
	schedSlot  = 2 * sim.Microsecond
	schedSlots = 4096
)

// AgilioCX40Config is the paper's primary target (§4): four flow-group
// islands with 4 pre/post FPCs each, protocol FPCs per island, service
// island running scheduler/DMA/context queues.
func AgilioCX40Config() Config {
	return Config{
		NFP:           nfp.AgilioCX40(),
		FlowGroups:    4,
		PreRepl:       2,
		ProtoRepl:     2,
		PostRepl:      2,
		DMARepl:       4,
		CtxRepl:       2,
		ThreadsPerFPC: 8,
		MSS:           1448,
		CostScale:     1.0,
	}
}

// X86Config is the x86 port (§E): one pipeline (no flow groups), symmetric
// 2.35 GHz cores, software rings, shared-memory copies, extra netif stage.
// FlexTOE-scalar uses 7 cores; the 2× configuration replicates pre and
// post for 9.
func X86Config(replicated bool) Config {
	c := Config{
		NFP: nfp.Config{
			FPCHz:            2350e6,
			Threads:          1,
			LocalMemCycles:   1,
			CLSCycles:        4, // L2-ish
			IMEMCycles:       14,
			EMEMCycles:       40,
			DRAMCycles:       90,
			LocalCAMEntries:  64,
			CLSCacheEntries:  1 << 16,
			EMEMCacheEntries: 1 << 20,
			PreLookupEntries: 1 << 12,
			PCIeBytesPerSec:  12e9,
			PCIeLatency:      sim.Nanosecond, // shared memory, not PCIe
			DMAMaxInflight:   64,
			MMIOLatency:      100 * sim.Nanosecond,
		},
		FlowGroups:      1,
		PreRepl:         1,
		ProtoRepl:       1,
		PostRepl:        1,
		DMARepl:         1,
		CtxRepl:         1,
		ThreadsPerFPC:   1,
		MSS:             1448,
		SoftwarePort:    true,
		CostScale:       0.45, // superscalar x86 retires several NFP-ISA ops per cycle
		CopyBytesPerSec: 11e9,
		FlatMemCycles:   40,
	}
	if replicated {
		c.PreRepl, c.PostRepl = 2, 2
	}
	return c
}

// BlueFieldConfig is the BlueField port (§E, Fig. 14): wimpy A72 cores,
// slow memcpy, software rings.
func BlueFieldConfig(replicated bool) Config {
	c := X86Config(replicated)
	c.NFP.FPCHz = 800e6
	c.NFP.MMIOLatency = 250 * sim.Nanosecond
	c.CostScale = 0.8 // modest dual-issue
	c.CopyBytesPerSec = 2.6e9
	c.FlatMemCycles = 60
	c.NFP.CLSCycles = 8
	return c
}

// Validate fills defaults and checks invariants.
func (c *Config) Validate() {
	if c.FlowGroups <= 0 {
		c.FlowGroups = 1
	}
	if c.ThreadsPerFPC <= 0 {
		c.ThreadsPerFPC = 1
	}
	if c.MSS == 0 {
		c.MSS = 1448
	}
	if c.OOOIntervals <= 0 {
		c.OOOIntervals = 1
	}
	if c.OOOIntervals > tcpseg.MaxOOOIntervals {
		c.OOOIntervals = tcpseg.MaxOOOIntervals
	}
	if c.CostScale == 0 {
		c.CostScale = 1.0
	}
	for _, r := range []*int{&c.PreRepl, &c.ProtoRepl, &c.PostRepl, &c.DMARepl, &c.CtxRepl} {
		if *r <= 0 {
			*r = 1
		}
	}
	// Steering picks a flow group, a protocol worker and a context-queue
	// FPC with a mask, as the NIC's hash and index units do: those widths
	// are powers of two (every preset uses 1, 2 or 4).
	for _, n := range []int{c.FlowGroups, c.ProtoRepl, c.CtxRepl} {
		if n&(n-1) != 0 {
			panic(fmt.Sprintf("core: FlowGroups %d, ProtoRepl %d, CtxRepl %d: steering needs powers of two",
				c.FlowGroups, c.ProtoRepl, c.CtxRepl))
		}
	}
}
