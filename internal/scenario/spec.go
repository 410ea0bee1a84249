// Package scenario turns declarative JSON specifications into runs of
// the simulated testbed: a Spec names a topology (single switch or
// leaf–spine fabric), a set of machines (stack personality, buffers,
// congestion control, reassembly budget), a set of workloads (bulk, RPC,
// KV, open-loop flows, incast), fault injection
// (loss/duplication/reordering matrices), and a measurement block
// (flowmon attach points, per-rack fleets, histogram options). The
// builder compiles a validated Spec into the exact constructor sequence
// the hand-written harnesses in internal/experiments use, so a spec is
// provably equivalent to the corresponding figure runner.
//
// Determinism contract (doc.go "Scenario service"): a Spec fully seeds
// every random stream, so the same spec produces byte-identical Result
// payloads on every rerun, regardless of how many other scenarios run
// concurrently in the same process. Validation is strict: unknown JSON
// fields, dangling machine references, and parameter combinations that
// would violate the determinism or pooling contracts are rejected before
// anything is built.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"

	"flextoe/internal/tcpseg"
)

// Spec is one declarative scenario.
type Spec struct {
	// Name labels the scenario; required, also the persistence key
	// component for the job service.
	Name string `json:"name"`
	// Seed is the experiment master seed: it seeds the switch/fabric RNGs
	// and defaults every unset per-machine and per-workload seed.
	Seed uint64 `json:"seed"`
	// DurationUs is the measured window in simulated microseconds.
	DurationUs int64 `json:"duration_us"`
	// WarmupUs runs before measurement: at its end queue statistics and
	// workload histograms reset and counter baselines snapshot, so every
	// result column covers the same post-warmup window.
	WarmupUs int64 `json:"warmup_us,omitempty"`
	// Cores is accepted (>= 0) and echoed into Result.Cores; it has no
	// other effect. It selected the engine-shard count until the sharded
	// engine was taken out (every payload was already identical at every
	// value). The frozen bench/ still sets it; the benchmark PR that
	// retires sim.shard2_speedup removes it with Result.Cores.
	Cores int `json:"cores,omitempty"`

	Topology  Topology   `json:"topology"`
	Machines  []Machine  `json:"machines"`
	Workloads []Workload `json:"workloads"`
	Measure   Measure    `json:"measure,omitempty"`
}

// Topology selects the network between the NICs.
type Topology struct {
	// Kind is "testbed" (one switch) or "fabric" (leaf–spine).
	Kind   string      `json:"kind"`
	Switch *SwitchSpec `json:"switch,omitempty"` // testbed only
	Fabric *FabricSpec `json:"fabric,omitempty"` // fabric only
}

// Topology kinds.
const (
	TopoTestbed = "testbed"
	TopoFabric  = "fabric"
)

// SwitchSpec is one switch tier's queueing and injection policy
// (netsim.SwitchConfig in JSON clothing).
type SwitchSpec struct {
	LossProb          float64 `json:"loss_prob,omitempty"`
	DupProb           float64 `json:"dup_prob,omitempty"`
	ReorderProb       float64 `json:"reorder_prob,omitempty"`
	ReorderDelayUs    int64   `json:"reorder_delay_us,omitempty"`
	ECNThresholdBytes int     `json:"ecn_threshold_bytes,omitempty"`
	QueueCapBytes     int     `json:"queue_cap_bytes,omitempty"`
	WREDMinBytes      int     `json:"wred_min_bytes,omitempty"`
	WREDMaxBytes      int     `json:"wred_max_bytes,omitempty"`
	WREDMaxProb       float64 `json:"wred_max_prob,omitempty"`
	LatencyNs         int64   `json:"latency_ns,omitempty"`
}

// FabricSpec parameterizes a leaf–spine fabric (fabric.Config).
type FabricSpec struct {
	Racks         int         `json:"racks"`
	Spines        int         `json:"spines"`
	LeafHostGbps  float64     `json:"leaf_host_gbps,omitempty"`
	LeafSpineGbps float64     `json:"leaf_spine_gbps,omitempty"`
	HostPropNs    int64       `json:"host_prop_ns,omitempty"`
	TrunkPropNs   int64       `json:"trunk_prop_ns,omitempty"`
	Leaf          *SwitchSpec `json:"leaf,omitempty"`
	Spine         *SwitchSpec `json:"spine,omitempty"`
	// QueueHistUnit is accepted (>= 0) and has no other effect: no result
	// reads a queue-occupancy histogram, but the frozen
	// bench/workloads/incast_fabric.json still sets the key. The
	// benchmark PR that retires Spec.Cores removes it too.
	QueueHistUnit int `json:"queue_hist_unit,omitempty"`
}

// Machine describes one host (testbed.MachineSpec).
type Machine struct {
	Name string `json:"name"`
	// Stack is the personality: "flextoe", "linux", "tas", or "chelsio".
	Stack    string  `json:"stack"`
	Cores    int     `json:"cores,omitempty"`
	BufBytes uint32  `json:"buf_bytes,omitempty"`
	NICGbps  float64 `json:"nic_gbps,omitempty"`
	Rack     int     `json:"rack,omitempty"`
	// CC is the FlexTOE control plane's congestion-control policy:
	// "none", "dctcp", or "timely" (flextoe machines only).
	CC string `json:"cc,omitempty"`
	// SACK enables SACK negotiation (flextoe machines only).
	SACK bool `json:"sack,omitempty"`
	// OOOCap overrides the reassembly interval budget (any personality;
	// at most tcpseg.MaxOOOIntervals on flextoe machines, 32 otherwise).
	OOOCap        int     `json:"ooo_cap,omitempty"`
	ListenBacklog int     `json:"listen_backlog,omitempty"`
	AcceptRate    float64 `json:"accept_rate,omitempty"`
	// StackCores dedicates fast-path cores (tas machines only).
	StackCores int `json:"stack_cores,omitempty"`
	// Seed overrides the machine seed (0 = derive from Spec.Seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Socket ring bounds (buf_bytes). The 16-bit window field counts units
// of 1<<tcpseg.WindowScale bytes: a smaller ring (< 128 B) advertises a
// zero window forever, and a ring above 8 MB holds bytes the peer is
// never told of.
const (
	minBufBytes = 1 << tcpseg.WindowScale
	maxBufBytes = 1 << (16 + tcpseg.WindowScale)
)

// Stack personalities.
const (
	StackFlexTOE = "flextoe"
	StackLinux   = "linux"
	StackTAS     = "tas"
	StackChelsio = "chelsio"
)

// Workload is one traffic pattern; Kind selects which sub-spec applies,
// and exactly that sub-spec must be present.
type Workload struct {
	// Kind is "bulk", "rpc", "kv", "flowgen", or "incast".
	Kind    string           `json:"kind"`
	Bulk    *BulkWorkload    `json:"bulk,omitempty"`
	RPC     *RPCWorkload     `json:"rpc,omitempty"`
	KV      *KVWorkload      `json:"kv,omitempty"`
	FlowGen *FlowGenWorkload `json:"flowgen,omitempty"`
	Incast  *IncastWorkload  `json:"incast,omitempty"`
}

// Workload kinds.
const (
	KindBulk    = "bulk"
	KindRPC     = "rpc"
	KindKV      = "kv"
	KindFlowGen = "flowgen"
	KindIncast  = "incast"
)

// BulkWorkload saturates Conns connections from the client machines
// (round-robin) into one sink.
type BulkWorkload struct {
	Server  string   `json:"server"`
	Port    uint16   `json:"port"`
	Clients []string `json:"clients"`
	Conns   int      `json:"conns,omitempty"` // default len(Clients)
}

// RPCWorkload runs closed-loop request/response echo: one client driver
// per entry in Clients, each with Conns connections.
type RPCWorkload struct {
	Server    string   `json:"server"`
	Port      uint16   `json:"port"`
	Clients   []string `json:"clients"`
	Conns     int      `json:"conns"`
	ReqBytes  int      `json:"req_bytes"`
	RespBytes int      `json:"resp_bytes,omitempty"` // 0 = echo ReqBytes
	Pipeline  int      `json:"pipeline,omitempty"`
	AppCycles int64    `json:"app_cycles,omitempty"` // server-side work
}

// KVWorkload runs a closed-loop key-value store workload.
type KVWorkload struct {
	Server    string   `json:"server"`
	Port      uint16   `json:"port"`
	Clients   []string `json:"clients"`
	Conns     int      `json:"conns"`
	KeyBytes  int      `json:"key_bytes,omitempty"`
	ValBytes  int      `json:"val_bytes,omitempty"`
	SetRatio  float64  `json:"set_ratio,omitempty"`
	Pipeline  int      `json:"pipeline,omitempty"`
	AppCycles int64    `json:"app_cycles,omitempty"`
	Seed      uint64   `json:"seed,omitempty"` // 0 = derive from Spec.Seed
}

// FlowGenWorkload generates open-loop Poisson arrivals of SizeBytes-byte
// flows over Conns persistent connections, dealt round-robin from the
// client machines to the server sinks (Fig 17b's ECMP point is one).
type FlowGenWorkload struct {
	Servers   []string `json:"servers"`
	Port      uint16   `json:"port"`
	Clients   []string `json:"clients"`
	Rate      float64  `json:"rate"`       // aggregate flows/second
	SizeBytes int      `json:"size_bytes"` // every flow's payload
	Conns     int      `json:"conns,omitempty"`
	MaxFlows  int      `json:"max_flows,omitempty"`
	Seed      uint64   `json:"seed,omitempty"` // 0 = derive from Spec.Seed
}

// IncastWorkload drives barrier-synchronized N-to-1 incast: FanIn
// connections spread round-robin over the sender machines.
type IncastWorkload struct {
	Agg        string   `json:"agg"`
	Port       uint16   `json:"port"`
	Senders    []string `json:"senders"`
	FanIn      int      `json:"fan_in"`
	BlockBytes int      `json:"block_bytes"`
	Rounds     int      `json:"rounds,omitempty"` // 0 = until sim end
}

// Measure selects what the Result reports beyond the always-present
// workload readouts and counters (every machine's stack counters, plus
// the single switch's or the fabric's).
type Measure struct {
	// Flowmon attaches a passive analyzer to each named machine's NIC.
	Flowmon []FlowmonAttach `json:"flowmon,omitempty"`
	// PerRackFleets attaches one flowmon Fleet per rack (every host NIC
	// in the rack) and reports per-rack totals with per-spine RTT/retx
	// splits, grouped by the same CRC-32 flow hash ECMP uses. Fabric
	// topologies only.
	PerRackFleets bool `json:"per_rack_fleets,omitempty"`
	// PerFlow includes per-flow analyzer records in the Result payload.
	// The server's NDJSON stream replays flow records from that payload,
	// so streams carry flow lines only when this is set.
	PerFlow bool `json:"per_flow,omitempty"`
}

// FlowmonAttach is one analyzer attach point.
type FlowmonAttach struct {
	Machine string `json:"machine"`
	// DupAck is the observed stack's duplicate-ACK rule: "flextoe"
	// (default) or "baseline".
	DupAck   string `json:"dupack,omitempty"`
	OOOCap   int    `json:"ooo_cap,omitempty"`
	RTTMaxUs int    `json:"rtt_max_us,omitempty"`
}

// Parse decodes a Spec strictly: unknown fields are errors, and the
// decoded spec is validated.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// errf builds a validation error.
func errf(format string, args ...any) error {
	return fmt.Errorf("scenario: invalid spec: "+format, args...)
}

func validProb(p float64) bool { return p >= 0 && p <= 1 }

func (sw *SwitchSpec) validate(where string) error {
	if !validProb(sw.LossProb) || !validProb(sw.DupProb) || !validProb(sw.ReorderProb) || !validProb(sw.WREDMaxProb) {
		return errf("%s: probabilities must be in [0,1]", where)
	}
	if sw.ReorderProb > 0 && sw.ReorderDelayUs <= 0 {
		return errf("%s: reorder_prob > 0 requires reorder_delay_us > 0", where)
	}
	if sw.ReorderDelayUs < 0 || sw.LatencyNs < 0 {
		return errf("%s: delays must be >= 0", where)
	}
	if sw.WREDMaxBytes > 0 && sw.WREDMaxBytes <= sw.WREDMinBytes {
		return errf("%s: wred_max_bytes must exceed wred_min_bytes", where)
	}
	if sw.ECNThresholdBytes < 0 || sw.QueueCapBytes < 0 || sw.WREDMinBytes < 0 || sw.WREDMaxBytes < 0 {
		return errf("%s: byte thresholds must be >= 0", where)
	}
	return nil
}

// machineIndex returns the index of the named machine, -1 if absent.
// Linear scan: specs hold a handful of machines and validation must not
// range over maps (the determinism contract bans it package-wide).
func (s *Spec) machineIndex(name string) int {
	for i := range s.Machines {
		if s.Machines[i].Name == name {
			return i
		}
	}
	return -1
}

func (s *Spec) checkRefs(kind string, names []string) error {
	if len(names) == 0 {
		return errf("workload %s: needs at least one machine reference", kind)
	}
	for _, n := range names {
		if s.machineIndex(n) < 0 {
			return errf("workload %s: unknown machine %q", kind, n)
		}
	}
	return nil
}

// Validate checks the spec against the determinism and pooling
// contracts. It does not mutate the spec; defaults apply at build time.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errf("name is required")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.') {
			return errf("name %q: only [a-zA-Z0-9._-] allowed", s.Name)
		}
	}
	if s.DurationUs <= 0 {
		return errf("duration_us must be > 0")
	}
	if s.WarmupUs < 0 {
		return errf("warmup_us must be >= 0")
	}
	if s.Cores < 0 {
		return errf("cores must be >= 0")
	}

	racks := 1
	switch s.Topology.Kind {
	case TopoTestbed:
		if s.Topology.Fabric != nil {
			return errf("testbed topology must not carry a fabric block")
		}
		if s.Topology.Switch != nil {
			if err := s.Topology.Switch.validate("switch"); err != nil {
				return err
			}
		}
	case TopoFabric:
		if s.Topology.Switch != nil {
			return errf("fabric topology must not carry a switch block")
		}
		f := s.Topology.Fabric
		if f == nil {
			return errf("fabric topology requires a fabric block")
		}
		if f.Racks < 1 || f.Spines < 1 {
			return errf("fabric: racks and spines must be >= 1")
		}
		if f.LeafHostGbps < 0 || f.LeafSpineGbps < 0 || f.HostPropNs < 0 || f.TrunkPropNs < 0 || f.QueueHistUnit < 0 {
			return errf("fabric: rates, propagation delays and queue_hist_unit must be >= 0")
		}
		if f.Leaf != nil {
			if err := f.Leaf.validate("fabric.leaf"); err != nil {
				return err
			}
		}
		if f.Spine != nil {
			if err := f.Spine.validate("fabric.spine"); err != nil {
				return err
			}
		}
		racks = f.Racks
	default:
		return errf("topology.kind must be %q or %q", TopoTestbed, TopoFabric)
	}

	if len(s.Machines) == 0 {
		return errf("at least one machine is required")
	}
	for i := range s.Machines {
		m := &s.Machines[i]
		if m.Name == "" {
			return errf("machine %d: name is required", i)
		}
		for j := 0; j < i; j++ {
			if s.Machines[j].Name == m.Name {
				return errf("duplicate machine name %q", m.Name)
			}
		}
		switch m.Stack {
		case StackFlexTOE:
		case StackLinux, StackTAS, StackChelsio:
			if m.CC != "" {
				return errf("machine %q: cc applies to flextoe machines only", m.Name)
			}
			if m.SACK {
				return errf("machine %q: sack applies to flextoe machines only", m.Name)
			}
			if m.AcceptRate != 0 {
				return errf("machine %q: accept_rate applies to flextoe machines only", m.Name)
			}
			if m.StackCores != 0 && m.Stack != StackTAS {
				return errf("machine %q: stack_cores applies to tas machines only", m.Name)
			}
		default:
			return errf("machine %q: unknown stack %q", m.Name, m.Stack)
		}
		switch m.CC {
		case "", "none", "dctcp", "timely":
		default:
			return errf("machine %q: unknown cc %q", m.Name, m.CC)
		}
		if m.Cores < 0 || m.StackCores < 0 || m.ListenBacklog < 0 || m.AcceptRate < 0 || m.NICGbps < 0 {
			return errf("machine %q: negative resource values", m.Name)
		}
		// A FlexTOE connection's reassembly set is a fixed array in its
		// protocol state (Table 5); the baselines grow theirs.
		oooMax := 32
		if m.Stack == StackFlexTOE {
			oooMax = tcpseg.MaxOOOIntervals
		}
		if m.OOOCap < 0 || m.OOOCap > oooMax {
			return errf("machine %q: ooo_cap must be in [0,%d] on a %s machine", m.Name, oooMax, m.Stack)
		}
		if b := m.BufBytes; b != 0 && (b&(b-1) != 0 || b < minBufBytes || b > maxBufBytes) {
			return errf("machine %q: buf_bytes must be 0 or a power of two in [%d,%d]", m.Name, minBufBytes, maxBufBytes)
		}
		if m.Rack < 0 || m.Rack >= racks {
			return errf("machine %q: rack %d out of range (racks=%d)", m.Name, m.Rack, racks)
		}
	}

	if len(s.Workloads) == 0 {
		return errf("at least one workload is required")
	}
	for i := range s.Workloads {
		if err := s.validateWorkload(i); err != nil {
			return err
		}
	}
	// Each dial takes its stack's next 16-bit source port whose 4-tuple
	// is not live, skipping live ones, and a stack panics once every port
	// toward a destination is in use. A machine whose dials outnumber the
	// ports could get there, so the spec is refused here instead; the
	// bound counts every dial, closed or not, and is conservative.
	dials := make([]int, len(s.Machines))
	for i := range s.Workloads {
		from, n, each := s.Workloads[i].dials()
		for j, name := range from {
			share := n
			if !each {
				share = n / len(from)
				if j < n%len(from) {
					share++
				}
			}
			m := s.machineIndex(name)
			dials[m] += min(share, maxDials+1) // saturate: conns is any int
			if dials[m] > maxDials {
				return errf("machine %q dials more than %d connections (one ephemeral port each)", name, maxDials)
			}
		}
	}

	for i := range s.Measure.Flowmon {
		fa := &s.Measure.Flowmon[i]
		if s.machineIndex(fa.Machine) < 0 {
			return errf("measure.flowmon[%d]: unknown machine %q", i, fa.Machine)
		}
		// One analyzer per NIC: taps are single slots, so a second attach
		// would silently replace the first.
		for j := 0; j < i; j++ {
			if s.Measure.Flowmon[j].Machine == fa.Machine {
				return errf("measure.flowmon[%d]: machine %q already has an analyzer", i, fa.Machine)
			}
		}
		switch fa.DupAck {
		case "", "flextoe", "baseline":
		default:
			return errf("measure.flowmon[%d]: unknown dupack rule %q", i, fa.DupAck)
		}
		if fa.OOOCap < -1 || fa.OOOCap > 32 {
			return errf("measure.flowmon[%d]: ooo_cap must be in [-1,32]", i)
		}
		if fa.RTTMaxUs < 0 {
			return errf("measure.flowmon[%d]: rtt_max_us must be >= 0", i)
		}
	}
	if s.Measure.PerRackFleets && s.Topology.Kind != TopoFabric {
		return errf("measure.per_rack_fleets requires a fabric topology")
	}
	if s.Measure.PerRackFleets && len(s.Measure.Flowmon) > 0 {
		// Rack fleets tap every host NIC; a per-machine analyzer on the
		// same NIC would fight over the single tap slot.
		return errf("measure.per_rack_fleets excludes explicit flowmon attach points")
	}
	return nil
}

// listenKey is a (machine, port) listener; duplicates across workloads
// would collide on the stack's port space.
type listenKey struct {
	machine string
	port    uint16
}

func (s *Spec) validateWorkload(i int) error {
	w := &s.Workloads[i]
	subs := 0
	for _, p := range []bool{w.Bulk != nil, w.RPC != nil, w.KV != nil, w.FlowGen != nil, w.Incast != nil} {
		if p {
			subs++
		}
	}
	if subs != 1 {
		return errf("workload %d: exactly one workload block must be set", i)
	}
	var listeners []listenKey
	for j := 0; j <= i; j++ {
		listeners = append(listeners, s.Workloads[j].listeners()...)
	}
	mine := w.listeners()
	for _, lk := range mine {
		if lk.port == 0 {
			return errf("workload %d (%s): port must be nonzero", i, w.Kind)
		}
		n := 0
		for _, other := range listeners {
			if other == lk {
				n++
			}
		}
		if n > 1 {
			return errf("workload %d (%s): duplicate listener %s:%d", i, w.Kind, lk.machine, lk.port)
		}
	}

	switch w.Kind {
	case KindBulk:
		if w.Bulk == nil {
			return errf("workload %d: kind %q requires the matching block", i, w.Kind)
		}
		b := w.Bulk
		if err := s.checkRefs("bulk", append([]string{b.Server}, b.Clients...)); err != nil {
			return err
		}
		if len(b.Clients) == 0 {
			return errf("workload bulk: clients must be non-empty")
		}
		if b.Conns < 0 {
			return errf("workload bulk: conns must be >= 0")
		}
	case KindRPC:
		if w.RPC == nil {
			return errf("workload %d: kind %q requires the matching block", i, w.Kind)
		}
		r := w.RPC
		if err := s.checkRefs("rpc", append([]string{r.Server}, r.Clients...)); err != nil {
			return err
		}
		if len(r.Clients) == 0 {
			return errf("workload rpc: clients must be non-empty")
		}
		if r.Conns < 1 || r.ReqBytes < 1 || r.RespBytes < 0 || r.Pipeline < 0 || r.AppCycles < 0 {
			return errf("workload rpc: conns and req_bytes must be >= 1, other values >= 0")
		}
	case KindKV:
		if w.KV == nil {
			return errf("workload %d: kind %q requires the matching block", i, w.Kind)
		}
		k := w.KV
		if err := s.checkRefs("kv", append([]string{k.Server}, k.Clients...)); err != nil {
			return err
		}
		if len(k.Clients) == 0 {
			return errf("workload kv: clients must be non-empty")
		}
		if k.Conns < 1 || k.KeyBytes < 0 || k.ValBytes < 0 || k.Pipeline < 0 || k.AppCycles < 0 {
			return errf("workload kv: conns must be >= 1, sizes >= 0")
		}
		if !validProb(k.SetRatio) {
			return errf("workload kv: set_ratio must be in [0,1]")
		}
	case KindFlowGen:
		if w.FlowGen == nil {
			return errf("workload %d: kind %q requires the matching block", i, w.Kind)
		}
		g := w.FlowGen
		if err := s.checkRefs("flowgen", append(append([]string{}, g.Servers...), g.Clients...)); err != nil {
			return err
		}
		if len(g.Servers) == 0 || len(g.Clients) == 0 {
			return errf("workload flowgen: servers and clients must be non-empty")
		}
		if g.Rate <= 0 {
			return errf("workload flowgen: rate must be > 0")
		}
		if g.SizeBytes < 1 {
			return errf("workload flowgen: size_bytes must be >= 1")
		}
		if g.Conns < 0 || g.MaxFlows < 0 {
			return errf("workload flowgen: conns and max_flows must be >= 0")
		}
	case KindIncast:
		if w.Incast == nil {
			return errf("workload %d: kind %q requires the matching block", i, w.Kind)
		}
		in := w.Incast
		if err := s.checkRefs("incast", append([]string{in.Agg}, in.Senders...)); err != nil {
			return err
		}
		if len(in.Senders) == 0 {
			return errf("workload incast: senders must be non-empty")
		}
		if in.FanIn < 1 || in.BlockBytes < 1 || in.Rounds < 0 {
			return errf("workload incast: fan_in and block_bytes must be >= 1, rounds >= 0")
		}
	default:
		return errf("workload %d: unknown kind %q", i, w.Kind)
	}
	return nil
}

// maxDials is the number of distinct 16-bit ephemeral source ports.
const maxDials = 1<<16 - 1

// dials returns the machines a validated workload dials from and its n
// connections: n from each one listed (rpc, kv), else dealt round-robin.
func (w *Workload) dials() (from []string, n int, each bool) {
	switch {
	case w.RPC != nil:
		return w.RPC.Clients, w.RPC.Conns, true
	case w.KV != nil:
		return w.KV.Clients, w.KV.Conns, true
	case w.Bulk != nil:
		from, n = w.Bulk.Clients, w.Bulk.Conns
	case w.FlowGen != nil:
		from, n = w.FlowGen.Clients, w.FlowGen.Conns
	case w.Incast != nil:
		return w.Incast.Senders, w.Incast.FanIn, false
	}
	if n == 0 {
		n = len(from) // bulk and flowgen default to one per client
	}
	return from, n, false
}

// listeners returns the (machine, port) pairs this workload listens on.
func (w *Workload) listeners() []listenKey {
	switch {
	case w.Bulk != nil:
		return []listenKey{{w.Bulk.Server, w.Bulk.Port}}
	case w.RPC != nil:
		return []listenKey{{w.RPC.Server, w.RPC.Port}}
	case w.KV != nil:
		return []listenKey{{w.KV.Server, w.KV.Port}}
	case w.FlowGen != nil:
		out := make([]listenKey, 0, len(w.FlowGen.Servers))
		for _, srv := range w.FlowGen.Servers {
			out = append(out, listenKey{srv, w.FlowGen.Port})
		}
		return out
	case w.Incast != nil:
		return []listenKey{{w.Incast.Agg, w.Incast.Port}}
	}
	return nil
}
