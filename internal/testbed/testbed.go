// Package testbed assembles simulated clusters: machines running any of
// the four stacks (FlexTOE, Linux, TAS, Chelsio) attached to one switch,
// mirroring the paper's testbed (§5: two Xeon Gold 6138 machines with
// Agilio-CX40 / Terminator / XL710 NICs plus four client machines, all on
// a 100 Gbps switch).
package testbed

import (
	"fmt"

	"flextoe/internal/api"
	"flextoe/internal/baseline"
	"flextoe/internal/core"
	"flextoe/internal/ctrl"
	"flextoe/internal/fabric"
	"flextoe/internal/host"
	"flextoe/internal/libtoe"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// StackKind names a TCP stack implementation.
type StackKind string

// Stack kinds.
const (
	FlexTOE StackKind = "FlexTOE"
	Linux   StackKind = "Linux"
	TAS     StackKind = "TAS"
	Chelsio StackKind = "Chelsio"
)

// AllStacks lists the four stacks in the paper's presentation order.
var AllStacks = []StackKind{Linux, Chelsio, TAS, FlexTOE}

// MachineSpec describes one machine.
type MachineSpec struct {
	Name    string
	Kind    StackKind
	Cores   int   // application cores
	CoreHz  int64 // default 2 GHz (Xeon Gold 6138)
	BufSize uint32
	NICGbps float64 // default 40 (Chelsio: 100)

	// FlexTOE knobs.
	FlexCfg *core.Config // nil = AgilioCX40Config
	CC      ctrl.CCAlgo
	// SACK enables SACK negotiation on the FlexTOE data-path (and, when
	// OOOIntervals is unset, widens the reassembly interval set to the
	// maximum so the advertised blocks are useful). Ignored for the
	// baseline stacks, whose recovery is fixed by their personality.
	SACK bool
	// OOOCap, when > 0, overrides the reassembly interval budget for any
	// personality: FlexTOE's core.Config.OOOIntervals or the baseline
	// profile's OOOIntervals. 0 keeps the personality default.
	OOOCap int

	// TAS knobs.
	StackCores int // dedicated fast-path cores (default 1)

	// Rack places the machine on a leaf switch when the testbed runs on a
	// fabric (NewFabric); ignored on the single-switch testbed.
	Rack int

	// Listen-path hardening (accept-storm experiments). ListenBacklog
	// bounds half-open connections per listening port (FlexTOE default
	// 128; baseline default unbounded); AcceptRate, when > 0, limits
	// accepted SYNs/second per listener (FlexTOE control plane only).
	ListenBacklog int
	AcceptRate    float64

	Seed uint64
}

// Machine is one assembled host.
type Machine struct {
	Spec  MachineSpec
	IP    packet.IPv4Addr
	MAC   packet.EtherAddr
	Stack api.Stack
	Iface *netsim.Iface
	Eng   *sim.Engine // the testbed's engine

	// Set when Kind == FlexTOE.
	TOE  *core.TOE
	Flex *libtoe.Stack
	Ctrl *ctrl.Plane
	// Set otherwise.
	Base *baseline.Stack
}

// Testbed is the cluster. Exactly one of Net (single switch) or Fabric
// (leaf–spine) is set, per the constructor used.
//
// A testbed is one sim.Engine run by one goroutine (doc.go "One job, one
// engine"): parallelism is across testbeds, never inside one.
type Testbed struct {
	Eng *sim.Engine
	// Group wraps Eng for the frozen bench/ (Testbed.Group.Engines()); it
	// goes when sim.Group does (see there).
	Group    *sim.Group
	Net      *netsim.Network
	Fabric   *fabric.Fabric
	Machines map[string]*Machine
	macOf    map[packet.IPv4Addr]packet.EtherAddr
}

// newTestbed returns an empty cluster on a fresh engine.
func newTestbed() *Testbed {
	eng := sim.New()
	return &Testbed{
		Eng:      eng,
		Group:    &sim.Group{eng},
		Machines: make(map[string]*Machine),
		macOf:    make(map[packet.IPv4Addr]packet.EtherAddr),
	}
}

// New builds a cluster with the given switch behaviour and machines.
func New(swCfg netsim.SwitchConfig, specs ...MachineSpec) *Testbed {
	tb := newTestbed()
	tb.Net = netsim.NewNetwork(tb.Eng, swCfg)
	tb.populate(specs)
	return tb
}

// NewFabric builds a cluster on a leaf–spine fabric; each machine's Rack
// selects its leaf. The same stacks run unmodified — only the network
// between the NICs changes.
func NewFabric(fc fabric.Config, specs ...MachineSpec) *Testbed {
	tb := newTestbed()
	tb.Fabric = fabric.New(tb.Eng, fc)
	tb.populate(specs)
	return tb
}

func (tb *Testbed) populate(specs []MachineSpec) {
	for i, spec := range specs {
		tb.add(i, spec)
	}
	// Install static ARP everywhere.
	resolve := func(ip packet.IPv4Addr) packet.EtherAddr { return tb.macOf[ip] }
	for _, m := range tb.Machines {
		if m.Flex != nil {
			m.Flex.ResolveMAC = resolve
		}
		if m.Base != nil {
			m.Base.ResolveMAC = resolve
		}
	}
}

func (tb *Testbed) add(idx int, spec MachineSpec) {
	if spec.Cores <= 0 {
		spec.Cores = 1
	}
	if spec.CoreHz == 0 {
		spec.CoreHz = 2e9
	}
	if spec.BufSize == 0 {
		spec.BufSize = 65536
	}
	if spec.NICGbps == 0 {
		spec.NICGbps = 40
		if spec.Kind == Chelsio {
			spec.NICGbps = 100
		}
	}
	ip := packet.IP(10, 0, byte(idx>>8), byte(idx+1))
	mac := packet.MAC(0x02, 0, 0, 0, byte(idx>>8), byte(idx+1))
	eng := tb.Eng
	var iface *netsim.Iface
	if tb.Fabric != nil {
		iface = tb.Fabric.AttachHost(spec.Rack, spec.Name, mac, netsim.GbpsToBytesPerSec(spec.NICGbps), 0)
	} else {
		iface = tb.Net.AttachHost(spec.Name, mac, netsim.GbpsToBytesPerSec(spec.NICGbps), 150*sim.Nanosecond)
	}
	machine := host.NewMachine(eng, spec.Name, spec.Cores, spec.CoreHz)

	m := &Machine{Spec: spec, IP: ip, MAC: mac, Iface: iface, Eng: eng}
	switch spec.Kind {
	case FlexTOE:
		cfg := core.AgilioCX40Config()
		if spec.FlexCfg != nil {
			cfg = *spec.FlexCfg
		}
		if spec.SACK {
			cfg.EnableSACK = true
			if cfg.OOOIntervals == 0 {
				cfg.OOOIntervals = tcpseg.MaxOOOIntervals
			}
		}
		if spec.OOOCap > 0 {
			cfg.OOOIntervals = spec.OOOCap
		}
		m.TOE = core.New(eng, cfg, iface)
		m.Ctrl = ctrl.New(eng, m.TOE, ctrl.Config{
			LocalIP:       ip,
			LocalMAC:      mac,
			BufSize:       spec.BufSize,
			CC:            spec.CC,
			ListenBacklog: spec.ListenBacklog,
			AcceptRate:    spec.AcceptRate,
			Seed:          spec.Seed ^ uint64(idx),
		})
		m.Flex = libtoe.NewStack(eng, m.TOE, m.Ctrl, machine, ip)
		m.Stack = m.Flex
	case Linux, TAS, Chelsio:
		var prof baseline.Profile
		switch spec.Kind {
		case Linux:
			prof = baseline.LinuxProfile()
		case TAS:
			prof = baseline.TASProfile()
		default:
			prof = baseline.ChelsioProfile()
		}
		if spec.StackCores > 0 {
			prof.StackCores = spec.StackCores
		}
		if spec.OOOCap > 0 {
			prof.OOOIntervals = spec.OOOCap
		}
		prof.ListenBacklog = spec.ListenBacklog
		m.Base = baseline.NewStack(eng, prof, iface, machine, ip, spec.BufSize, spec.Seed^uint64(idx))
		m.Stack = m.Base
	default:
		panic(fmt.Sprintf("testbed: unknown stack kind %q", spec.Kind))
	}
	tb.Machines[spec.Name] = m
	tb.macOf[ip] = mac
}

// M returns a machine by name.
func (tb *Testbed) M(name string) *Machine { return tb.Machines[name] }

// Addr returns a machine's endpoint address for a port.
func (tb *Testbed) Addr(name string, port uint16) api.Addr {
	return api.Addr{IP: tb.Machines[name].IP, Port: port}
}

// Run advances the simulation to the given time.
func (tb *Testbed) Run(until sim.Time) { tb.Eng.RunUntil(until) }

// PoolStats reads the engine's packet-pool traffic counters.
func (tb *Testbed) PoolStats() (gets, releases uint64) {
	pl := packet.PoolOf(tb.Eng)
	return pl.Stats.Gets, pl.Stats.Releases
}
