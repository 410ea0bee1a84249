// Package fabric composes netsim switches into a two-tier leaf–spine
// (Clos) datacenter fabric: every leaf (top-of-rack) switch connects to
// every spine, hosts attach to exactly one rack, and cross-rack traffic
// is spread over the spines by per-flow ECMP.
//
// Topology model. The fabric is non-blocking between tiers by
// configuration choice, not by construction: leaf↔spine trunks default to
// a higher rate than host links, so the interesting congestion points are
// the leaf egress queues toward hosts (incast) and, when oversubscribed,
// the uplink trunks. Each tier carries its own netsim.SwitchConfig, so
// ECN thresholds, WRED and queue caps can differ between leaves and
// spines (in real deployments they do).
//
// ECMP hashing contract. Path selection reuses packet.Flow.Hash — the
// CRC-32 of the 4-tuple that the FlexTOE pre-processor computes on the
// NFP lookup engine. A leaf forwards a frame whose destination MAC it has
// not learned onto uplink index hash(flow) mod spines. The contract:
// every segment of one flow direction takes the same spine (ordering is
// preserved per direction), the two directions of a connection hash
// independently (the reverse 4-tuple is a different flow), and the map
// from flows to spines is a pure function of the tuple — re-running a
// seeded experiment replays identical paths.
//
// Frame ownership across hops. Pooled Frames keep the single-owner rule
// of package netsim across any number of fabric hops: host NIC → leaf →
// spine → leaf → host NIC hands the same *Frame (and packet) from
// interface to switch to interface; whichever point terminates the
// journey — a receiving stack, or any drop point in any switch — releases
// frame and packet exactly once. The fabric adds no copies and no new
// ownership states, only more hops between the endpoints.
package fabric

import (
	"fmt"

	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// Config parameterizes a leaf–spine fabric.
type Config struct {
	Leaves int // top-of-rack switches (= racks); default 2
	Spines int // spine switches; default 2

	LeafHostGbps  float64 // host-facing port rate; default 40
	LeafSpineGbps float64 // leaf↔spine trunk rate; default 100

	HostProp  sim.Time // host↔leaf propagation; default 150 ns
	TrunkProp sim.Time // leaf↔spine propagation; default 500 ns

	// Per-tier queue policy (loss injection, ECN threshold, WRED, queue
	// cap, forwarding latency). Seeds are derived per switch from Seed so
	// the tiers share one experiment seed but no RNG stream.
	Leaf  netsim.SwitchConfig
	Spine netsim.SwitchConfig

	// QueueHistUnit enables per-port egress occupancy histograms on every
	// leaf port, in buckets of this many bytes (0 disables).
	QueueHistUnit int

	Seed uint64
}

func (c *Config) defaults() {
	if c.Leaves <= 0 {
		c.Leaves = 2
	}
	if c.Spines <= 0 {
		c.Spines = 2
	}
	if c.LeafHostGbps == 0 {
		c.LeafHostGbps = 40
	}
	if c.LeafSpineGbps == 0 {
		c.LeafSpineGbps = 100
	}
	if c.HostProp == 0 {
		c.HostProp = 150 * sim.Nanosecond
	}
	if c.TrunkProp == 0 {
		c.TrunkProp = 500 * sim.Nanosecond
	}
}

// Host is one attached machine's connection point.
type Host struct {
	Name     string
	Rack     int
	Iface    *netsim.Iface // host-side NIC interface
	LeafPort *netsim.Iface // leaf-side port facing the host (egress queue)
}

// Fabric is an assembled leaf–spine network.
type Fabric struct {
	Eng    *sim.Engine
	Cfg    Config
	Leaves []*netsim.Switch
	Spines []*netsim.Switch

	// leafUplinks[l][s] is leaf l's port toward spine s (ECMP index s);
	// spineDown[s][l] is spine s's port toward leaf l.
	leafUplinks [][]*netsim.Iface
	spineDown   [][]*netsim.Iface

	hosts    map[string]*Host
	hostList []*Host
}

// New wires up the fabric: Leaves × Spines trunks, no hosts yet.
func New(eng *sim.Engine, cfg Config) *Fabric {
	cfg.defaults()
	f := &Fabric{Eng: eng, Cfg: cfg, hosts: make(map[string]*Host)}

	for l := 0; l < cfg.Leaves; l++ {
		lc := cfg.Leaf
		lc.Seed = cfg.Seed ^ (uint64(l+1) * 0x9e3779b9)
		sw := netsim.NewSwitch(eng, lc)
		sw.Name = fmt.Sprintf("leaf%d", l)
		f.Leaves = append(f.Leaves, sw)
	}
	for s := 0; s < cfg.Spines; s++ {
		sc := cfg.Spine
		sc.Seed = cfg.Seed ^ (uint64(s+1) * 0xc2b2ae35) ^ 0xffff
		sw := netsim.NewSwitch(eng, sc)
		sw.Name = fmt.Sprintf("spine%d", s)
		f.Spines = append(f.Spines, sw)
	}

	trunkRate := netsim.GbpsToBytesPerSec(cfg.LeafSpineGbps)
	f.leafUplinks = make([][]*netsim.Iface, cfg.Leaves)
	f.spineDown = make([][]*netsim.Iface, cfg.Spines)
	for s := range f.Spines {
		f.spineDown[s] = make([]*netsim.Iface, cfg.Leaves)
	}
	for l, leaf := range f.Leaves {
		f.leafUplinks[l] = make([]*netsim.Iface, cfg.Spines)
		for s, spine := range f.Spines {
			up := leaf.AddUplink(fmt.Sprintf("leaf%d-spine%d", l, s), trunkRate)
			down := spine.AddPort(fmt.Sprintf("spine%d-leaf%d", s, l), trunkRate)
			netsim.Connect(up, down, cfg.TrunkProp)
			if cfg.QueueHistUnit > 0 {
				up.EnableQueueHist(cfg.QueueHistUnit, cfg.Leaf.QueueCapBytes)
			}
			f.leafUplinks[l][s] = up
			f.spineDown[s][l] = down
		}
	}
	return f
}

// AttachHost creates a host NIC in the given rack, connects it to that
// rack's leaf, and installs its MAC: locally at the leaf, and at every
// spine toward the leaf (leaves deliberately never learn remote MACs, so
// cross-rack frames take the ECMP uplink path).
func (f *Fabric) AttachHost(rack int, name string, mac packet.EtherAddr, bytesPerSec float64, prop sim.Time) *netsim.Iface {
	if rack < 0 || rack >= len(f.Leaves) {
		panic(fmt.Sprintf("fabric: rack %d out of range (leaves=%d)", rack, len(f.Leaves)))
	}
	if _, dup := f.hosts[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate host %q", name))
	}
	if bytesPerSec == 0 {
		bytesPerSec = netsim.GbpsToBytesPerSec(f.Cfg.LeafHostGbps)
	}
	if prop == 0 {
		prop = f.Cfg.HostProp
	}
	leaf := f.Leaves[rack]
	nic := netsim.NewIface(f.Eng, name, mac, bytesPerSec)
	port := leaf.AddPort(name, bytesPerSec)
	if f.Cfg.QueueHistUnit > 0 {
		port.EnableQueueHist(f.Cfg.QueueHistUnit, f.Cfg.Leaf.QueueCapBytes)
	}
	netsim.Connect(nic, port, prop)
	leaf.Learn(mac, port)
	for s, spine := range f.Spines {
		spine.Learn(mac, f.spineDown[s][rack])
	}
	h := &Host{Name: name, Rack: rack, Iface: nic, LeafPort: port}
	f.hosts[name] = h
	f.hostList = append(f.hostList, h)
	return nic
}

// Hosts returns every attached host in attachment order.
func (f *Fabric) Hosts() []*Host { return f.hostList }

// LeafPort returns the leaf-side egress port toward the named host: the
// queue where incast fan-in converges.
func (f *Fabric) LeafPort(name string) *netsim.Iface {
	if h := f.hosts[name]; h != nil {
		return h.LeafPort
	}
	return nil
}

// SpineTxBytes returns, per spine, the bytes all leaves transmitted up
// that spine — the ECMP load-balance measurement.
func (f *Fabric) SpineTxBytes() []uint64 {
	out := make([]uint64, len(f.Spines))
	for _, ups := range f.leafUplinks {
		for s, up := range ups {
			out[s] += up.TxBytes
		}
	}
	return out
}

// ECNMarks sums CE marks applied across both tiers.
func (f *Fabric) ECNMarks() (leaf, spine uint64) {
	for _, sw := range f.Leaves {
		leaf += sw.ECNMarks
	}
	for _, sw := range f.Spines {
		spine += sw.ECNMarks
	}
	return leaf, spine
}

// Drops sums frames dropped across both tiers (tail + WRED + injected
// loss + unknown-MAC floods + ECMP loop-guard routing errors).
func (f *Fabric) Drops() uint64 {
	var n uint64
	for _, sw := range append(append([]*netsim.Switch{}, f.Leaves...), f.Spines...) {
		n += sw.QueueDrops + sw.WREDDrops + sw.LossDrops + sw.Flooded + sw.ECMPLoopDrops
	}
	return n
}

// PeakLeafQueueBytes returns the deepest egress queue any leaf port
// reached since the last ResetQueueStats.
func (f *Fabric) PeakLeafQueueBytes() int {
	peak := 0
	for _, sw := range f.Leaves {
		for _, p := range sw.Ports() {
			if p.PeakQueueBytes > peak {
				peak = p.PeakQueueBytes
			}
		}
	}
	return peak
}

// PeakUplinkQueueBytes returns the deepest egress queue any leaf→spine
// trunk port reached since the last ResetQueueStats: the congestion
// point an oversubscribed fabric moves to.
func (f *Fabric) PeakUplinkQueueBytes() int {
	peak := 0
	for _, ups := range f.leafUplinks {
		for _, up := range ups {
			if up.PeakQueueBytes > peak {
				peak = up.PeakQueueBytes
			}
		}
	}
	return peak
}

// PeakHostQueueBytes returns the deepest egress queue any host-facing
// leaf port reached since the last ResetQueueStats: the incast
// congestion point of a non-blocking fabric.
func (f *Fabric) PeakHostQueueBytes() int {
	peak := 0
	for _, h := range f.hostList {
		if h.LeafPort.PeakQueueBytes > peak {
			peak = h.LeafPort.PeakQueueBytes
		}
	}
	return peak
}

// UplinkECNMarks sums CE marks applied at leaf→spine trunk ports;
// HostPortECNMarks sums marks at host-facing leaf ports. Together they
// locate which queue the congestion-control loop is reacting to.
func (f *Fabric) UplinkECNMarks() uint64 {
	var n uint64
	for _, ups := range f.leafUplinks {
		for _, up := range ups {
			n += up.ECNMarks
		}
	}
	return n
}

// HostPortECNMarks sums CE marks applied at host-facing leaf ports.
func (f *Fabric) HostPortECNMarks() uint64 {
	var n uint64
	for _, h := range f.hostList {
		n += h.LeafPort.ECNMarks
	}
	return n
}

// ResetQueueStats clears peak-depth markers and occupancy histograms on
// every leaf port (end of warmup).
func (f *Fabric) ResetQueueStats() {
	for _, sw := range f.Leaves {
		for _, p := range sw.Ports() {
			p.ResetQueueStats()
		}
	}
}
