// Package netsim models the network fabric of the paper's testbed: NIC
// interfaces, full-duplex links with serialization and propagation delay,
// and a store-and-forward Ethernet switch with per-port output queues.
//
// The switch implements the behaviours §5.3's robustness experiments
// depend on: uniform random loss injection (Fig. 15), ECN marking above a
// DCTCP-style threshold (Fig. 16, Table 4), WRED with tail drop, and
// per-port rate shaping to simulate incast degrees (Table 4).
//
// A forwarded frame crosses the switch's crossbar in a fixed Latency and
// then takes its egress port's serializer. Because that latency is the
// same for every frame of a switch, frames reach a port in the order they
// were forwarded, and because the switch is the only sender on its ports,
// everything booked on a port before a frame's egress instant is booked
// by then already. So the switch books the frame on the serializer at
// forward time, from its egress instant on, and schedules its delivery
// there: no event marks the crossbar crossing. What the port reports —
// queue depth, TxFrames, TxBytes — still changes at the egress instant:
// the port keeps a FIFO of (egress instant, wire bytes) that every read
// commits up to now (QueueBytes, Sync). Three cases keep the crossing as
// an event of its own, sending the frame at its egress instant as a host
// NIC does: a frame delayed by reorder injection (later frames overtake
// it), any frame forwarded to a port while such an event-path frame is
// still in that port's crossbar (it must book behind it), and every frame
// on a port with a TxTap (the tap observes at send time).
package netsim

import (
	"fmt"

	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// Frame is a packet in flight, with its wire length cached.
//
// Frames are pooled: FramePool.NewFrame draws from a freelist and the
// party that takes the frame off the wire (the receiving stack's Recv
// handler, or a drop point inside the fabric) returns it with
// ReleaseFrame. A frame has exactly one owner at a time — each fabric hop
// hands it to the next — and ReleaseFrame recycles it into the pool it was
// drawn from. Dropping a frame inside the fabric also releases its packet
// (the drop point terminates the packet's journey; see the ownership rule
// in package packet).
type Frame struct {
	Pkt     *packet.Packet
	Wire    int      // bytes on the wire (Ethernet framing included)
	Ingress sim.Time // when the frame first entered the fabric

	link   *Iface // transmitting interface while on a link
	dst    *Iface // egress port while crossing the switch on an event
	pooled bool
	pool   *FramePool // the pool the frame was drawn from
}

// FramePool is one engine's frame freelist. FramesOf is the only way to
// get one, and it registers the pool with its engine
// (sim.Engine.Unreturned). Single-threaded.
type FramePool struct {
	free shm.Freelist[Frame]
}

// framesKey keys the per-engine FramePool in Engine.Local.
type framesKey struct{}

// newFramePool builds an engine's frame pool and registers it with the
// engine (sim.Engine.Unreturned).
func newFramePool(eng *sim.Engine) any {
	fp := &FramePool{}
	eng.Lends("frames", &fp.free)
	return fp
}

// FramesOf returns eng's own frame pool, creating it on first use.
func FramesOf(eng *sim.Engine) *FramePool {
	return eng.Local(framesKey{}, newFramePool).(*FramePool)
}

// NewFrame wraps a packet, computing its wire length. The caller owns the
// frame until it transmits or releases it.
func (fp *FramePool) NewFrame(p *packet.Packet, now sim.Time) *Frame {
	f := fp.getFrame()
	f.Pkt = p
	f.Wire = p.WireLen()
	f.Ingress = now
	return f
}

func (fp *FramePool) getFrame() *Frame {
	if f := fp.free.Get(); f != nil {
		return f
	}
	return &Frame{pooled: true, pool: fp}
}

// ReleaseFrame recycles a frame into the pool it came from once its
// journey ends. The packet is NOT released: the caller either still
// owns it (a receiving stack) or must release it separately (a drop
// point). No-op for frames not obtained from a pool.
func ReleaseFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	fp := f.pool
	*f = Frame{pooled: true, pool: fp}
	poisonFrame(f)
	fp.free.Put(f)
}

// dropFrame terminates a frame and its packet inside the fabric.
func dropFrame(f *Frame) {
	packet.Release(f.Pkt)
	ReleaseFrame(f)
}

// Iface is one end of a full-duplex link: it serializes outbound frames at
// the link rate and delivers inbound frames to its receive handler. On a
// switch port, frames are booked on the serializer at forward time and
// credited to the port's counters at egress through a crossbar FIFO; a
// reorder-delayed frame, a frame behind one in the crossbar, and every
// frame on a tapped port cross on an event and are sent at egress instead
// (see the package comment).
type Iface struct {
	Name string
	MAC  packet.EtherAddr

	eng  *sim.Engine
	tx   *sim.Resource // outbound serialization
	prop sim.Time      // propagation to the peer
	peer *Iface

	// linkID and txSeq build the delivery ordering key for frames this
	// interface transmits: dkey = linkID<<32 | txSeq, so frames delivered
	// at one instant arrive in link order (see sim.Engine.AtLinkCall).
	// The id comes from the interface's engine (Engine.NewLinkID), so
	// interfaces order by construction within their simulation and
	// concurrent simulations share no counter.
	linkID uint32
	txSeq  uint32

	// Recv handles frames arriving at this interface. Nil drops them.
	Recv func(f *Frame)

	// TxTap and RxTap, when set, passively observe every packet the
	// interface transmits (at Send time) or delivers (just before Recv).
	// Taps never take ownership of the frame or packet and charge zero
	// simulated cost — unlike core.TOE.PacketTap, which models the cycles
	// of an on-NIC capture (doc.go "Passive flow analysis"). The packet
	// is valid only for the duration of the call. A switch port sends
	// every frame at egress while it has a TxTap; set one before traffic,
	// since frames already booked in the crossbar pass it by.
	TxTap func(at sim.Time, pkt *packet.Packet)
	RxTap func(at sim.Time, pkt *packet.Packet)

	// Statistics.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64

	// Per-port egress accounting, maintained by the switch that owns this
	// port (host NICs leave these zero): CE marks applied on this egress
	// queue, frames tail-dropped or WRED-dropped targeting it, and the
	// deepest occupancy ever accepted.
	ECNMarks       uint64
	TailDrops      uint64
	WREDDrops      uint64
	PeakQueueBytes int

	// QueueHist, when enabled, samples the egress queue depth (in units
	// of QueueHistUnit bytes) at every accepted enqueue.
	QueueHist     *stats.LinearHist
	QueueHistUnit int

	// queueBytes tracks bytes accepted for transmission but not yet on
	// the wire — the output queue depth used for ECN marking and WRED.
	queueBytes int

	// Crossbar state of a switch port (see the package comment). xbar,
	// from xbarHead, holds the frames the switch booked on this port whose
	// egress is not yet credited to TxFrames, TxBytes and queueBytes;
	// Sync credits those due. xbarEvents counts frames crossing to this
	// port on a switchDeliver event: while one is, later frames do too.
	xbar       []xbarFrame
	xbarHead   int
	xbarEvents int
}

// xbarFrame is a booked frame's egress instant and wire length.
type xbarFrame struct {
	at   sim.Time
	wire int
}

// EnableQueueHist attaches an egress occupancy histogram to the port:
// every accepted enqueue records the queue depth in buckets of unitBytes,
// clamped at maxBytes. unitBytes defaults to 1448, maxBytes to 1 MiB.
func (i *Iface) EnableQueueHist(unitBytes, maxBytes int) {
	if unitBytes <= 0 {
		unitBytes = 1448
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	i.QueueHistUnit = unitBytes
	i.QueueHist = stats.NewLinearHist(maxBytes / unitBytes)
}

// ResetQueueStats clears the peak-depth marker and occupancy histogram
// (end of a warmup phase); cumulative drop/mark counters are untouched.
func (i *Iface) ResetQueueStats() {
	i.PeakQueueBytes = 0
	if i.QueueHist != nil {
		i.QueueHist.Reset()
	}
}

// noteQueueDepth records an accepted enqueue that brought the egress
// queue to q bytes.
func (i *Iface) noteQueueDepth(q int) {
	if q > i.PeakQueueBytes {
		i.PeakQueueBytes = q
	}
	if i.QueueHist != nil {
		i.QueueHist.Record(q / i.QueueHistUnit)
	}
}

// GbpsToBytesPerSec converts a Gbit/s line rate.
func GbpsToBytesPerSec(gbps float64) float64 { return gbps * 1e9 / 8 }

// NewIface creates an unconnected interface with the given line rate in
// bytes/second.
func NewIface(eng *sim.Engine, name string, mac packet.EtherAddr, bytesPerSec float64) *Iface {
	return &Iface{
		Name:   name,
		MAC:    mac,
		eng:    eng,
		tx:     sim.NewResource(eng, name+"/tx", bytesPerSec),
		linkID: eng.NewLinkID(),
	}
}

// SetRate changes the interface's transmit rate (port shaping). Frames
// already on the wire keep their delivery instants and later frames queue
// behind them. Shaping a switch port whose crossbar still holds a booked
// frame short of egress panics: that frame was booked at the old rate,
// and it would have been sent at the new one.
func (i *Iface) SetRate(bytesPerSec float64) {
	if i.Sync(); i.xbarHead < len(i.xbar) {
		panic(fmt.Sprintf("netsim: shaping %s with %d frames in its crossbar (shape ports before traffic)", i.Name, len(i.xbar)-i.xbarHead))
	}
	i.tx.SetRate(bytesPerSec)
}

// Connect joins two interfaces with the given propagation delay. Both must
// live on one engine: a delivery is scheduled on the sender's engine, so a
// link between two engines would run the receiver on the wrong clock.
func Connect(a, b *Iface, prop sim.Time) {
	if a.eng != b.eng {
		panic(fmt.Sprintf("netsim: connecting %s and %s across two engines (one job, one engine)", a.Name, b.Name))
	}
	a.peer, b.peer = b, a
	a.prop, b.prop = prop, prop
}

// QueueBytes returns the current output queue depth in bytes.
func (i *Iface) QueueBytes() int {
	i.Sync()
	return i.queueBytes
}

// Sync commits the crossbar FIFO: it credits TxFrames, TxBytes and the
// queue depth with the frames the switch booked on this port whose egress
// instant is at or before now. Read a switch port's TxFrames or TxBytes
// after it (QueueBytes syncs by itself); a host NIC's are always current.
// At an instant, a frame's egress counts as done for every reader that
// runs after the switch's own events: its forwarding (a delivery event),
// readers ranked behind it, and code outside the run.
func (i *Iface) Sync() {
	now := i.eng.Now()
	for i.xbarHead < len(i.xbar) && i.xbar[i.xbarHead].at <= now {
		wire := i.xbar[i.xbarHead].wire
		i.xbar, i.xbarHead = shm.PopRing(i.xbar, i.xbarHead)
		i.TxFrames++
		i.TxBytes += uint64(wire)
		i.queueBytes += wire
	}
}

// Send serializes the frame onto the wire and delivers it to the peer
// after the propagation delay. Ownership of the frame (and its packet)
// transfers to the link; an unconnected interface is a drop point.
func (i *Iface) Send(f *Frame) {
	checkFrame(f)
	if i.peer == nil {
		dropFrame(f)
		return
	}
	if i.TxTap != nil {
		i.TxTap(i.eng.Now(), f.Pkt)
	}
	i.TxFrames++
	i.TxBytes += uint64(f.Wire)
	i.queueBytes += f.Wire
	i.transmit(i.eng.Now(), f)
}

// book is Send for a switch port's frame at forward time: the frame will
// leave the crossbar at egress, and its serialization and delivery are
// booked now from that instant on (see the package comment). The port's
// counters are credited at egress, by Sync.
func (i *Iface) book(egress sim.Time, f *Frame) {
	checkFrame(f)
	i.xbar = append(i.xbar, xbarFrame{egress, f.Wire})
	i.transmit(egress, f)
}

// transmit serializes f from instant at behind the frames already booked
// and schedules its delivery under the link's next ordering key.
func (i *Iface) transmit(at sim.Time, f *Frame) {
	i.txSeq++
	dkey := uint64(i.linkID)<<32 | uint64(i.txSeq)
	end := i.tx.ReserveFrom(at, int64(f.Wire), i.prop)
	f.link = i
	i.eng.AtLinkCall(end, dkey, frameDelivered, f)
}

// frameDelivered runs when a frame's serialization + propagation ends: it
// debits the transmit queue and hands the frame to the receiving interface
// (see Engine.AtLinkCall). A booked frame's credit may still wait in the
// crossbar FIFO; Sync adds it before any read, so the debit can go first.
func frameDelivered(a any) {
	f := a.(*Frame)
	i := f.link
	f.link = nil
	i.queueBytes -= f.Wire
	peer := i.peer
	peer.RxFrames++
	peer.RxBytes += uint64(f.Wire)
	if peer.RxTap != nil {
		peer.RxTap(peer.eng.Now(), f.Pkt)
	}
	if peer.Recv != nil {
		peer.Recv(f)
		return
	}
	dropFrame(f)
}

// SwitchConfig controls the switch's queueing behaviours.
type SwitchConfig struct {
	// LossProb drops forwarded frames uniformly at random (Fig. 15's
	// loss injection). 0 disables.
	LossProb float64
	// ECNThresholdBytes marks CE on ECT frames when the egress queue
	// exceeds this depth (DCTCP's K). 0 disables marking.
	ECNThresholdBytes int
	// QueueCapBytes tail-drops frames when the egress queue would exceed
	// this depth. 0 means unbounded.
	QueueCapBytes int
	// WREDMinBytes/WREDMaxBytes enable WRED early drop: drop probability
	// rises linearly from 0 at min to WREDMaxProb at max; beyond max the
	// frame is tail-dropped. Zero values disable WRED.
	WREDMinBytes int
	WREDMaxBytes int
	WREDMaxProb  float64
	// DupProb duplicates forwarded frames uniformly at random: the
	// original and a deep copy both continue through the egress pipeline
	// (queue cap, WRED, ECN), modelling a duplicating fabric hop. 0
	// disables.
	DupProb float64
	// ReorderProb delays forwarded frames uniformly at random by
	// ReorderDelay on top of the crossbar latency, so later same-flow
	// frames overtake them (Fig. 15-style reordering without loss).
	// 0 disables; ReorderDelay must be > 0 when ReorderProb is.
	ReorderProb  float64
	ReorderDelay sim.Time
	// Latency is the fixed forwarding latency (lookup + crossbar).
	Latency sim.Time
	// Seed for the drop/mark RNG.
	Seed uint64
}

// Switch is a store-and-forward Ethernet switch with static MAC learning
// (macTable, one probe per frame) and an optional ECMP uplink group: frames
// whose destination MAC misses the table are spread across the uplinks by
// the flow 4-tuple's CRC-32 hash (packet.Flow.Hash — the same hash the
// FlexTOE pre-processor's lookup engine computes), so every segment of a
// flow takes one path and per-flow ordering survives the fan-out. A
// forwarded frame is booked on its egress port at once, or crosses on an
// event in the three cases the package comment lists.
type Switch struct {
	Name string
	// Cfg is the live configuration: a test may change loss or marking
	// mid-run.
	Cfg SwitchConfig

	eng     *sim.Engine
	own     sim.Owner
	rng     *stats.RNG
	ports   []*Iface
	uplinks []*Iface
	table   macTable

	// Statistics.
	Forwarded   uint64
	LossDrops   uint64
	QueueDrops  uint64
	WREDDrops   uint64
	ECNMarks    uint64
	Flooded     uint64
	DupInjected uint64 // duplicate frames created by DupProb
	Reordered   uint64 // frames delayed by ReorderProb
	ECMPPicks   uint64 // forwards resolved by uplink hashing
	// ECMPLoopDrops counts frames whose hashed uplink was their ingress
	// port — a fabric routing error (the MAC should have been learned
	// below this switch), kept separate from benign unknown-MAC floods.
	ECMPLoopDrops uint64
}

// NewSwitch creates a switch. Default forwarding latency is 600 ns if the
// config leaves it zero.
func NewSwitch(eng *sim.Engine, cfg SwitchConfig) *Switch {
	if cfg.Latency == 0 {
		cfg.Latency = 600 * sim.Nanosecond
	}
	return &Switch{
		eng: eng,
		own: eng.NewOwner(),
		Cfg: cfg,
		rng: stats.NewRNG(cfg.Seed ^ 0x5317c4),
	}
}

// AddPort creates a switch port with the given line rate and returns the
// interface to connect a host NIC to.
func (s *Switch) AddPort(name string, bytesPerSec float64) *Iface {
	port := NewIface(s.eng, fmt.Sprintf("sw/%s", name), packet.MAC(0x02, 0xff, 0, 0, 0, byte(len(s.ports))), bytesPerSec)
	port.Recv = func(f *Frame) { s.forwardFrom(port, f) }
	s.ports = append(s.ports, port)
	return port
}

// AddUplink creates a switch port that is also a member of the ECMP
// uplink group. Uplink order is the ECMP index order: every switch built
// with the same ordered uplink set maps a given flow to the same index.
func (s *Switch) AddUplink(name string, bytesPerSec float64) *Iface {
	port := s.AddPort(name, bytesPerSec)
	s.uplinks = append(s.uplinks, port)
	return port
}

// Ports returns every switch port in creation order.
func (s *Switch) Ports() []*Iface { return s.ports }

// Learn installs a static MAC table entry toward the given port.
func (s *Switch) Learn(mac packet.EtherAddr, port *Iface) { s.table.learn(mac, port) }

// macTable is the switch's forwarding table: open addressing with linear
// probing over the address packed into one word, so the per-frame lookup
// is a multiply and, at a load of at most one half, about one probe.
// Entries are installed at set-up and never removed.
type macTable struct {
	slots []macSlot // power-of-two length; key 0 marks a free slot
	n     int
}

type macSlot struct {
	key  uint64 // the 48-bit address under macUsed
	port *Iface
}

// macUsed tells an installed all-zero address from a free slot.
const macUsed = 1 << 48

// find returns the slot holding key k, or the free slot where k belongs.
// The table must have a free slot.
func (t *macTable) find(k uint64) *macSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> 40 & mask; ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.key == k || sl.key == 0 {
			return sl
		}
	}
}

func macKey(a packet.EtherAddr) uint64 {
	return macUsed | uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 |
		uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// lookup returns the port learned for a, nil if there is none.
func (t *macTable) lookup(a packet.EtherAddr) *Iface {
	if t.n == 0 {
		return nil
	}
	return t.find(macKey(a)).port
}

func (t *macTable) learn(a packet.EtherAddr, port *Iface) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]macSlot, max(16, 2*len(old)))
		for _, sl := range old {
			if sl.key != 0 {
				*t.find(sl.key) = sl
			}
		}
	}
	k := macKey(a)
	sl := t.find(k)
	if sl.key == 0 {
		sl.key = k
		t.n++
	}
	sl.port = port
}

func (s *Switch) forwardFrom(in *Iface, f *Frame) {
	// Uniform loss injection applies to every forwarded frame. Every drop
	// terminates the frame's (and packet's) journey: the switch is the
	// owner at that point, so it releases both.
	if s.Cfg.LossProb > 0 && s.rng.Bool(s.Cfg.LossProb) {
		s.LossDrops++
		dropFrame(f)
		return
	}
	// Duplication injection deep-copies the surviving frame and sends the
	// copy through the same egress pipeline right behind the original.
	// Every injection draw is guarded by its probability, so a config that
	// leaves DupProb/ReorderProb zero consumes exactly the RNG stream it
	// did before these knobs existed.
	if s.Cfg.DupProb > 0 && s.rng.Bool(s.Cfg.DupProb) {
		s.DupInjected++
		dup := s.cloneFrame(f)
		s.forwardOne(in, f)
		s.forwardOne(in, dup)
		return
	}
	s.forwardOne(in, f)
}

// cloneFrame copies a frame for duplication injection: a fresh pooled
// packet takes struct copies of the headers, so the duplicate's journey is
// owned independently of the original's. A payload view of the sender's
// transmit bytes is shared — the duplicate is one more reader of them —
// and only a payload the packet owns is copied.
func (s *Switch) cloneFrame(f *Frame) *Frame {
	p := packet.PoolOf(s.eng).Get()
	p.Eth = f.Pkt.Eth
	p.IP = f.Pkt.IP
	p.TCP = f.Pkt.TCP
	p.SeedFlowHashes(f.Pkt.FlowHash(), f.Pkt.RevFlowHash())
	if f.Pkt.PayloadIsView() {
		p.SetPayloadView(f.Pkt.Payload)
	} else if n := len(f.Pkt.Payload); n > 0 {
		copy(p.GrowPayload(n), f.Pkt.Payload)
	}
	return FramesOf(s.eng).NewFrame(p, f.Ingress)
}

// forwardOne runs one frame through lookup and the egress pipeline.
func (s *Switch) forwardOne(in *Iface, f *Frame) {
	out := s.table.lookup(f.Pkt.Eth.Dst)
	if out == nil {
		if len(s.uplinks) > 0 {
			// ECMP: hash the flow 4-tuple onto an uplink. A frame that
			// arrived on the chosen uplink would loop back up the fabric
			// (the MAC should have been learned below us) — drop it
			// instead of forwarding a routing error forever.
			out = s.uplinks[int(f.Pkt.FlowHash()%uint32(len(s.uplinks)))]
			if out == in {
				s.ECMPLoopDrops++
				dropFrame(f)
				return
			}
			s.ECMPPicks++
		} else {
			s.Flooded++
			dropFrame(f)
			return
		}
	}
	q := out.QueueBytes() + f.Wire
	if s.Cfg.QueueCapBytes > 0 && q > s.Cfg.QueueCapBytes {
		s.QueueDrops++
		out.TailDrops++
		dropFrame(f)
		return
	}
	if s.Cfg.WREDMaxBytes > 0 {
		switch {
		case q > s.Cfg.WREDMaxBytes:
			s.WREDDrops++
			out.WREDDrops++
			dropFrame(f)
			return
		case q > s.Cfg.WREDMinBytes:
			frac := float64(q-s.Cfg.WREDMinBytes) / float64(s.Cfg.WREDMaxBytes-s.Cfg.WREDMinBytes)
			if s.rng.Bool(frac * s.Cfg.WREDMaxProb) {
				s.WREDDrops++
				out.WREDDrops++
				dropFrame(f)
				return
			}
		}
	}
	if s.Cfg.ECNThresholdBytes > 0 && q > s.Cfg.ECNThresholdBytes &&
		f.Pkt.IP.ECN() != packet.ECNNotECT {
		f.Pkt.IP.SetECN(packet.ECNCE)
		s.ECNMarks++
		out.ECNMarks++
	}
	s.Forwarded++
	out.noteQueueDepth(q)
	delay := s.Cfg.Latency
	// Reorder injection holds the frame in the crossbar for ReorderDelay
	// extra, letting later same-flow frames overtake it.
	if s.Cfg.ReorderProb > 0 && s.rng.Bool(s.Cfg.ReorderProb) {
		s.Reordered++
		delay += s.Cfg.ReorderDelay
	} else if out.xbarEvents == 0 && out.TxTap == nil && out.peer != nil {
		out.book(s.eng.Now()+delay, f)
		return
	}
	out.xbarEvents++
	f.dst = out
	s.own.AfterCall(delay, switchDeliver, f)
}

// switchDeliver moves a frame that crossed the crossbar on an event of its
// own onto its egress port (see Engine.AfterCall).
func switchDeliver(a any) {
	f := a.(*Frame)
	out := f.dst
	f.dst = nil
	out.xbarEvents--
	out.Send(f)
}

// Network bundles a switch and the host-side interfaces for convenience.
type Network struct {
	Eng    *sim.Engine
	Switch *Switch
	hosts  map[string]*Iface
}

// NewNetwork creates a network around one switch.
func NewNetwork(eng *sim.Engine, cfg SwitchConfig) *Network {
	return &Network{Eng: eng, Switch: NewSwitch(eng, cfg), hosts: make(map[string]*Iface)}
}

// AttachHost creates a host NIC interface connected to a new switch port
// at the given rate, registers its MAC, and returns it.
func (n *Network) AttachHost(name string, mac packet.EtherAddr, bytesPerSec float64, prop sim.Time) *Iface {
	host := NewIface(n.Eng, name, mac, bytesPerSec)
	port := n.Switch.AddPort(name, bytesPerSec)
	Connect(host, port, prop)
	n.Switch.Learn(mac, port)
	n.hosts[name] = host
	return host
}

// ShapePort restricts the switch-side egress rate toward the named host
// (used by the incast experiment to emulate a shaped port). Shaping is a
// set-up action: a port with frames in its crossbar refuses it (see
// Iface.SetRate).
func (n *Network) ShapePort(name string, bytesPerSec float64) {
	host := n.hosts[name]
	if host == nil || host.peer == nil {
		return
	}
	host.peer.SetRate(bytesPerSec)
}
