package baseline

import (
	"math/bits"

	"flextoe/internal/api"
	"flextoe/internal/conntab"
	"flextoe/internal/host"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// Stack is one machine's baseline TCP stack instance: the carrier that
// runs its connections' steps (step.go) on the cost model.
type Stack struct {
	stackEnv
	eng        *sim.Engine
	own        sim.Owner // the stack's timers and connect notifications
	iface      *netsim.Iface
	machine    *host.Machine
	stackCores []*host.Core
	lock       *sim.Resource // global kernel lock (Linux/Chelsio)
	asic       *sim.Resource // Chelsio's on-NIC TCP engine
	rng        *stats.RNG

	localIP  packet.IPv4Addr
	localMAC packet.EtherAddr
	bufSize  uint32

	// Connection table: an open-addressed flow-hash index into a dense
	// slot array (doc.go "Connection state budget"). Slot ids of removed
	// connections recycle FIFO so in-flight segment work sees a nil slot,
	// not a stranger (a straggling timer holds its bconn and sees !live).
	flowIdx   *conntab.Index
	slots     []*bconn
	free      []uint32
	freeHead  int
	nLive     int
	listeners map[uint16]*blistener
	nextPort  uint16

	// ResolveMAC maps destination IPs to MACs (static ARP, installed by
	// the testbed).
	ResolveMAC func(ip packet.IPv4Addr) packet.EtherAddr

	// Per-engine pools (packet.PoolOf/netsim.FramesOf) and this stack's
	// segment work carriers.
	pkts    *packet.Pool
	frames  *netsim.FramePool
	segFree shm.Freelist[segWork]
}

// stackEnv is what a stack's connections share with it: the personality
// their steps follow and the statistics they count into.
type stackEnv struct {
	prof Profile

	RxSegs, TxSegs   uint64
	Retransmits      uint64
	SYNDrops         uint64 // SYNs silently dropped (no RST), all causes
	BacklogOverflows uint64 // SYN drops due to a full listen backlog
	PortSkips        uint64 // dial source ports passed over: their 4-tuple was live
	// Wire-level ground truth for flowmon's passive cross-validation,
	// mirroring the core.Counters fields of the same names. RetxSegs /
	// RetxBytes count at tcb.send against the sent high-water mark, so
	// every re-sent byte is accounted no matter which recovery path
	// (fast retransmit, SACK repair, RTO) emitted it.
	RetxSegs    uint64 // transmitted segments carrying previously sent bytes
	RetxBytes   uint64 // previously transmitted payload bytes re-sent
	OOOAccepted uint64 // out-of-order segments buffered for reassembly
	OOODropped  uint64 // out-of-order segments dropped (capacity or policy)
	DupAcks     uint64 // pure duplicate acknowledgments received
}

// blistener is one listening port: the accept callback plus the count of
// half-open (SYN-received, first-ACK pending) connections charged against
// Profile.ListenBacklog.
type blistener struct {
	accept   func(api.Socket)
	pendingN int
}

// NewStack builds a baseline stack on a NIC interface.
func NewStack(eng *sim.Engine, prof Profile, iface *netsim.Iface,
	machine *host.Machine, localIP packet.IPv4Addr, bufSize uint32, seed uint64) *Stack {

	s := &Stack{
		stackEnv:  stackEnv{prof: prof},
		eng:       eng,
		iface:     iface,
		machine:   machine,
		rng:       stats.NewRNG(seed ^ uint64(localIP)),
		localIP:   localIP,
		localMAC:  iface.MAC,
		bufSize:   bufSize,
		pkts:      packet.PoolOf(eng),
		frames:    netsim.FramesOf(eng),
		listeners: make(map[uint16]*blistener),
		nextPort:  30000,
	}
	eng.Lends(iface.Name+" segment work", &s.segFree)
	s.flowIdx = conntab.New(func(slot uint32) packet.Flow { return s.slots[slot].flow })
	hz := machine.Cores[0].Hz()
	s.lock = sim.NewResource(eng, prof.Name+"/lock", float64(hz))
	if prof.ASIC {
		s.asic = sim.NewResource(eng, prof.Name+"/asic", 1e9/prof.ASICSegNs)
	}
	for i := 0; i < prof.StackCores; i++ {
		s.stackCores = append(s.stackCores, host.NewCore(eng, prof.Name+"/fastpath", hz))
	}
	// Timers and connect notifications rank behind the stack's lock, ASIC
	// and fast-path cores.
	s.own = eng.NewOwner()
	iface.Recv = s.rx
	return s
}

// Name returns the stack personality name.
func (s *Stack) Name() string { return s.prof.Name }

// Machine returns the application CPU model.
func (s *Stack) Machine() *host.Machine { return s.machine }

// Engine returns the engine this stack runs on.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// LocalIP returns the machine address.
func (s *Stack) LocalIP() packet.IPv4Addr { return s.localIP }

// Profile returns the personality (mutable for experiments).
func (s *Stack) Profile() *Profile { return &s.prof }

// FastPathInstructions sums the work done on dedicated stack cores.
func (s *Stack) FastPathInstructions() uint64 {
	var n uint64
	for _, c := range s.stackCores {
		n += c.Instructions
	}
	return n
}

// bconn is one baseline connection: its protocol state (the embedded tcb)
// and its carrier, which does what the state's step asks (effects) on
// this stack's engine, cores and pools.
type bconn struct {
	tcb
	stack    *Stack
	flow     packet.Flow
	flowHash uint32 // flow.Hash(), fixed at creation: picks the two cores
	revHash  uint32 // flow.Reverse().Hash(); mkPacket stamps both on every segment
	peerMAC  packet.EtherAddr

	// appCore runs the connection's socket calls and application
	// callbacks, stackCore its segment processing (see setCores).
	appCore, stackCore *host.Core

	// Table bookkeeping (doc.go "Connection state budget"): id is the
	// dense slot. live gates straggling timer fires and deferred segment
	// work after removal.
	id       uint32
	live     bool
	halfOpen bool // passive open awaiting its first post-handshake segment

	sock    *bsocket
	pumping bool
	txN     uint64 // segment size staged by txStep for bconnEmit

	connected func(api.Socket)
}

// setCores resolves, once at creation, the core a connection's
// application callbacks run on (RSS-style connection-to-core affinity by
// its flow hash) and the core its segment processing runs on: a dedicated
// stack core picked the same way, or the application core for an inline
// stack. Both sets are fixed when the stack is built.
func (c *bconn) setCores() {
	s := c.stack
	c.appCore = s.machine.Cores[int(c.flowHash)%len(s.machine.Cores)]
	c.stackCore = c.appCore
	if len(s.stackCores) > 0 {
		c.stackCore = s.stackCores[int(c.flowHash)%len(s.stackCores)]
	}
}

// segCost is a host-TCP segment's processing charge, including
// connection-count penalties and scheduler spikes.
func (s *Stack) segCost(conns int) sim.Step {
	p := &s.prof
	cycles := p.segCycles()
	if p.ConnPenalty > 0 && conns > 1 {
		cycles += int64(p.ConnPenalty * float64(bits.Len(uint(conns))-1))
	}
	var stall sim.Time
	if p.SpikeProb > 0 && s.rng.Bool(p.SpikeProb) {
		stall = sim.Time(s.rng.Exp(p.SpikeMeanUs) * float64(sim.Microsecond))
	}
	return sim.Step{Compute: cycles, Stall: stall}
}

// segWork carries one received segment through the cost model's deferred
// stages (lock, stack-core task) without a closure per segment. Pooled:
// segWorkHandle consumes and recycles the carrier before running the
// step.
type segWork struct {
	c    *bconn
	pkt  *packet.Packet
	core *host.Core
	step sim.Step
}

// segWorkSubmit runs when the kernel lock is acquired: queue the segment
// task on its stack core.
func segWorkSubmit(a any) {
	w := a.(*segWork)
	w.core.SubmitStepCall(w.step, segWorkHandle, w)
}

// segWorkHandle runs when the segment's processing cost has been paid:
// the step runs unless the connection was reclaimed while the cost was
// still queued behind the lock or a busy core, and the segment ends here.
func segWorkHandle(a any) {
	w := a.(*segWork)
	c, pkt := w.c, w.pkt
	*w = segWork{}
	c.stack.segFree.Put(w)
	if c.live {
		c.segment(c, pkt, c.stack.eng.Now())
	}
	packet.Release(pkt)
}

// rx is the NIC receive path. The frame returns to the fabric pool here;
// the packet is consumed (and recycled) at the end of its segment work.
func (s *Stack) rx(f *netsim.Frame) {
	pkt := f.Pkt
	netsim.ReleaseFrame(f)
	flow := pkt.Flow().Reverse()
	c := s.lookup(flow, pkt.RevFlowHash())
	if (c == nil || !c.synDone) && s.handshake(c, pkt, flow) {
		// handshake consumes its segments synchronously (it never
		// retains the packet).
		packet.Release(pkt)
		return
	}
	if c.halfOpen {
		// First segment after the SYN/SYN-ACK exchange: the passive open
		// graduates from the listen backlog.
		c.halfOpen = false
		if l := s.listeners[flow.SrcPort]; l != nil && l.pendingN > 0 {
			l.pendingN--
		}
	}
	s.RxSegs++
	w := s.segFree.Get()
	if w == nil {
		w = &segWork{}
	}
	w.c, w.pkt = c, pkt
	if s.prof.ASIC {
		// TCP on the NIC: the ASIC processes the segment; the host is
		// charged when the app is notified.
		s.asic.AcquireCall(1, 0, segWorkHandle, w)
		return
	}
	core := c.stackCore
	step := s.segCost(s.nLive)
	if len(s.stackCores) == 0 && !core.Busy() && s.prof.NotifyWakeupUs > 0 {
		// Inline stack on an idle core: the interrupt must wake the
		// CPU and schedule the softirq before any TCP work happens.
		step.Stall += sim.Time(s.prof.NotifyWakeupUs * float64(sim.Microsecond))
	}
	if s.prof.LockFrac > 0 {
		lockCycles := int64(float64(s.prof.TCPPerSeg) * s.prof.LockFrac)
		w.core, w.step = core, step
		s.lock.AcquireCall(lockCycles, 0, segWorkSubmit, w)
		return
	}
	core.SubmitStepCall(step, segWorkHandle, w)
}

// emit sends [off, off+n) of the send stream.
func (c *bconn) emit(off, n uint64, flags uint8) {
	s := c.stack
	pkt := s.mkPacket(c, c.sndSeq(off), flags)
	// The payload is the socket buffer's committed bytes in place; only a
	// window straddling the ring's end is copied.
	if v, ok := c.tx.View(uint32(off), uint32(n)); ok {
		pkt.SetPayloadView(v)
	} else {
		c.tx.ReadAt(uint32(off), pkt.GrowPayload(int(n)))
	}
	s.iface.Send(s.frames.NewFrame(pkt, s.eng.Now()))
}

// ack sends a pure acknowledgment, with SACK blocks when SACK-permitted
// was negotiated on the handshake.
func (c *bconn) ack(ece bool) {
	flags := packet.FlagACK
	if ece {
		flags |= packet.FlagECE
	}
	s := c.stack
	pkt := s.mkPacket(c, c.sndSeq(c.nxt), flags)
	if c.sackOK {
		c.appendSACK(&pkt.TCP)
	}
	s.iface.Send(s.frames.NewFrame(pkt, s.eng.Now()))
}

// mkPacket fills a recycled packet with the connection's headers. The
// caller attaches payload (SetPayloadView or GrowPayload) and owns the
// packet until it is transmitted.
func (s *Stack) mkPacket(c *bconn, seq uint32, flags uint8) *packet.Packet {
	pkt := s.pkts.Get()
	pkt.Eth = packet.Ethernet{Src: s.localMAC, Dst: c.peerMAC, EtherType: packet.EtherTypeIPv4}
	pkt.IP = packet.IPv4{
		TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
		Src: c.flow.SrcIP, Dst: c.flow.DstIP,
	}
	pkt.TCP = packet.TCP{
		SrcPort: c.flow.SrcPort, DstPort: c.flow.DstPort,
		Seq: seq, Ack: c.ackField(), Flags: flags, Window: c.window(), WScale: -1,
	}
	pkt.SeedFlowHashes(c.flowHash, c.revHash)
	return pkt
}

// pump transmits while the window allows, gating each segment on its
// processing cost so the stack core (or the Chelsio ASIC) bounds the
// transmit rate.
func (c *bconn) pump() {
	if !c.pumping {
		c.pumping = true
		c.stack.txStep(c)
	}
}

// txStep sizes the next segment and charges its transmit cost; bconnEmit
// sends it when the cost has been paid and loops back here. The pumping
// flag serializes the loop per connection, so the pending segment size
// lives on the bconn (txN) instead of a closure.
func (s *Stack) txStep(c *bconn) {
	n, ok := c.nextSeg()
	if !ok {
		c.pumping = false
		return
	}
	c.txN = n
	if s.prof.ASIC {
		s.asic.AcquireCall(1, 0, bconnEmit, c)
		return
	}
	c.stackCore.SubmitStepCall(sim.Step{Compute: s.prof.segCycles() / 2}, bconnEmit, c)
}

// bconnEmit transmits the segment txStep sized, then continues the pump.
func bconnEmit(a any) {
	c := a.(*bconn)
	if !c.live {
		c.pumping = false
		return
	}
	c.sendSlot(c, c.txN, c.stack.eng.Now())
	c.stack.txStep(c)
}

// --- Connection table and per-connection timers. ------------------------

// lookup resolves a flow to its live connection, with the hash
// (h == f.Hash()) read off the segment (0 allocations).
func (s *Stack) lookup(f packet.Flow, h uint32) *bconn {
	id, ok := s.flowIdx.LookupHash(f, h)
	if !ok {
		return nil
	}
	return s.slots[id]
}

// NumConns returns the number of live connections.
func (s *Stack) NumConns() int { return s.nLive }

// installConn assigns a slot (FIFO-recycled) and indexes the flow.
func (s *Stack) installConn(c *bconn) {
	var id uint32
	if s.freeHead < len(s.free) {
		id = s.free[s.freeHead]
		s.free, s.freeHead = shm.PopRing(s.free, s.freeHead)
	} else {
		id = uint32(len(s.slots))
		s.slots = append(s.slots, nil)
	}
	c.id = id
	c.live = true
	s.slots[id] = c
	s.flowIdx.Insert(c.flow, id)
	s.nLive++
}

// removeConn reclaims a fully-closed connection: the flow-index entry, the
// dense slot (FIFO-recycled).
// The bconn itself stays readable so an application socket can still drain
// buffered bytes; it is garbage once the socket reference drops.
func (s *Stack) removeConn(c *bconn) {
	if !c.live {
		return
	}
	c.live = false
	s.flowIdx.Delete(c.flow) // before the slot is cleared: Delete reads flows via slots
	s.slots[c.id] = nil
	s.free = append(s.free, c.id)
	s.nLive--
}

func (c *bconn) reclaim() { c.stack.removeConn(c) }

// arm schedules the connection's timer step at at. The connection is its
// own timer carrier: the state's rtoArmed keeps at most one event in
// flight per connection, so timer cost scales with active connections,
// not with the table size.
func (c *bconn) arm(at sim.Time) {
	s := c.stack
	s.own.AfterCall(max(at-s.eng.Now(), 0), btimerFire, c)
}

// btimerFire runs the timer step; a straggling fire after removal is a
// no-op.
func btimerFire(a any) {
	c := a.(*bconn)
	if c.live {
		c.timer(c, c.stack.eng.Now())
	}
}
