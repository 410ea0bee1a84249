package core

import (
	"fmt"
	"math/bits"

	"flextoe/internal/conntab"
	"flextoe/internal/netsim"
	"flextoe/internal/nfp"
	"flextoe/internal/packet"
	"flextoe/internal/sched"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/tcpseg"
	"flextoe/internal/trace"
	"flextoe/internal/xdp"
)

// Counters aggregates data-path statistics for experiments and tests.
type Counters struct {
	RxSegs       uint64
	RxBytes      uint64
	TxSegs       uint64
	TxBytes      uint64
	AcksSent     uint64
	RxDropNoBuf  uint64
	RxToControl  uint64
	XDPDrops     uint64
	XDPTx        uint64
	XDPRedirects uint64
	HCOps        uint64
	Notifies     uint64
	FastRetx     uint64
	// DupAcks counts received pure duplicate acknowledgments (same
	// cumulative ack, no payload, unchanged window, data outstanding) —
	// the ground truth flowmon's passive inference is checked against.
	DupAcks uint64
	// SACK loss-recovery accounting (Config.EnableSACK).
	SACKRetx    uint64 // fast retransmits repaired selectively (no reset)
	SACKReneges uint64 // scoreboard overflows: blocks discarded, go-back-N fallback
	RetxSegs    uint64 // transmitted segments carrying previously sent bytes
	RetxBytes   uint64 // previously transmitted payload bytes re-sent
	OOOAccepted uint64
	OOODropped  uint64
	// Reassembly interval-set accounting (Config.OOOIntervals).
	OOOMerges       uint64 // interval coalescings (insert-merge or in-order catch-up)
	OOODropsAvoided uint64 // accepted OOO segments a single-interval tracker would drop
}

// TOE is one FlexTOE data-path instance bound to a NIC interface.
type TOE struct {
	eng *sim.Engine
	// own schedules the TOE's own events: doorbells, control frames and
	// the deferred same-instant work (transmit pump, control delivery).
	// It is taken after the FPCs, the DMA engine and the copy engine are
	// built, so deferred work runs behind their same-instant completions
	// and a pump armed by several of them sees all their output (an XDP
	// stage attached later is the one part that ranks behind it).
	own     sim.Owner
	cfg     Config
	costs   Costs
	stalls  stalls
	iface   *netsim.Iface
	dma     *nfp.DMAEngine
	copyRes *sim.Resource // shared-memory copy engine on x86/BlueField ports
	sched   *sched.Carousel
	trace   *trace.Registry

	// Connection slab: dense value blocks addressed by slot id, with a
	// flat flow-hash index and FIFO free-slot reuse (doc.go "Connection
	// state budget"). Replaces the old []*Conn + map[Flow]*Conn pair.
	connBlks     [][]Conn
	connFree     []uint32
	connFreeHead int
	connTop      uint32
	nLive        int
	flowIdx      *conntab.Index

	// TimerKick, installed by the control plane, marks a connection as
	// needing timer service (RTO/persist/CC); see maybeTimerKick.
	TimerKick func(id uint32)

	segPool  *shm.Pool
	descPool *shm.Pool

	// Per-engine pools: packets/frames come from this TOE's engine
	// (packet.PoolOf/netsim.FramesOf), and monoFree recycles the
	// run-to-completion work carriers per TOE. No pool state is shared
	// between engines, so concurrent jobs and cells share none.
	pkts     *packet.Pool
	frames   *netsim.FramePool
	monoFree shm.Freelist[monoWork]

	// ControlRx receives non-data-path segments (SYN, RST, unknown
	// flows); the control plane installs it.
	ControlRx func(*packet.Packet)

	// Pipeline stages.
	pre     *stage
	islands []*island
	dmaSt   *stage
	ctxSt   *stage
	mono    *nfp.FPC // run-to-completion ablation
	// monoWake, bound once, is the Idle hook a busy run-to-completion
	// pump leaves on the FPC: it clears itself and kicks the pump.
	monoWake func()

	// XDP ingress chain (§3.3).
	xdpProgs []xdp.Program
	xdpSt    *stage

	preLookup *nfp.Cache

	txInflight  int
	txPumpArmed bool

	// PacketTap, when set, observes every frame entering or leaving the
	// MAC (tcpdump; Table 2's logging build charges its cost).
	PacketTap     func(dir string, pkt *packet.Packet)
	PacketTapCost int64

	// OOOOccupancy samples the reassembly interval-set occupancy after
	// every segment that touched the set (accept, merge, or drop).
	OOOOccupancy *stats.LinearHist

	// segFree recycles segItems (see allocSeg/putSeg); xdpFree recycles
	// the XDP stage's serialization scratch. Both are steady-state
	// allocation-free.
	segFree shm.Freelist[segItem]
	xdpFree shm.Freelist[xdpWork]

	// Long-lived callback cached so control-frame delivery never builds a
	// closure per event (see sim.Engine.AfterCall). Segment-carrying events
	// use package-level functions and the item's toe pointer; the TX pump
	// uses package-level functions with the TOE as argument.
	controlCb func(any)

	Counters
}

// stalls holds the data path's fixed memory stalls, converted from FPC
// cycles once in New so that no task pays a division for them.
type stalls struct {
	imemMiss sim.Time // pre-processor lookup-cache miss: the IMEM lookup
	post     sim.Time // post-processing state: CTM, or the flat memory latency

	// The run-to-completion ablation's uncached lookup plus codestore
	// refill, a DRAM state fetch plus writeback, and one DRAM access.
	monoLookup, monoState, monoDRAM sim.Time
}

func newStalls(cfg *Config) stalls {
	n := &cfg.NFP
	st := stalls{
		imemMiss:   n.CyclesTime(n.IMEMCycles),
		post:       n.CyclesTime(n.CTMCycles),
		monoLookup: n.CyclesTime(n.IMEMCycles + 1500),
		monoState:  n.CyclesTime(2 * n.DRAMCycles),
		monoDRAM:   n.CyclesTime(n.DRAMCycles),
	}
	if cfg.SoftwarePort {
		st.post = n.CyclesTime(cfg.FlatMemCycles)
	}
	return st
}

// island groups the per-flow-group pipeline: the protocol-admission
// reorder buffer, protocol workers (one-FPC stages, atomic per
// connection), the post-processing stage, and the NBI transmission
// reorder buffer.
type island struct {
	fg     int
	entry  *rob
	protos []*stage
	post   *stage
	nbi    *rob
}

// stage is a pool of FPCs serving one intake queue. freeMask is a bitset
// of FPC indices that may have an idle hardware thread, so dispatch picks
// the lowest-indexed free FPC in O(1) instead of scanning the pool per
// segment (wide stages paid that scan on every push). The mask bounds a
// stage at 64 FPCs; the widest any configuration builds is 8.
type stage struct {
	name     string
	q        []*segItem // FIFO: append to push, shm.PopRing at qHead to pop
	qHead    int
	fpcs     []*nfp.FPC
	freeMask uint64
	taskOf   func(*segItem) sim.Step
	handler  func(*segItem)
	handleCb func(any) // bound once: adapts handler to the cb(arg) form
	qTrace   trace.Point
	t        *TOE
}

func (t *TOE) newStage(name string, n int, qTrace trace.Point,
	taskOf func(*segItem) sim.Step, handler func(*segItem)) *stage {
	s := &stage{
		name:    name,
		taskOf:  taskOf,
		handler: handler,
		qTrace:  qTrace,
		t:       t,
	}
	s.handleCb = func(a any) { s.handler(a.(*segItem)) }
	if n > 64 {
		panic(fmt.Sprintf("core: stage %s has %d FPCs, freeMask tracks 64", name, n))
	}
	for i := 0; i < n; i++ {
		f := nfp.NewFPC(t.eng, fmt.Sprintf("%s/%d", name, i), &t.cfg.NFP)
		f.SetThreads(t.cfg.ThreadsPerFPC)
		t.eng.Lends(t.iface.Name+" fpc "+f.Name, f)
		bit := uint64(1) << i
		f.Idle = func() { s.freeMask |= bit; s.pump() }
		s.freeMask |= bit
		s.fpcs = append(s.fpcs, f)
	}
	return s
}

func (s *stage) push(item *segItem) {
	s.t.trace.HitN(s.qTrace, uint64(len(s.q)-s.qHead))
	s.q = append(s.q, item)
	s.pump()
}

// pickFPC returns the lowest-indexed FPC with a free hardware thread,
// clearing stale ready bits as it goes.
func (s *stage) pickFPC() *nfp.FPC {
	for m := s.freeMask; m != 0; {
		i := bits.TrailingZeros64(m)
		bit := uint64(1) << i
		if f := s.fpcs[i]; f.FreeThreads() > 0 {
			if f.FreeThreads() == 1 {
				// This dispatch takes the last thread; the Idle hook
				// re-arms the bit when one frees.
				s.freeMask &^= bit
			}
			return f
		}
		s.freeMask &^= bit
		m &^= bit
	}
	return nil
}

func (s *stage) pump() {
	for s.qHead < len(s.q) {
		f := s.pickFPC()
		if f == nil {
			return
		}
		item := s.q[s.qHead]
		s.q, s.qHead = shm.PopRing(s.q, s.qHead)
		f.SubmitStepCall(s.taskOf(item), s.handleCb, item)
	}
}

// New builds a FlexTOE data-path on the given NIC interface.
func New(eng *sim.Engine, cfg Config, iface *netsim.Iface) *TOE {
	cfg.Validate()
	t := &TOE{
		eng:          eng,
		cfg:          cfg,
		costs:        DefaultCosts(),
		stalls:       newStalls(&cfg),
		iface:        iface,
		trace:        &trace.Registry{},
		segPool:      shm.NewPool("seg", segPoolSize),
		descPool:     shm.NewPool("desc", descPoolSize),
		preLookup:    nfp.NewCache(cfg.NFP.PreLookupEntries, 1),
		OOOOccupancy: stats.NewLinearHist(tcpseg.MaxOOOIntervals),
		pkts:         packet.PoolOf(eng),
		frames:       netsim.FramesOf(eng),
	}
	t.flowIdx = conntab.New(func(slot uint32) packet.Flow { return t.connAt(slot).Flow })
	t.dma = nfp.NewDMAEngine(eng, &cfg.NFP)
	eng.Lends(iface.Name+" dma transactions", t.dma)
	eng.Lends(iface.Name+" segItems", &t.segFree)
	eng.Lends(iface.Name+" xdp work", &t.xdpFree)
	eng.Lends(iface.Name+" mono work", &t.monoFree)
	eng.Lends(iface.Name+" seg buffers", t.segPool)
	eng.Lends(iface.Name+" descriptors", t.descPool)
	if cfg.CopyBytesPerSec > 0 {
		t.copyRes = sim.NewResource(eng, "memcpy", cfg.CopyBytesPerSec)
	}
	t.sched = sched.New(eng, schedSlot, schedSlots)
	t.controlCb = func(a any) {
		pkt := a.(*packet.Packet)
		if cb := t.ControlRx; cb != nil {
			cb(pkt)
		}
		// The control plane reads the segment synchronously and must not
		// retain it (doc.go "Pooling ownership rules"); the data-path
		// still owns it and recycles it here.
		packet.Release(pkt)
	}

	if cfg.RunToCompletion {
		t.mono = nfp.NewFPC(eng, "mono", &cfg.NFP)
		t.mono.SetThreads(cfg.ThreadsPerFPC)
		eng.Lends(iface.Name+" fpc mono", t.mono)
		t.monoWake = func() { t.mono.Idle = nil; t.kickTX() }
	} else {
		t.buildPipeline()
	}
	t.own = eng.NewOwner()
	iface.Recv = t.rxFromWire
	return t
}

func (t *TOE) buildPipeline() {
	cfg := &t.cfg
	// Shared pre-processing pool: PreRepl FPCs per flow group, serving
	// segments of any flow (§4 "pre-processors handle segments for any
	// flow").
	t.pre = t.newStage("pre", cfg.PreRepl*cfg.FlowGroups, trace.TPQPre, t.preTask, t.preDone)

	emem := nfp.NewEMEMCache(&cfg.NFP)
	for fg := 0; fg < cfg.FlowGroups; fg++ {
		isl := &island{fg: fg}
		isl.entry = newROB(func(s *segItem) { t.protoAdmit(isl, s) })
		cls := nfp.NewCLSCache(&cfg.NFP)
		for i := 0; i < cfg.ProtoRepl; i++ {
			cache := nfp.NewStateCache(&cfg.NFP, cls, emem)
			isl.protos = append(isl.protos, t.newStage(fmt.Sprintf("proto%d/%d", fg, i), 1, trace.TPQProto,
				func(s *segItem) sim.Step {
					step := t.protoTask(cache, s)
					// The protocol stage is atomic (§3.1: "the only pipeline
					// hazard"): state mutations execute here, in admission
					// order, under the connection's critical section. The
					// FPC task then accounts for the time; hardware threads
					// overlap only the stall portions of *different* segments.
					t.protoExec(isl, s)
					return step
				},
				func(s *segItem) { t.protoForward(isl, s) }))
		}
		isl.post = t.newStage(fmt.Sprintf("post%d", fg), cfg.PostRepl, trace.TPQPost,
			t.postTask, func(s *segItem) { t.postDone(isl, s) })
		isl.nbi = newROB(t.nbiOut)
		t.islands = append(t.islands, isl)
	}

	t.dmaSt = t.newStage("dma", cfg.DMARepl, trace.TPQDMA, t.dmaTask, t.dmaDone)
	t.ctxSt = t.newStage("ctxq", cfg.CtxRepl, trace.TPQCtx, t.ctxTask, t.ctxDone)
}

// Trace returns the tracepoint registry (enable for the Table 2 builds).
func (t *TOE) Trace() *trace.Registry { return t.trace }

// Config returns the active configuration.
func (t *TOE) Config() *Config { return &t.cfg }

// tsNow is the TCP timestamp clock in microseconds.
func (t *TOE) tsNow() uint32 { return uint32(t.eng.Now() / sim.Microsecond) }

// ---------------------------------------------------------------------
// RX path (§3.1.3, Fig. 6)
// ---------------------------------------------------------------------

func (t *TOE) rxFromWire(f *netsim.Frame) {
	// The frame's journey ends at the MAC; the packet's continues through
	// the pipeline under the segItem's ownership.
	pkt := f.Pkt
	netsim.ReleaseFrame(f)
	if t.PacketTap != nil {
		t.PacketTap("rx", pkt)
	}
	if t.mono != nil {
		t.monoRX(pkt)
		return
	}
	if len(t.xdpProgs) > 0 {
		t.xdpIngress(pkt)
		return
	}
	t.rxToPre(pkt)
}

func (t *TOE) rxToPre(pkt *packet.Packet) {
	if !t.segPool.TryAlloc() {
		t.RxDropNoBuf++
		t.trace.Hit(trace.TPSegAllocFail)
		packet.Release(pkt)
		return
	}
	item := t.allocSeg()
	item.kind = segRX
	item.pkt = pkt
	// Sequencing happens at pipeline entry (§3.2: "we assign a sequence
	// number to each segment entering the pipeline"): the NBI computes
	// the flow-group hash in hardware, so the ticket predates the
	// variable-latency pre-processing stage it will re-order.
	item.fg = packet.HashGroup(pkt.RevFlowHash(), t.cfg.FlowGroups)
	item.ticket = t.islands[item.fg].entry.ticket()
	t.pre.push(item)
}

// preTask: Val + Id (+ IMEM lookup stall on cache miss) + Sum + Steer for
// RX; Alloc + Head + Steer for TX (Fig. 5/6).
func (t *TOE) preTask(s *segItem) sim.Step {
	c := &t.costs
	switch s.kind {
	case segRX:
		instr := c.PreValidate + c.PreLookup + c.PreSummary + c.PreSteer
		instr += t.trace.Hit(trace.TPPreSteer)
		if t.PacketTap != nil {
			instr += t.PacketTapCost // tcpdump-style per-packet copy
		}
		var stall sim.Time
		key := uint64(s.pkt.FlowHash())
		if !t.preLookup.Access(key) {
			stall = t.stalls.imemMiss
			t.trace.Hit(trace.TPPreLookupMiss)
		}
		if t.cfg.SoftwarePort {
			instr += c.RingOp + c.Netif
		}
		return sim.Step{Compute: t.scale(instr), Stall: stall}
	case segTX:
		instr := c.PreAlloc + c.PreHeader + c.PreSteer
		if t.cfg.SoftwarePort {
			instr += c.RingOp
		}
		return sim.Step{Compute: t.scale(instr)}
	default: // segHC: Fetch already done by ctx stage; Steer only.
		return sim.Step{Compute: t.scale(c.PreSteer)}
	}
}

func (t *TOE) preDone(s *segItem) {
	isl := t.islands[s.fg]
	switch s.kind {
	case segRX:
		conn := t.rxConn(s.pkt)
		if conn == nil {
			s.pkt = nil
			isl.entry.skip(s.ticket)
			t.segPool.Free()
			t.putSeg(s)
			return
		}
		s.conn = conn.ID
		s.info = tcpseg.Summarize(s.pkt)
		isl.entry.submit(s.ticket, s)
	case segTX, segHC:
		isl.entry.submit(s.ticket, s)
	}
}

// rxConn is the pre-processor's filter and flow lookup: it returns the
// connection a received segment belongs to, or hands a segment that is
// off the data path or of no offloaded flow to the control plane and
// returns nil (§3.1.3).
func (t *TOE) rxConn(pkt *packet.Packet) *Conn {
	if pkt.TCP.IsDataPath() {
		// The NIC sees the flow from the sender's perspective; our
		// connection table is keyed by the local endpoint's view.
		if conn := t.lookupFlow(pkt.Flow().Reverse(), pkt.RevFlowHash()); conn != nil {
			return conn
		}
	}
	t.toControl(pkt)
	return nil
}

// toControl hands a segment to the control plane. Ownership of the packet
// moves with it: the delivery event releases the packet after the
// callback returns (callbacks must not retain it).
func (t *TOE) toControl(pkt *packet.Packet) {
	t.RxToControl++
	t.trace.Hit(trace.TPPreFilterControl)
	if t.ControlRx == nil {
		packet.Release(pkt)
		return
	}
	t.own.ImmediatelyCall(t.controlCb, pkt)
}

// protoAdmit distributes in-order segments to the connection's protocol
// worker (same connection -> same worker: atomicity without locks).
func (t *TOE) protoAdmit(isl *island, s *segItem) {
	isl.protos[int(s.conn)&(len(isl.protos)-1)].push(s) // ProtoRepl is a power of two
}

// protoTask charges the protocol stage: the connection-state fetch through
// the worker's cache hierarchy, the sequencer's ticket and reorder work,
// and the per-kind protocol instructions.
func (t *TOE) protoTask(cache *nfp.StateCache, s *segItem) sim.Step {
	c := &t.costs
	stall := cache.Access(uint64(s.conn))
	seqCost := c.SeqTicket + c.SeqReorder // sequencer FPCs (§3.2), charged here
	var instr int64
	switch s.kind {
	case segRX:
		instr = c.ProtoRX
		instr += t.trace.Hit(trace.TPProtoRX) + t.trace.Hit(trace.TPCritRX)
	case segTX:
		instr = c.ProtoTX
		instr += t.trace.Hit(trace.TPProtoTX) + t.trace.Hit(trace.TPCritTX)
	case segHC:
		instr = c.ProtoHC
		instr += t.trace.Hit(trace.TPProtoHC) + t.trace.Hit(trace.TPCritHC)
	}
	if t.cfg.SoftwarePort {
		instr += c.RingOp
	}
	return sim.Step{Compute: t.scale(instr + seqCost), Stall: stall}
}

// protoExec executes the real protocol logic at the atomic point, in
// admission (ticket) order. It records what happened on the segItem;
// protoForward routes the item onward when the FPC task completes.
func (t *TOE) protoExec(isl *island, s *segItem) {
	conn := t.connOrNil(s.conn)
	if conn == nil {
		s.dropped = true
		return
	}
	switch s.kind {
	case segRX:
		t.rxProto(conn, &s.info, &s.rx)
		s.hasNBI = s.rx.SendAck
	case segTX:
		// The item's reservation ends here, sent or not. One that sent
		// less (a short retransmit hole, a shrunk window) hands what it
		// held back to the flow scheduler.
		conn.txSched -= s.txResv
		ok := t.txProto(conn, &s.tx)
		if s.tx.Len < s.txResv {
			t.offerFlow(conn)
		}
		if !ok {
			// Window closed between scheduling and protocol.
			s.dropped = true
			return
		}
		s.hasNBI = true
	case segHC:
		s.hasNBI = t.hcProto(conn, s.hc, &s.rx)
	}
	if s.hasNBI {
		s.nbiTicket = isl.nbi.ticket()
	}
}

// The protocol steps below (rxProto, txProto, hcProto) and the steps
// around them in this file (rxConn, hcPost, rxPost, landPayload,
// notifyHost, countTX, sendAck, txReady in tx.go) are the data path's one
// copy of its per-segment logic: the pipeline's stages call them at their
// own sites and the run-to-completion ablation (mono.go) calls them in a
// row, so the two differ only in parallelism and cost.

// rxProto is the protocol step for a received segment: tcpseg.ProcessRX
// writes res, and its recovery and reassembly outcomes are counted.
func (t *TOE) rxProto(conn *Conn, info *tcpseg.SegInfo, res *tcpseg.RXResult) {
	*res = tcpseg.ProcessRX(&conn.Proto, &conn.Post, info, t.tsNow())
	if res.SACKReneged {
		t.SACKReneges++
	}
	if res.FastRetransmit {
		t.FastRetx++
		if res.SACKRetransmit {
			t.SACKRetx++
		}
		t.trace.Hit(trace.TPConnFastRetx)
	}
	if res.DupAck {
		t.DupAcks++
		t.trace.Hit(trace.TPConnDupAck)
	}
	if res.WasOOO {
		t.OOOAccepted++
		t.trace.Hit(trace.TPConnOOO)
		if res.OOODropAvoided {
			t.OOODropsAvoided++
		}
	}
	if res.OOODrop {
		t.OOODropped++
		t.trace.Hit(trace.TPConnOOODrop)
	}
	t.OOOMerges += uint64(res.OOOMerged)
	if res.WasOOO || res.OOODrop || res.OOOMerged > 0 {
		t.OOOOccupancy.Record(int(res.OOOIvs))
	}
	t.maybeTimerKick(conn)
}

// txProto is the protocol step for a scheduled transmission:
// tcpseg.ProcessTX writes the next segment into tx, or reports false when
// the windows or an empty buffer leave nothing to send.
func (t *TOE) txProto(conn *Conn, tx *tcpseg.TXResult) bool {
	var ok bool
	if *tx, ok = tcpseg.ProcessTX(&conn.Proto, &conn.Post, t.cfg.MSS, conn.CWnd); ok {
		t.maybeTimerKick(conn)
	}
	return ok
}

// hcProto is the protocol step for a host-control descriptor:
// tcpseg.ProcessHC applies it, and when the receive window reopens it
// writes the pure ACK that re-advertises it into ack and reports true —
// without that ACK the sender stalls at zero window forever.
func (t *TOE) hcProto(conn *Conn, d shm.Desc, ack *tcpseg.RXResult) bool {
	res := tcpseg.ProcessHC(&conn.Proto, &conn.Post, hcOpOf(d))
	if res.Reset {
		t.trace.Hit(trace.TPConnRetransmit)
	}
	if res.SendWindowUpdate {
		*ack = tcpseg.WindowUpdateAck(&conn.Proto)
	}
	t.maybeTimerKick(conn)
	return res.SendWindowUpdate
}

// hcPost finishes a host-control descriptor: it is counted, and the flow
// scheduler hears of what it made sendable past the TX items in flight (a
// FIN on an empty transmit buffer counts its sequence slot).
func (t *TOE) hcPost(conn *Conn) {
	t.HCOps++
	t.offerFlow(conn)
}

// rxPost counts a received segment and tells the flow scheduler when its
// ACK opened the window past what the TX items in flight hold.
func (t *TOE) rxPost(conn *Conn, info *tcpseg.SegInfo) {
	t.RxSegs++
	t.RxBytes += uint64(info.PayloadLen)
	t.offerFlow(conn)
}

// protoForward routes a segment onward after the protocol stage's
// processing time has elapsed.
func (t *TOE) protoForward(isl *island, s *segItem) {
	if s.dropped || t.connOrNil(s.conn) == nil {
		t.releaseSeg(isl, s)
		return
	}
	isl.post.push(s)
}

func hcOpOf(d shm.Desc) tcpseg.HCOp {
	switch d.Kind {
	case shm.DescTxBump:
		return tcpseg.HCOp{Kind: tcpseg.HCTx, Bytes: d.Bytes}
	case shm.DescRxConsume:
		return tcpseg.HCOp{Kind: tcpseg.HCRxConsumed, Bytes: d.Bytes}
	case shm.DescFin:
		return tcpseg.HCOp{Kind: tcpseg.HCFin}
	default:
		return tcpseg.HCOp{Kind: tcpseg.HCRetransmit}
	}
}

// postTask: Ack + Stamp + Stats for RX, Pos for TX, FS update for HC.
func (t *TOE) postTask(s *segItem) sim.Step {
	c := &t.costs
	var instr int64
	switch s.kind {
	case segRX:
		instr = c.PostStats + c.PostPos
		if s.rx.SendAck {
			instr += c.PostAck + c.PostStamp
		}
		if s.rx.NewInOrder > 0 || s.rx.AckedBytes > 0 || s.rx.FinRx {
			instr += c.PostNotify
		}
		instr += t.trace.Hit(trace.TPPostStats)
	case segTX:
		instr = c.PostPos + c.PostStats
	case segHC:
		instr = c.PostStats
	}
	if t.cfg.SoftwarePort {
		instr += c.RingOp
	}
	// CTM access for the post partition state.
	return sim.Step{Compute: t.scale(instr), Stall: t.stalls.post}
}

func (t *TOE) postDone(isl *island, s *segItem) {
	conn := t.connOrNil(s.conn)
	if conn == nil {
		t.releaseSeg(isl, s)
		return
	}
	switch s.kind {
	case segRX:
		t.rxPost(conn, &s.info)
		t.dmaSt.push(s)
	case segTX:
		t.dmaSt.push(s)
	case segHC:
		t.descPool.Free()
		if s.hasNBI {
			// Window-update ACK rides out through the NBI in order.
			if t.segPool.TryAlloc() {
				s.pkt = t.buildAck(conn, &s.rx)
				t.nbiSubmit(isl, s)
			} else {
				isl.nbi.skip(s.nbiTicket)
			}
		}
		t.hcPost(conn)
		// The HC item's journey ends at the post stage (the NBI holds its
		// own reference if an ACK rides out).
		t.putSeg(s)
	}
}

// dmaTask models descriptor construction; the PCIe/copy latency itself is
// asynchronous (the DMA engine), so the FPC only pays issue cost.
func (t *TOE) dmaTask(s *segItem) sim.Step {
	instr := t.costs.DMAIssue
	if t.cfg.SoftwarePort {
		instr += t.costs.RingOp
	}
	if t.PacketTap != nil {
		instr += t.PacketTapCost // egress logging
	}
	return sim.Step{Compute: t.scale(instr)}
}

func (t *TOE) dmaDone(s *segItem) {
	conn := t.connOrNil(s.conn)
	isl := t.islands[s.fg]
	if conn == nil {
		t.releaseSeg(isl, s)
		return
	}
	// Pin the connection across the asynchronous transfer, exactly as the
	// old closure captured it.
	s.connRef = conn
	switch s.kind {
	case segRX:
		if s.rx.WriteLen > 0 {
			t.trace.Hit(trace.TPDMAPayloadRX)
			t.xferCall(int(s.rx.WriteLen), rxPayloadLanded, s)
			return
		}
		t.rxComplete(s)
	case segTX:
		t.trace.Hit(trace.TPDMAPayloadTX)
		t.xferCall(int(s.tx.Len)+64, txPayloadFetched, s) // descriptor + payload fetch
	}
}

// rxPayloadLanded runs when the RX payload DMA completes: one-shot, the
// payload lands directly in the host receive buffer.
func rxPayloadLanded(a any) {
	s := a.(*segItem)
	landPayload(s.connRef, s.pkt, &s.rx)
	s.toe.rxComplete(s)
}

// landPayload writes the in-window payload res places into the host
// receive buffer. A whole payload is a wire view whose checksum
// (flexdebug) must have survived the flight.
func landPayload(conn *Conn, pkt *packet.Packet, res *tcpseg.RXResult) {
	if res.WriteOff == 0 && int(res.WriteLen) == len(pkt.Payload) {
		pkt.CheckPayloadView()
	}
	conn.RxBuf.WriteAt(res.WritePos, pkt.Payload[res.WriteOff:res.WriteOff+res.WriteLen])
}

// rxComplete finishes the RX workflow after any payload DMA. Ordering
// (§3.1.3): ACK and notification leave only after the payload DMA
// completes. The received packet's journey ends here: the ACK (if any) is
// a fresh pooled packet.
func (t *TOE) rxComplete(s *segItem) {
	conn := s.connRef
	isl := t.islands[s.fg]
	if s.rx.SendAck {
		ack := t.buildAck(conn, &s.rx)
		packet.Release(s.pkt)
		s.pkt = ack
		t.nbiSubmit(isl, s)
	} else {
		t.segPool.Free()
		packet.Release(s.pkt)
		s.pkt = nil
	}
	t.notifyHost(conn, &s.rx)
	t.putSeg(s)
}

// txPayloadFetched runs when the TX descriptor + payload DMA completes:
// the segment is built from the host buffer bytes and queued for in-order
// transmission.
func txPayloadFetched(a any) {
	s := a.(*segItem)
	t := s.toe
	s.pkt = t.buildData(s.connRef, &s.tx)
	t.nbiSubmit(t.islands[s.fg], s)
	t.putSeg(s)
}

// xferCall moves n bytes across the host boundary — PCIe DMA on the
// Agilio, shared-memory copy on the ports — and runs cb(arg) at
// completion.
func (t *TOE) xferCall(n int, cb func(any), arg any) {
	if n <= 0 {
		t.own.ImmediatelyCall(cb, arg)
		return
	}
	if t.copyRes != nil {
		t.copyRes.AcquireCall(int64(n), t.cfg.NFP.PCIeLatency, cb, arg)
		return
	}
	t.dma.IssueCall(n, cb, arg)
}

// notifyHost emits context-queue notifications for newly in-order payload,
// freed transmit buffer space, and peer FINs.
func (t *TOE) notifyHost(conn *Conn, res *tcpseg.RXResult) {
	if res.NewInOrder > 0 {
		t.notify(conn, shm.Desc{Kind: shm.DescRxNotify, Conn: conn.ID, Bytes: res.NewInOrder, Opaque: conn.Post.Opaque})
	}
	if res.AckedBytes > 0 {
		t.notify(conn, shm.Desc{Kind: shm.DescTxFree, Conn: conn.ID, Bytes: res.AckedBytes, Opaque: conn.Post.Opaque})
	}
	if res.FinRx {
		t.notify(conn, shm.Desc{Kind: shm.DescFinRx, Conn: conn.ID, Opaque: conn.Post.Opaque})
	}
}

// notify sends one descriptor to the host: through the context-queue
// stage and a descriptor DMA on the pipeline, at once in the
// run-to-completion ablation, whose task has already paid the blocking
// transfer.
func (t *TOE) notify(conn *Conn, d shm.Desc) {
	if t.mono != nil {
		t.deliverNotif(conn, d)
		return
	}
	n := t.allocSeg()
	n.kind = segHC
	n.conn = conn.ID
	n.fg = int(conn.fg)
	n.hc = d
	t.ctxSt.push(n)
}

func (t *TOE) ctxTask(s *segItem) sim.Step {
	instr := t.costs.CtxQNotify
	if t.cfg.SoftwarePort {
		instr += t.costs.RingOp
	}
	instr += t.trace.Hit(trace.TPCtxQNotify)
	return sim.Step{Compute: t.scale(instr)}
}

func (t *TOE) ctxDone(s *segItem) {
	conn := t.connOrNil(s.conn)
	if conn == nil {
		t.putSeg(s)
		return
	}
	s.connRef = conn
	t.xferCall(shm.DescWireSize, notifDelivered, s)
}

// notifDelivered runs when the descriptor DMA to the host completes.
func notifDelivered(a any) {
	s := a.(*segItem)
	s.toe.deliverNotif(s.connRef, s.hc)
	s.toe.putSeg(s)
}

// deliverNotif counts a descriptor and hands it to the host.
func (t *TOE) deliverNotif(conn *Conn, d shm.Desc) {
	t.Notifies++
	t.trace.Hit(trace.TPDMADescriptor)
	if conn.Notify != nil {
		conn.Notify(d)
	}
}

// nbiOut transmits a frame in ticket order, frees its segment buffer, and
// drops the reorder buffer's reference on the item. Ownership of the
// packet transfers to the fabric with sendFrame.
func (t *TOE) nbiOut(s *segItem) {
	pkt := s.pkt
	s.pkt = nil
	if pkt == nil {
		t.segPool.Free()
		t.putSeg(s)
		return
	}
	if s.kind == segTX {
		t.countTX(&s.tx)
		t.txInflight--
		t.kickTX()
		t.sendFrame(pkt)
	} else {
		t.sendAck(pkt)
	}
	t.segPool.Free()
	t.putSeg(s)
}

// countTX counts a transmitted data segment and the bytes it re-sends.
func (t *TOE) countTX(tx *tcpseg.TXResult) {
	t.TxSegs++
	t.TxBytes += uint64(tx.Len)
	if tx.RetxBytes > 0 {
		t.RetxSegs++
		t.RetxBytes += uint64(tx.RetxBytes)
	}
}

// sendAck transmits and counts a pure ACK.
func (t *TOE) sendAck(pkt *packet.Packet) {
	t.AcksSent++
	t.sendFrame(pkt)
}

func (t *TOE) sendFrame(pkt *packet.Packet) {
	if t.PacketTap != nil {
		t.PacketTap("tx", pkt)
	}
	t.iface.Send(t.frames.NewFrame(pkt, t.eng.Now()))
}

// SendControlFrame transmits a control-plane segment (handshake, RST)
// directly via the MAC, bypassing the offloaded data-path — connection
// management deliberately lives outside the pipeline (§3).
func (t *TOE) SendControlFrame(pkt *packet.Packet) {
	w := t.getMonoWork()
	w.t, w.pkt = t, pkt
	t.own.AfterCall(t.cfg.NFP.MMIOLatency, sendCtrlFrame, w)
}

func sendCtrlFrame(a any) {
	w := a.(*monoWork)
	t, pkt := w.t, w.pkt
	t.putMonoWork(w)
	t.sendFrame(pkt)
}

// releaseSeg drops a segment mid-pipeline, skipping its NBI ticket so the
// reorder buffer never stalls and returning its pool resources (including
// the packet, whose journey ends here).
func (t *TOE) releaseSeg(isl *island, s *segItem) {
	if s.hasNBI {
		isl.nbi.skip(s.nbiTicket)
	}
	if s.pkt != nil {
		packet.Release(s.pkt)
		s.pkt = nil
	}
	switch s.kind {
	case segRX:
		t.segPool.Free()
	case segTX:
		t.segPool.Free()
		t.txInflight--
		t.kickTX()
	case segHC:
		t.descPool.Free()
	}
	t.putSeg(s)
}

// buildAck encodes the acknowledgment a protocol result asks for into a
// recycled packet (ownership transfers to the fabric when it is sent).
func (t *TOE) buildAck(conn *Conn, rx *tcpseg.RXResult) *packet.Packet {
	flags := packet.FlagACK
	if rx.AckECE {
		flags |= packet.FlagECE
	}
	pkt := t.pkts.Get()
	pkt.Eth = packet.Ethernet{Src: t.iface.MAC, Dst: conn.Pre.PeerMAC, EtherType: packet.EtherTypeIPv4}
	pkt.IP = packet.IPv4{
		TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
		Src: conn.Pre.LocalIP, Dst: conn.Pre.PeerIP,
	}
	pkt.TCP = packet.TCP{
		SrcPort: conn.Pre.LocalPort, DstPort: conn.Pre.RemotePort,
		Seq: rx.AckSeq, Ack: rx.AckAck, Flags: flags,
		Window: rx.AckWin, WScale: -1,
	}
	// SACK blocks the protocol stage derived from the reassembly interval
	// set; the wire encoder fits 3 alongside timestamps, 4 otherwise.
	for i := uint8(0); i < rx.AckSACKCnt; i++ {
		pkt.TCP.AddSACK(packet.SACKBlock{Start: rx.AckSACK[i].Start, End: rx.AckSACK[i].End})
	}
	pkt.TCP.HasTimestamp = true
	pkt.TCP.TSVal = t.tsNow()
	pkt.TCP.TSEcr = rx.EchoTS
	pkt.SeedFlowHashes(conn.flowHash, conn.revHash)
	return pkt
}

// buildData constructs a data segment into a recycled packet whose
// payload is the host transmit buffer's committed bytes in place (the DMA
// the paper's TX pipeline performs, one-shot: no staging copy). Only a
// window straddling the ring's end is copied, into a slab buffer.
func (t *TOE) buildData(conn *Conn, tx *tcpseg.TXResult) *packet.Packet {
	flags := packet.FlagACK | packet.FlagPSH
	if tx.FIN {
		flags |= packet.FlagFIN
		t.trace.Hit(trace.TPConnFinTx)
	}
	pkt := t.pkts.Get()
	if v, ok := conn.TxBuf.View(tx.BufPos, tx.Len); ok {
		pkt.SetPayloadView(v)
	} else {
		conn.TxBuf.ReadAt(tx.BufPos, pkt.GrowPayload(int(tx.Len)))
	}
	pkt.Eth = packet.Ethernet{Src: t.iface.MAC, Dst: conn.Pre.PeerMAC, EtherType: packet.EtherTypeIPv4}
	pkt.IP = packet.IPv4{
		TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
		Src: conn.Pre.LocalIP, Dst: conn.Pre.PeerIP,
	}
	pkt.TCP = packet.TCP{
		SrcPort: conn.Pre.LocalPort, DstPort: conn.Pre.RemotePort,
		Seq: tx.Seq, Ack: tx.Ack, Flags: flags,
		Window: tx.Win, WScale: -1,
	}
	// Piggyback SACK blocks the protocol stage copied from the reassembly
	// interval set (Config.EnableSACK), so heavily bidirectional flows
	// learn about holes without waiting for a pure ACK.
	for i := uint8(0); i < tx.SACKCnt; i++ {
		pkt.TCP.AddSACK(packet.SACKBlock{Start: tx.SACK[i].Start, End: tx.SACK[i].End})
	}
	pkt.TCP.HasTimestamp = true
	pkt.TCP.TSVal = t.tsNow()
	pkt.TCP.TSEcr = tx.EchoTS
	pkt.SeedFlowHashes(conn.flowHash, conn.revHash)
	return pkt
}
