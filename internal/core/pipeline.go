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

// Trace point aliases used by conn.go.
const (
	traceEstablished = trace.TPConnEstablished
	traceClosed      = trace.TPConnClosed
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

	// dynOOOCap is the adaptive fleet-wide OOO interval budget
	// (SetDynOOOCap); 0 means the static Config.OOOIntervals applies.
	dynOOOCap uint8

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
	// closure per event (see sim.Engine.AtCall). Segment-carrying events
	// use package-level functions and the item's toe pointer; the TX pump
	// uses package-level functions with the TOE as argument.
	controlCb func(any)

	Counters
}

// island groups the per-flow-group pipeline: the protocol-admission
// reorder buffer, protocol workers (atomic per connection), the
// post-processing stage, and the NBI transmission reorder buffer.
type island struct {
	fg     int
	entry  *rob
	protos []*protoWorker
	post   *stage
	nbi    *rob
}

type protoWorker struct {
	fpc   *nfp.FPC
	q     []*segItem // FIFO: append to push, shm.PopRing at qHead to pop
	qHead int
	cache *nfp.StateCache
	t     *TOE
	isl   *island
	fwdCb func(any) // bound once: forwards the item when the FPC task ends
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
	taskOf   func(*segItem) sim.Task
	handler  func(*segItem)
	handleCb func(any) // bound once: adapts handler to the cb(arg) form
	qTrace   trace.Point
	t        *TOE
}

func (t *TOE) newStage(name string, n int, qTrace trace.Point,
	taskOf func(*segItem) sim.Task, handler func(*segItem)) *stage {
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
		f.SubmitCall(s.taskOf(item), s.handleCb, item)
	}
}

// New builds a FlexTOE data-path on the given NIC interface.
func New(eng *sim.Engine, cfg Config, iface *netsim.Iface) *TOE {
	cfg.Validate()
	t := &TOE{
		eng:          eng,
		cfg:          cfg,
		costs:        DefaultCosts(),
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
			pw := &protoWorker{
				fpc:   nfp.NewFPC(t.eng, fmt.Sprintf("proto%d/%d", fg, i), &cfg.NFP),
				cache: nfp.NewStateCache(&cfg.NFP, cls, emem),
				t:     t,
				isl:   isl,
			}
			pw.fpc.SetThreads(cfg.ThreadsPerFPC)
			pw.fpc.Idle = pw.pump
			pw.fwdCb = func(a any) { pw.t.protoForward(pw.isl, a.(*segItem)) }
			isl.protos = append(isl.protos, pw)
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

// Sched exposes the flow scheduler (for control-plane rate programming).
func (t *TOE) Sched() *sched.Carousel { return t.sched }

// Engine returns the simulation engine the data-path runs on.
func (t *TOE) Engine() *sim.Engine { return t.eng }

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
func (t *TOE) preTask(s *segItem) sim.Task {
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
			stall = t.cfg.NFP.CyclesTime(t.cfg.NFP.IMEMCycles)
			t.trace.Hit(trace.TPPreLookupMiss)
		}
		if t.cfg.SoftwareRings {
			instr += c.RingOp
		}
		if t.cfg.NetifStage {
			instr += c.Netif
		}
		return sim.TaskC(t.scale(instr)).Add(0, stall)
	case segTX:
		instr := c.PreAlloc + c.PreHeader + c.PreSteer
		if t.cfg.SoftwareRings {
			instr += c.RingOp
		}
		return sim.TaskC(t.scale(instr))
	default: // segHC: Fetch already done by ctx stage; Steer only.
		return sim.TaskC(t.scale(c.PreSteer))
	}
}

func (t *TOE) preDone(s *segItem) {
	isl := t.islands[s.fg]
	switch s.kind {
	case segRX:
		pkt := s.pkt
		// Filter non-data-path segments to the control plane (§3.1.3).
		if !pkt.TCP.IsDataPath() {
			s.pkt = nil
			t.toControl(pkt)
			isl.entry.skip(s.ticket)
			t.segPool.Free()
			t.putSeg(s)
			return
		}
		// The NIC sees the flow from the sender's perspective; our
		// connection table is keyed by the local endpoint's view.
		conn := t.lookupFlow(pkt.Flow().Reverse(), pkt.RevFlowHash())
		if conn == nil {
			s.pkt = nil
			t.toControl(pkt)
			isl.entry.skip(s.ticket)
			t.segPool.Free()
			t.putSeg(s)
			return
		}
		s.conn = conn.ID
		s.info = tcpseg.Summarize(pkt)
		isl.entry.submit(s.ticket, s)
	case segTX, segHC:
		isl.entry.submit(s.ticket, s)
	}
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
	w := isl.protos[int(s.conn)%len(isl.protos)]
	t.trace.HitN(trace.TPQProto, uint64(len(w.q)-w.qHead))
	w.q = append(w.q, s)
	w.pump()
}

func (w *protoWorker) pump() {
	for w.qHead < len(w.q) && w.fpc.FreeThreads() > 0 {
		item := w.q[w.qHead]
		w.q, w.qHead = shm.PopRing(w.q, w.qHead)
		task := w.taskOf(item)
		// The protocol stage is atomic (§3.1: "the only pipeline
		// hazard"): state mutations execute here, in admission order,
		// under the connection's critical section. The FPC task then
		// accounts for the time; hardware threads overlap only the
		// stall portions of *different* segments.
		w.t.protoExec(w.isl, item)
		w.fpc.SubmitCall(task, w.fwdCb, item)
	}
}

func (w *protoWorker) taskOf(s *segItem) sim.Task {
	t := w.t
	c := &t.costs
	stall := w.cache.Access(uint64(s.conn))
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
	if t.cfg.SoftwareRings {
		instr += c.RingOp
	}
	return sim.TaskC(t.scale(instr+seqCost)).Add(0, stall)
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
		// Adaptive OOOCap: adopt the fleet-wide budget lazily, on the
		// connection's next RX (SetDynOOOCap never walks the table).
		if cap := t.dynOOOCap; cap != 0 && conn.Proto.OOOCap != cap {
			conn.Proto.OOOCap = cap
		}
		s.rx = tcpseg.ProcessRX(&conn.Proto, &conn.Post, &s.info, t.tsNow())
		if s.rx.SACKReneged {
			t.SACKReneges++
		}
		if s.rx.FastRetransmit {
			t.FastRetx++
			if s.rx.SACKRetransmit {
				t.SACKRetx++
			}
			t.trace.Hit(trace.TPConnFastRetx)
		}
		t.countReassembly(&s.rx)
		if s.rx.SendAck {
			s.hasNBI = true
			s.nbiTicket = isl.nbi.ticket()
		}
	case segTX:
		txr, ok := tcpseg.ProcessTX(&conn.Proto, &conn.Post, t.cfg.MSS, conn.CWnd)
		if !ok {
			// Window closed between scheduling and protocol.
			s.dropped = true
			return
		}
		s.tx = txr
		s.hasNBI = true
		s.nbiTicket = isl.nbi.ticket()
	case segHC:
		s.hcOp = hcOpOf(s.hc)
		res := tcpseg.ProcessHC(&conn.Proto, &conn.Post, s.hcOp)
		if res.Reset {
			t.trace.Hit(trace.TPConnRetransmit)
		}
		if res.SendWindowUpdate {
			// Re-advertise the reopened window as a pure ACK, or the
			// sender stalls at zero window forever.
			s.rx = tcpseg.WindowUpdateAck(&conn.Proto)
			s.hasNBI = true
			s.nbiTicket = isl.nbi.ticket()
		}
	}
	t.maybeTimerKick(conn)
}

// countReassembly updates the OOO reassembly counters and the occupancy
// histogram from one RX result (shared by the pipeline's protocol stage
// and the run-to-completion ablation).
func (t *TOE) countReassembly(res *tcpseg.RXResult) {
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
}

// protoForward routes a segment onward after the protocol stage's
// processing time has elapsed.
func (t *TOE) protoForward(isl *island, s *segItem) {
	if s.dropped {
		t.releaseSeg(isl, s)
		return
	}
	if t.connOrNil(s.conn) == nil {
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
func (t *TOE) postTask(s *segItem) sim.Task {
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
	if t.cfg.SoftwareRings {
		instr += c.RingOp
	}
	// CTM access for the post partition state.
	stall := t.stateStall()
	return sim.TaskC(t.scale(instr)).Add(0, stall)
}

func (t *TOE) stateStall() sim.Time {
	if t.cfg.FlatMemory {
		return t.cfg.NFP.CyclesTime(t.cfg.FlatMemCycles)
	}
	return t.cfg.NFP.CyclesTime(t.cfg.NFP.CTMCycles)
}

func (t *TOE) postDone(isl *island, s *segItem) {
	conn := t.connOrNil(s.conn)
	if conn == nil {
		t.releaseSeg(isl, s)
		return
	}
	switch s.kind {
	case segRX:
		t.RxSegs++
		t.RxBytes += uint64(s.info.PayloadLen)
		// Flow-scheduler update: the ACK may have opened the window.
		if tcpseg.SendableBytes(&conn.Proto, conn.CWnd) > 0 {
			t.submitFlow(conn)
		}
		t.dmaSt.push(s)
	case segTX:
		t.dmaSt.push(s)
	case segHC:
		t.HCOps++
		t.descPool.Free()
		if s.hasNBI {
			// Window-update ACK rides out through the NBI in order.
			if t.segPool.TryAlloc() {
				s.pkt = t.buildAck(conn, s)
				t.nbiSubmit(isl, s)
			} else {
				isl.nbi.skip(s.nbiTicket)
			}
		}
		if tcpseg.SendableBytes(&conn.Proto, conn.CWnd) > 0 || conn.Proto.TxAvail > 0 ||
			s.hc.Kind == shm.DescFin || s.hc.Kind == shm.DescRetransmit {
			// FIN and retransmit requests must reach the scheduler even
			// with an empty transmit buffer.
			t.submitFlow(conn)
		}
		t.kickTX()
		// The HC item's journey ends at the post stage (the NBI holds its
		// own reference if an ACK rides out).
		t.putSeg(s)
	}
}

// dmaTask models descriptor construction; the PCIe/copy latency itself is
// asynchronous (the DMA engine), so the FPC only pays issue cost.
func (t *TOE) dmaTask(s *segItem) sim.Task {
	instr := t.costs.DMAIssue
	if t.cfg.SoftwareRings {
		instr += t.costs.RingOp
	}
	if t.PacketTap != nil {
		instr += t.PacketTapCost // egress logging
	}
	return sim.TaskC(t.scale(instr))
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
	conn := s.connRef
	conn.RxBuf.WriteAt(s.rx.WritePos, s.pkt.Payload[s.rx.WriteOff:s.rx.WriteOff+s.rx.WriteLen])
	s.toe.rxComplete(s)
}

// rxComplete finishes the RX workflow after any payload DMA. Ordering
// (§3.1.3): ACK and notification leave only after the payload DMA
// completes. The received packet's journey ends here: the ACK (if any) is
// a fresh pooled packet.
func (t *TOE) rxComplete(s *segItem) {
	conn := s.connRef
	isl := t.islands[s.fg]
	if s.rx.SendAck {
		ack := t.buildAck(conn, s)
		packet.Release(s.pkt)
		s.pkt = ack
		t.nbiSubmit(isl, s)
	} else {
		t.segPool.Free()
		packet.Release(s.pkt)
		s.pkt = nil
	}
	t.notifyHost(conn, s)
	t.putSeg(s)
}

// txPayloadFetched runs when the TX descriptor + payload DMA completes:
// the segment is built from the host buffer bytes and queued for in-order
// transmission.
func txPayloadFetched(a any) {
	s := a.(*segItem)
	t := s.toe
	s.pkt = t.buildData(s.connRef, s)
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
func (t *TOE) notifyHost(conn *Conn, s *segItem) {
	if s.rx.NewInOrder > 0 {
		t.pushNotif(conn, shm.Desc{Kind: shm.DescRxNotify, Conn: conn.ID, Bytes: s.rx.NewInOrder, Opaque: conn.Post.Opaque})
	}
	if s.rx.AckedBytes > 0 {
		t.pushNotif(conn, shm.Desc{Kind: shm.DescTxFree, Conn: conn.ID, Bytes: s.rx.AckedBytes, Opaque: conn.Post.Opaque})
	}
	if s.rx.FinRx {
		t.pushNotif(conn, shm.Desc{Kind: shm.DescFinRx, Conn: conn.ID, Opaque: conn.Post.Opaque})
	}
}

func (t *TOE) pushNotif(conn *Conn, d shm.Desc) {
	n := t.allocSeg()
	n.kind = segHC
	n.conn = conn.ID
	n.fg = int(conn.fg)
	n.hc = d
	t.ctxSt.push(n)
}

func (t *TOE) ctxTask(s *segItem) sim.Task {
	instr := t.costs.CtxQNotify
	if t.cfg.SoftwareRings {
		instr += t.costs.RingOp
	}
	instr += t.trace.Hit(trace.TPCtxQNotify)
	return sim.TaskC(t.scale(instr))
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
	t := s.toe
	t.Notifies++
	t.trace.Hit(trace.TPDMADescriptor)
	if s.connRef.Notify != nil {
		s.connRef.Notify(s.hc)
	}
	t.putSeg(s)
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
		t.TxSegs++
		t.TxBytes += uint64(s.tx.Len)
		if s.tx.RetxBytes > 0 {
			t.RetxSegs++
			t.RetxBytes += uint64(s.tx.RetxBytes)
		}
		t.txInflight--
		t.kickTX()
	} else {
		t.AcksSent++
	}
	t.sendFrame(pkt)
	t.segPool.Free()
	t.putSeg(s)
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

// buildAck constructs the acknowledgment segment the post stage prepared,
// into a recycled packet (ownership transfers to the fabric at nbiOut).
func (t *TOE) buildAck(conn *Conn, s *segItem) *packet.Packet {
	flags := packet.FlagACK
	if s.rx.AckECE {
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
		Seq: s.rx.AckSeq, Ack: s.rx.AckAck, Flags: flags,
		Window: s.rx.AckWin, WScale: -1,
	}
	// SACK blocks the protocol stage derived from the reassembly interval
	// set; the wire encoder fits 3 alongside timestamps, 4 otherwise.
	for i := uint8(0); i < s.rx.AckSACKCnt; i++ {
		pkt.TCP.AddSACK(packet.SACKBlock{Start: s.rx.AckSACK[i].Start, End: s.rx.AckSACK[i].End})
	}
	pkt.TCP.HasTimestamp = true
	pkt.TCP.TSVal = t.tsNow()
	pkt.TCP.TSEcr = s.rx.EchoTS
	pkt.SeedFlowHashes(conn.flowHash, conn.revHash)
	return pkt
}

// buildData constructs a data segment into a recycled packet, fetching
// real payload bytes from the host transmit buffer into the packet's
// slab-backed payload (the DMA the paper's TX pipeline performs).
func (t *TOE) buildData(conn *Conn, s *segItem) *packet.Packet {
	flags := packet.FlagACK | packet.FlagPSH
	if s.tx.FIN {
		flags |= packet.FlagFIN
		t.trace.Hit(trace.TPConnFinTx)
	}
	pkt := t.pkts.Get()
	payload := pkt.GrowPayload(int(s.tx.Len))
	conn.TxBuf.ReadAt(s.tx.BufPos, payload)
	pkt.Eth = packet.Ethernet{Src: t.iface.MAC, Dst: conn.Pre.PeerMAC, EtherType: packet.EtherTypeIPv4}
	pkt.IP = packet.IPv4{
		TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
		Src: conn.Pre.LocalIP, Dst: conn.Pre.PeerIP,
	}
	pkt.TCP = packet.TCP{
		SrcPort: conn.Pre.LocalPort, DstPort: conn.Pre.RemotePort,
		Seq: s.tx.Seq, Ack: s.tx.Ack, Flags: flags,
		Window: s.tx.Win, WScale: -1,
	}
	// Piggyback SACK blocks the protocol stage copied from the reassembly
	// interval set (Config.EnableSACK), so heavily bidirectional flows
	// learn about holes without waiting for a pure ACK.
	for i := uint8(0); i < s.tx.SACKCnt; i++ {
		pkt.TCP.AddSACK(packet.SACKBlock{Start: s.tx.SACK[i].Start, End: s.tx.SACK[i].End})
	}
	pkt.TCP.HasTimestamp = true
	pkt.TCP.TSVal = t.tsNow()
	pkt.TCP.TSEcr = s.tx.EchoTS
	pkt.SeedFlowHashes(conn.flowHash, conn.revHash)
	return pkt
}
