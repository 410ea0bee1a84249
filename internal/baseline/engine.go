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
	"flextoe/internal/tcpseg"
)

// Stack is one machine's baseline TCP stack instance.
type Stack struct {
	eng        *sim.Engine
	own        sim.Owner // the stack's timers and connect notifications
	prof       Profile
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

	// Per-engine pools: packets/frames come from this stack's engine
	// (packet.PoolOf/netsim.FramesOf), and segFree recycles segment work carriers per
	// stack.
	pkts    *packet.Pool
	frames  *netsim.FramePool
	segFree shm.Freelist[segWork]

	// Statistics.
	RxSegs, TxSegs   uint64
	Retransmits      uint64
	FastRetx         uint64
	SYNDrops         uint64 // SYNs silently dropped (no RST), all causes
	BacklogOverflows uint64 // SYN drops due to a full listen backlog
	PortSkips        uint64 // dial source ports passed over: their 4-tuple was live
	// Wire-level ground truth for flowmon's passive cross-validation,
	// mirroring the core.Counters fields of the same names. RetxSegs /
	// RetxBytes count at emitSegment against the sent high-water mark, so
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
		eng:       eng,
		prof:      prof,
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

// bconn is one baseline connection.
type bconn struct {
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
	rtoArmed bool
	halfOpen bool     // passive open awaiting its first post-handshake segment
	lingerAt sim.Time // fully-closed reclaim deadline; 0 = not yet scheduled

	// Sender (absolute stream offsets; seq = iss + uint32(offset)).
	iss      uint32
	una      uint64 // oldest unacked
	nxt      uint64 // next to send
	sentHigh uint64 // highest offset ever emitted (retransmit detection)
	appended uint64 // bytes the app has written
	// tx is the socket send buffer (bufSize); [una, appended) is live.
	tx       *shm.PayloadBuf
	finAt    uint64 // stream offset of FIN; ^0 = none
	finSent  bool
	finAcked bool

	cwnd         uint32
	ssthresh     uint32
	dupacks      int
	remoteWin    uint32
	lastProgress sim.Time
	srtt         sim.Time
	backoff      int

	// Receiver.
	irs     uint32
	rcvd    uint64 // in-order received (rcv.nxt offset)
	readPos uint64 // app read position
	// rx is the socket receive buffer (bufSize), live from readPos.
	rx      *shm.PayloadBuf
	rxAvail uint32
	// Out-of-order intervals (policy-capped), shared with the FlexTOE
	// protocol stage: stored as truncated 32-bit stream offsets, valid
	// because every interval lies within the (< 2^31) receive window of
	// rcvd.
	ivs     []tcpseg.SeqInterval
	peerFin bool
	// SACK advertisement rotation (RFC 2018): lastOOO is the truncated
	// stream offset of the most recently accepted out-of-order segment —
	// its interval leads every advertisement — and sackRot is the cursor
	// that cycles the older holes through the remaining wire slots on
	// consecutive ACKs.
	lastOOO uint32
	sackRot int

	// SACK scoreboard (RecoverySACK): peer-held ranges in sender sequence
	// space, fed by incoming SACK blocks — the same interval machinery
	// the FlexTOE protocol stage uses, so Linux's selective repeat and
	// the offloaded path share one implementation.
	sack []tcpseg.SeqInterval

	sock    *bsocket
	pumping bool
	txN     uint64 // segment size staged by txStep for bconnEmit
	// needWinUpdate: a Recv reopened a closed receive window; the charged
	// socket-call completion must re-advertise it.
	needWinUpdate bool

	// Handshake.
	active    bool // we sent the SYN
	synDone   bool
	sackOK    bool // SACK-permitted negotiated on SYN/SYN-ACK
	connected func(api.Socket)
}

func (c *bconn) sndSeq(off uint64) uint32 { return c.iss + uint32(off) }

// rcvOff unwraps a 32-bit sequence number to a stream offset near the
// current receive point. ok is false for a sequence from before the
// stream began — a stale segment far behind a young connection, whose
// offset would be negative; callers treat it as the old duplicate it is
// instead of leaning on a later window check to reject the wrapped value.
func (c *bconn) rcvOff(seq uint32) (off uint64, ok bool) {
	return unwrapOff(c.rcvd, seq-(c.irs+uint32(c.rcvd)))
}

// ackOff is rcvOff for the send side: an acknowledgment number unwrapped
// near the oldest unacknowledged byte.
func (c *bconn) ackOff(ack uint32) (off uint64, ok bool) {
	return unwrapOff(c.una, ack-(c.iss+uint32(c.una)))
}

// unwrapOff returns base plus the signed 32-bit distance rel, or ok =
// false when that lies before offset zero.
func unwrapOff(base uint64, rel uint32) (uint64, bool) {
	off := int64(base) + int64(int32(rel))
	return uint64(off), off >= 0
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

// segCost is the per-segment processing charge, including lock
// serialization, connection-count penalties, and scheduler spikes.
func (s *Stack) segCost(conns int) sim.Step {
	p := &s.prof
	cycles := p.DriverPerSeg + p.TCPPerSeg + p.OtherPerSeg
	if p.ConnPenalty > 0 && conns > 1 {
		cycles += int64(p.ConnPenalty * float64(bits.Len(uint(conns))-1))
	}
	var stall sim.Time
	if p.SpikeProb > 0 && s.rng.Bool(p.SpikeProb) {
		stall = sim.Time(s.rng.Exp(p.SpikeMeanUs) * float64(sim.Microsecond))
	}
	if p.ASIC {
		// Host only pays driver + glue; TCP ran on the ASIC.
		cycles = p.DriverPerSeg + p.OtherPerSeg
	}
	return sim.Step{Compute: cycles, Stall: stall}
}

// segWork carries one received segment through the cost model's deferred
// stages (lock, stack-core task) without a closure per segment. Pooled:
// segWorkHandle consumes and recycles the carrier before running the
// protocol logic.
type segWork struct {
	s    *Stack
	c    *bconn
	pkt  *packet.Packet
	core *host.Core
	step sim.Step
}

func (s *Stack) getSegWork() *segWork {
	if w := s.segFree.Get(); w != nil {
		return w
	}
	return &segWork{}
}

// segWorkSubmit runs when the kernel lock is acquired: queue the segment
// task on its stack core.
func segWorkSubmit(a any) {
	w := a.(*segWork)
	w.core.SubmitStepCall(w.step, segWorkHandle, w)
}

// segWorkHandle runs when the segment's processing cost has been paid.
func segWorkHandle(a any) {
	w := a.(*segWork)
	s, c, pkt := w.s, w.c, w.pkt
	*w = segWork{}
	s.segFree.Put(w)
	s.handleSeg(c, pkt)
}

// rx is the NIC receive path. The frame returns to the fabric pool here;
// the packet is consumed (and recycled) at the end of handleSeg.
func (s *Stack) rx(f *netsim.Frame) {
	pkt := f.Pkt
	netsim.ReleaseFrame(f)
	flow := pkt.Flow().Reverse()
	c := s.lookup(flow, pkt.RevFlowHash())
	if c == nil {
		// handshake consumes the segment synchronously (it never retains
		// the packet), so its journey ends here on every branch.
		s.handshake(pkt, flow)
		packet.Release(pkt)
		return
	}
	if !c.synDone {
		if s.connHandshakeRx(c, pkt) {
			packet.Release(pkt)
			return
		}
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
	w := s.getSegWork()
	w.s, w.c, w.pkt = s, c, pkt
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

// handleSeg runs the protocol logic (after the cost model).
func (s *Stack) handleSeg(c *bconn, pkt *packet.Packet) {
	if !c.live {
		// The connection was reclaimed while this segment's processing
		// cost was still queued behind the lock or a busy core.
		packet.Release(pkt)
		return
	}
	tcp := &pkt.TCP

	// --- ACK processing (sender side). ---------------------------------
	if tcp.HasFlag(packet.FlagACK) {
		s.ingestSACK(c, tcp)
		ackOff, ackOK := c.ackOff(tcp.Ack)
		finAckOff := c.finAt
		if finAckOff != ^uint64(0) {
			finAckOff++ // FIN occupies one sequence slot
		}
		switch {
		case !ackOK:
			// Acknowledges nothing this stream ever sent: ignored, like
			// any other ACK below una.
		case ackOff > c.una && ackOff <= c.appended+1:
			acked := ackOff - c.una
			if c.finAt != ^uint64(0) && ackOff == finAckOff {
				c.finAcked = true
				acked--
			}
			c.una += acked
			c.tx.Release(uint32(acked))
			if c.nxt < c.una {
				// A go-back-N rewind raced with an ACK for data the peer
				// had already buffered: SND.NXT = max(SND.NXT, SND.UNA).
				c.nxt = c.una
			}
			c.trimSACK()
			c.dupacks = 0
			c.lastProgress = s.eng.Now()
			c.backoff = 0
			// New Reno growth.
			if c.cwnd < c.ssthresh {
				c.cwnd += uint32(acked) // slow start
			} else if c.cwnd > 0 {
				c.cwnd += uint32(uint64(1448) * acked / uint64(c.cwnd))
			}
			if tcp.HasFlag(packet.FlagECE) {
				c.halveCwnd()
			}
			if c.sock != nil && acked > 0 {
				c.sock.txFreed(uint32(acked))
			}
		case ackOff == c.una && len(pkt.Payload) == 0 && c.nxt > c.una:
			s.DupAcks++
			c.dupacks++
			if c.dupacks == 3 {
				s.FastRetx++
				c.halveCwnd()
				switch s.prof.Recovery {
				case RecoverySACK:
					// Selective repeat from the scoreboard; without any
					// reported blocks, retransmit the missing head
					// segment.
					if !s.sackRetransmit(c) {
						s.emitSegment(c, c.una, c.retxLen(), false)
					}
				case RecoveryGBN:
					c.nxt = c.una // go-back-N
				case RecoveryDiscard:
					// Timeout-only recovery: dup acks ignored.
				}
			}
		}
		if w := uint32(tcp.Window) << tcpseg.WindowScale; w != c.remoteWin {
			c.remoteWin = w
		}
	}

	// --- Payload (receiver side). ---------------------------------------
	if len(pkt.Payload) > 0 {
		s.receivePayload(c, pkt)
	}

	// --- FIN. ------------------------------------------------------------
	if tcp.HasFlag(packet.FlagFIN) {
		off, ok := c.rcvOff(tcp.Seq)
		if ok && off+uint64(len(pkt.Payload)) == c.rcvd && !c.peerFin {
			c.peerFin = true
			s.sendAck(c, false)
			if c.sock != nil {
				c.sock.peerClosed()
			}
		}
	}

	s.txPump(c)
	s.maybeArmTimer(c)
	// The segment is fully consumed (payload copied, SACK ingested).
	packet.Release(pkt)
}

// receivePayload implements the three reassembly policies.
func (s *Stack) receivePayload(c *bconn, pkt *packet.Packet) {
	ece := pkt.IP.ECN() == packet.ECNCE
	start, ok := c.rcvOff(pkt.TCP.Seq)
	if !ok {
		// From before the stream began: a stale duplicate, acknowledged
		// like one that ends at or below rcvd.
		s.sendAck(c, ece)
		return
	}
	end := start + uint64(len(pkt.Payload))
	winEnd := c.rcvd + uint64(c.rxAvail)

	// Trim to window and already-received prefix.
	data := pkt.Payload
	if start < c.rcvd {
		if end <= c.rcvd {
			s.sendAck(c, ece)
			return
		}
		data = data[c.rcvd-start:]
		start = c.rcvd
	}
	if end > winEnd {
		if start >= winEnd {
			s.sendAck(c, ece)
			return
		}
		data = data[:winEnd-start]
		end = winEnd
	}

	maxIvs := s.prof.oooIvs()
	if len(data) == len(pkt.Payload) {
		pkt.CheckPayloadView()
	}

	if start == c.rcvd {
		// In order: write, merge intervals, deliver.
		c.rx.WriteAt(uint32(start), data)
		before := c.rcvd
		ivs, ack32, _ := tcpseg.MergeAdvance(c.ivs, uint32(end))
		c.ivs = ivs
		c.rcvd = before + uint64(ack32-uint32(before))
		newBytes := uint32(c.rcvd - before)
		c.rxAvail -= newBytes
		if c.sock != nil {
			c.sock.rxArrived(newBytes)
		}
	} else if maxIvs > 0 {
		// Out of order: insert into the interval set (capacity-limited).
		var ir tcpseg.IvResult
		c.ivs, ir = tcpseg.InsertSeqInterval(c.ivs,
			tcpseg.SeqInterval{Start: uint32(start), End: uint32(end)}, maxIvs)
		if ir.Accepted {
			s.OOOAccepted++
			c.rx.WriteAt(uint32(start), data)
			c.lastOOO = uint32(start)
		} else {
			s.OOODropped++
		}
	} else {
		// RecoveryDiscard: out-of-order data silently dropped.
		s.OOODropped++
	}
	s.sendAck(c, ece)
}

// ingestSACK merges incoming SACK blocks into the sender scoreboard
// (RecoverySACK only), clamped to [SND.UNA, SND.NXT).
func (s *Stack) ingestSACK(c *bconn, tcp *packet.TCP) {
	if s.prof.Recovery != RecoverySACK || tcp.NumSACK == 0 {
		return
	}
	una32 := c.sndSeq(c.una)
	nxt32 := c.sndSeq(c.nxt)
	for i := uint8(0); i < tcp.NumSACK; i++ {
		b := tcp.SACKBlocks[i]
		if tcpseg.SeqLT(b.Start, una32) {
			b.Start = una32
		}
		if tcpseg.SeqGT(b.End, nxt32) {
			b.End = nxt32
		}
		if tcpseg.SeqGEQ(b.Start, b.End) {
			continue
		}
		c.sack, _ = tcpseg.InsertSeqInterval(c.sack,
			tcpseg.SeqInterval{Start: b.Start, End: b.End}, s.prof.oooIvs())
	}
}

// trimSACK discards scoreboard coverage below the cumulative ack.
func (c *bconn) trimSACK() {
	if len(c.sack) == 0 {
		return
	}
	una32 := c.sndSeq(c.una)
	ivs := c.sack
	for len(ivs) > 0 && tcpseg.SeqLEQ(ivs[0].End, una32) {
		ivs = ivs[1:]
	}
	if len(ivs) > 0 && tcpseg.SeqLT(ivs[0].Start, una32) {
		ivs[0].Start = una32
	}
	c.sack = ivs
}

// sackRetransmit re-sends only the holes below the highest SACKed
// sequence, in MSS chunks, bounded by one (post-halving) congestion
// window per recovery event — RFC 6675's pipe limit, and the analogue of
// the FlexTOE path draining its retransmit queue under the flow
// scheduler rather than bursting. Returns false when the scoreboard is
// empty.
func (s *Stack) sackRetransmit(c *bconn) bool {
	if len(c.sack) == 0 {
		return false
	}
	budget := uint64(c.cwnd)
	if budget < 2*mss {
		budget = 2 * mss
	}
	una32 := c.sndSeq(c.una)
	high := c.sack[len(c.sack)-1].End
	if tcpseg.SeqGT(high, c.sndSeq(c.nxt)) {
		high = c.sndSeq(c.nxt)
	}
	prev := una32
	sent := false
	for i := 0; i <= len(c.sack) && tcpseg.SeqLT(prev, high) && budget > 0; i++ {
		edge := high
		if i < len(c.sack) {
			edge = tcpseg.SeqMin(c.sack[i].Start, high)
		}
		for tcpseg.SeqLT(prev, edge) && budget > 0 {
			n := uint64(uint32(tcpseg.SeqDiff(edge, prev)))
			n = min(n, mss, budget)
			off := c.una + uint64(uint32(tcpseg.SeqDiff(prev, una32)))
			s.emitSegment(c, off, n, false)
			prev += uint32(n)
			budget -= n
			sent = true
		}
		if i < len(c.sack) && tcpseg.SeqGT(c.sack[i].End, prev) {
			prev = c.sack[i].End
		}
	}
	return sent
}

func (c *bconn) halveCwnd() {
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2*1448 {
		c.ssthresh = 2 * 1448
	}
	c.cwnd = c.ssthresh
}

// sendAck emits a pure acknowledgment. The SACK personality advertises
// its out-of-order interval set when SACK-permitted was negotiated on the
// handshake, following RFC 2018's ordering rules: the first block is the
// interval containing the most recently received segment, and the
// remaining wire slots rotate through the older holes on consecutive
// ACKs (cursor advanced per advertisement) — so a peer whose scoreboard
// holds fewer intervals than this receiver tracks (the FlexTOE sender's
// 4 against Linux's 32, Fig. 15e) still learns every hole within a few
// ACKs instead of only ever seeing the lowest-sequence ones.
func (s *Stack) sendAck(c *bconn, ece bool) {
	flags := packet.FlagACK
	if ece {
		flags |= packet.FlagECE
	}
	win := c.rxAvail >> tcpseg.WindowScale
	if win > 0xffff {
		win = 0xffff
	}
	ackSeq := c.sndSeq(c.nxt)
	pkt := s.mkPacket(c, ackSeq, flags)
	pkt.TCP.Window = uint16(win)
	if c.sackOK {
		c.appendSACK(&pkt.TCP)
	}
	s.iface.Send(s.frames.NewFrame(pkt, s.eng.Now()))
}

// appendSACK fills the wire SACK blocks from the reassembly interval set.
// Intervals hold truncated stream offsets; wire sequence = IRS + offset.
func (c *bconn) appendSACK(tcp *packet.TCP) {
	if len(c.ivs) == 0 {
		return
	}
	// First block: the interval holding the most recent arrival.
	first := 0
	for i, iv := range c.ivs {
		if !tcpseg.SeqLT(c.lastOOO, iv.Start) && tcpseg.SeqLT(c.lastOOO, iv.End) {
			first = i
			break
		}
	}
	tcp.AddSACK(packet.SACKBlock{Start: c.irs + c.ivs[first].Start, End: c.irs + c.ivs[first].End})
	// Remaining slots: rotate the other holes, the cursor advancing per
	// advertisement so every hole reaches the wire within
	// ceil(k / (MaxSACKBlocks-1)) consecutive ACKs.
	if k := len(c.ivs) - 1; k > 0 {
		emit := packet.MaxSACKBlocks - 1
		if emit > k {
			emit = k
		}
		for j := 0; j < emit; j++ {
			// first+1 .. first+k (mod len) are exactly the other
			// intervals; distinct r < k keeps the blocks distinct.
			iv := c.ivs[(first+1+(c.sackRot+j)%k)%len(c.ivs)]
			tcp.AddSACK(packet.SACKBlock{Start: c.irs + iv.Start, End: c.irs + iv.End})
		}
		c.sackRot += emit
	}
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
		Seq: seq, Ack: c.ackField(), Flags: flags,
		Window: uint16(min(c.rxAvail>>tcpseg.WindowScale, 0xffff)),
		WScale: -1,
	}
	pkt.SeedFlowHashes(c.flowHash, c.revHash)
	return pkt
}

// ackField returns the cumulative acknowledgment (FIN occupies a slot).
func (c *bconn) ackField() uint32 {
	ack := c.irs + uint32(c.rcvd)
	if c.peerFin {
		ack++
	}
	return ack
}

// txPump transmits while the window allows, gating each segment on its
// processing cost so the stack core (or the Chelsio ASIC) bounds the
// transmit rate.
func (s *Stack) txPump(c *bconn) {
	if c.pumping {
		return
	}
	c.pumping = true
	s.txStep(c)
}

// txStep sizes the next segment and charges its transmit cost; bconnEmit
// sends it when the cost has been paid and loops back here. The pumping
// flag serializes the loop per connection, so the pending segment size
// lives on the bconn (txN) instead of a closure.
func (s *Stack) txStep(c *bconn) {
	inflight := c.nxt - c.una
	limit := uint64(c.cwnd)
	if uint64(c.remoteWin) < limit {
		limit = uint64(c.remoteWin)
	}
	avail := c.appended - c.nxt
	wantFin := c.finAt != ^uint64(0) && !c.finSent && c.nxt == c.appended
	if (avail == 0 || inflight >= limit) && !wantFin {
		c.pumping = false
		return
	}
	n := min(mss, avail)
	if inflight < limit && n > limit-inflight {
		n = limit - inflight
	}
	if n == 0 && !wantFin {
		c.pumping = false
		return
	}
	c.txN = n
	if s.prof.ASIC {
		s.asic.AcquireCall(1, 0, bconnEmit, c)
		return
	}
	txCost := (s.prof.DriverPerSeg + s.prof.TCPPerSeg + s.prof.OtherPerSeg) / 2
	c.stackCore.SubmitStepCall(sim.Step{Compute: txCost}, bconnEmit, c)
}

// bconnEmit transmits the segment txStep sized, then continues the pump.
func bconnEmit(a any) {
	c := a.(*bconn)
	s := c.stack
	if !c.live {
		c.pumping = false
		return
	}
	n := c.txN
	off := c.nxt
	fin := c.finAt != ^uint64(0) && off+n == c.appended
	s.emitSegment(c, off, n, fin)
	c.nxt += n
	s.maybeArmTimer(c)
	s.txStep(c)
}

// emitSegment sends [off, off+n) (and possibly FIN).
func (s *Stack) emitSegment(c *bconn, off, n uint64, fin bool) {
	flags := packet.FlagACK
	if n > 0 {
		flags |= packet.FlagPSH
	}
	if fin && c.finAt != ^uint64(0) {
		flags |= packet.FlagFIN
		c.finSent = true
	}
	pkt := s.mkPacket(c, c.sndSeq(off), flags)
	// The payload is the socket buffer's committed bytes in place; only a
	// window straddling the ring's end is copied.
	if v, ok := c.tx.View(uint32(off), uint32(n)); ok {
		pkt.SetPayloadView(v)
	} else {
		c.tx.ReadAt(uint32(off), pkt.GrowPayload(int(n)))
	}
	s.TxSegs++
	// Sent high-water mark: any payload byte below it has been on the
	// wire before — the m-lab SendNext retransmit criterion, and the
	// definition flowmon's sender-side inference must reproduce.
	if off < c.sentHigh && n > 0 {
		r := c.sentHigh - off
		if r > n {
			r = n
		}
		s.RetxSegs++
		s.RetxBytes += r
	}
	if off+n > c.sentHigh {
		c.sentHigh = off + n
	}
	s.iface.Send(s.frames.NewFrame(pkt, s.eng.Now()))
}

// retxLen bounds a head retransmission to one MSS of sent data.
func (c *bconn) retxLen() uint64 {
	n := mss
	if c.una+n > c.nxt {
		n = c.nxt - c.una
	}
	return n
}

// --- Connection table and per-connection timers. ------------------------
//
// The retransmission timer used to be a 500 µs full scan over every
// connection — O(total) work per tick, which at 10^5+ mostly-idle
// connections dwarfs the actual protocol work. Each connection now arms at
// most one pooled carrier on the engine's timing wheel, only while it has
// bytes (or an unacknowledged FIN) outstanding; fully-closed connections
// ride the same carrier through a linger period and are then reclaimed.

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

// ConnTableBytes reports the connection-table footprint: the slot array,
// the flow-hash index, and the free-slot ring (not the bconn payload
// buffers, which are an application sizing choice).
func (s *Stack) ConnTableBytes() int {
	return len(s.slots)*8 + s.flowIdx.MemBytes() + cap(s.free)*4
}

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

// timerOutstanding reports whether the retransmission timer has work:
// unacked bytes in flight, or a sent-but-unacked FIN.
func (c *bconn) timerOutstanding() bool {
	return c.nxt > c.una || (c.finAt != ^uint64(0) && c.finSent && !c.finAcked)
}

// rto returns the current backed-off retransmission timeout.
func (c *bconn) rto() sim.Time {
	rto := c.stack.prof.MinRTO << uint(c.backoff)
	if c.srtt > 0 && 4*c.srtt > c.stack.prof.MinRTO {
		rto = (4 * c.srtt) << uint(c.backoff)
	}
	return rto
}

// maybeArmTimer arms the connection's timer if it needs service and has
// none armed. Called at the transmit and receive kick points; the
// rtoArmed flag dedupes so an armed connection costs nothing here.
func (s *Stack) maybeArmTimer(c *bconn) {
	if c.rtoArmed || !c.live {
		return
	}
	var delay sim.Time
	switch {
	case c.timerOutstanding():
		if d := c.lastProgress + c.rto() - s.eng.Now(); d > 0 {
			delay = d
		}
	case c.finAcked && c.peerFin:
		// Fully closed: schedule the linger-and-reclaim pass.
		if c.lingerAt == 0 {
			c.lingerAt = s.eng.Now() + 4*s.prof.MinRTO
		}
		delay = c.lingerAt - s.eng.Now()
	default:
		return
	}
	c.rtoArmed = true
	s.own.AfterCall(delay, btimerFire, c)
}

// btimerFire services one connection's timer: retransmit on RTO expiry and
// re-arm while work remains; reclaim fully-closed connections after the
// linger period; otherwise disarm (lazy cancellation — state changes
// never chase an in-flight timer). The connection is its own timer
// carrier: rtoArmed keeps at most one event in flight per connection, so
// timer cost scales with active connections, not with the table size.
func btimerFire(a any) {
	c := a.(*bconn)
	s := c.stack
	if !c.live {
		return
	}
	now := s.eng.Now()
	switch {
	case c.timerOutstanding():
		c.lingerAt = 0
		rto := c.rto()
		if now-c.lastProgress >= rto {
			s.Retransmits++
			c.lastProgress = now
			if c.backoff < 6 {
				c.backoff++
			}
			c.ssthresh = c.cwnd / 2
			if c.ssthresh < 2*1448 {
				c.ssthresh = 2 * 1448
			}
			c.cwnd = 2 * 1448
			switch s.prof.Recovery {
			case RecoverySACK:
				// RFC 2018 reneging rule: a timeout must not trust the
				// scoreboard; restart from the head.
				c.sack = c.sack[:0]
				s.emitSegment(c, c.una, c.retxLen(), false)
			default:
				c.nxt = c.una
				c.finSent = false
				s.txPump(c)
			}
			rto = c.rto()
		}
		s.own.AfterCall(c.lastProgress+rto-now, btimerFire, c)
	case c.finAcked && c.peerFin:
		if c.lingerAt == 0 {
			c.lingerAt = now + 4*s.prof.MinRTO
		}
		if now >= c.lingerAt {
			c.rtoArmed = false
			s.removeConn(c)
			return
		}
		s.own.AfterCall(c.lingerAt-now, btimerFire, c)
	default:
		c.rtoArmed = false
	}
}
