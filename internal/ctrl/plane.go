// Package ctrl implements FlexTOE's control plane (§3, §D): connection
// control (the TCP handshake state machine, port and buffer allocation,
// data-path state installation), retransmission timeouts, and the
// congestion-control framework with DCTCP and TIMELY policies.
//
// The control plane executes on a host core (or SmartNIC control CPU) in
// its own protection domain. It touches the data-path only through the
// narrow MMIO/queue interface core.TOE exposes: AddConnection,
// InjectHC(retransmit), SetCongestionWindow / SetRateInterval, ReadStats,
// and HasFlow, the dial port allocator's probe.
//
// Timer architecture (doc.go "Connection state budget"): there is no
// periodic full-table scan, and no list of connections to scan — Plane
// keeps a live count (NumTracked). Each connection's RTO/persist/teardown
// deadline and its congestion-control poll are individual timing-wheel
// events carried by pooled connTimer objects, armed when the data-path
// reports the connection may need timer service (core.TOE.TimerKick) and
// disarmed when it goes idle. Timer cost therefore scales with *active*
// connections; a million idle flows schedule nothing.
package ctrl

import (
	"fmt"

	"flextoe/internal/core"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/tcpseg"
)

// CCAlgo selects the congestion-control policy.
type CCAlgo int

const (
	// CCNone disables congestion control (Table 4's "off" rows).
	CCNone CCAlgo = iota
	// CCDCTCP is the default policy (§5 "DCTCP is our default").
	CCDCTCP
	// CCTimely is the RTT-gradient policy (§D).
	CCTimely
)

// Config parameterizes the control plane.
type Config struct {
	LocalIP  packet.IPv4Addr
	LocalMAC packet.EtherAddr
	BufSize  uint32 // per-socket payload buffer size (power of two)

	CC CCAlgo

	// ListenBacklog bounds half-open (SYN-received) connections per
	// listener; SYNs beyond it are dropped silently, as a SYN-flooded
	// host would (no RST — the legitimate peer retries, the flood
	// doesn't get an amplifier). 0 = 128.
	ListenBacklog int
	// AcceptRate, when > 0, limits accepted SYNs per second per
	// listener (token bucket, burst 1): connection-setup admission
	// control for the storm experiments.
	AcceptRate float64

	Seed uint64
}

// Control-plane parameters: constants, because every figure, spec and
// workload runs with these values. The congestion-window ceiling is
// Config.BufSize (a sender never has more than one buffer in flight).
const (
	ccInterval  = 100 * sim.Microsecond // per-connection CC poll period while active
	minRTO      = 2 * sim.Millisecond
	dctcpGainG  = 1.0 / 16  // alpha EWMA gain
	initialCWnd = 10 * 1448 // bytes
	// handshakeTimeout expires half-open connections (both passive
	// SYN-received and active SYN-sent) so floods and lost handshakes
	// don't pin state forever.
	handshakeTimeout = 50 * sim.Millisecond
)

// Plane is one machine's control plane.
type Plane struct {
	eng *sim.Engine
	own sim.Owner // timers, handshake expiry, connect notifications
	toe *core.TOE
	cfg Config
	rng *stats.RNG

	listeners map[uint16]*listener
	pending   map[packet.Flow]*pendingConn

	// ccs is the dense per-slot control state, indexed by the data-path
	// connection id (core reuses slot ids, so this array never leaks);
	// tracked counts its live entries.
	ccs     []ccState
	tracked int

	// timerFree recycles connTimer carriers (pooled per plane;
	// steady-state timer arming is allocation-free).
	timerFree shm.Freelist[connTimer]

	nextPort uint16

	// Adaptive OOOCap controller state (core.Config.AdaptiveOOO).
	oooCap  uint8
	oooPrev [tcpseg.MaxOOOIntervals + 1]uint64

	// Statistics.
	Established      uint64
	Timeouts         uint64
	ZeroWindowProbes uint64
	SYNDrops         uint64 // SYNs dropped by backlog or accept-rate limits
	BacklogOverflows uint64 // SYNs dropped: listener backlog full
	AcceptRateDrops  uint64 // SYNs dropped: accept-rate token bucket empty
	HandshakeExpires uint64 // half-open connections reaped by timeout
	PortSkips        uint64 // dial source ports passed over: their 4-tuple was live
}

// Conn is the control plane's view of an established connection, handed
// to accept/connect callbacks (libTOE wraps it into a Socket).
type Conn struct {
	ID    uint32
	Core  *core.Conn
	Flow  packet.Flow
	TxBuf *shm.PayloadBuf
	RxBuf *shm.PayloadBuf
}

// listener is one bound port: the accept callback plus half-open
// accounting for the backlog and accept-rate limits.
type listener struct {
	accept   func(*Conn)
	pendingN int      // half-open connections charged to this listener
	tokens   float64  // accept-rate bucket (capacity 1)
	lastFill sim.Time // last token refill
}

// pendingConn is a half-open connection. It doubles as its own
// handshake-timeout timer carrier: the expiry event fires with the
// pendingConn as argument and checks it is still the registered entry.
type pendingConn struct {
	p         *Plane
	lis       *listener // passive opens: the charged listener
	flow      packet.Flow
	peerMAC   packet.EtherAddr
	iss, irs  uint32
	active    bool // we sent the SYN
	sackOK    bool // both sides agreed on SACK-permitted
	connected func(*Conn)
}

// ccState is the per-connection control state. Slots are reused with the
// data-path connection slab; epoch invalidates timer carriers armed for
// a previous occupant of the slot.
type ccState struct {
	epoch    uint32
	live     bool
	rtoArmed bool // an RTO/persist/teardown timer carrier is in flight
	ccArmed  bool // a CC poll carrier is in flight
	ccIdle   int  // consecutive CC polls with no activity

	cwnd      uint32
	alpha     float64 // DCTCP
	rate      float64 // TIMELY bytes/s
	prevRTT   uint32
	lastAcked sim.Time // last observed forward progress
	srtt      sim.Time
	rto       sim.Time
	backoff   int

	// Persist timer (zero-window probing, RFC 9293 §3.8.6.1).
	persistAt      sim.Time // next probe deadline (0 = timer off)
	persistBackoff int

	// lingerAt is the teardown deadline after full close (0 = not
	// lingering); when it passes, the slot is reclaimed.
	lingerAt sim.Time

	// seenUna is SND.UNA at the last timer fire, so the timer itself
	// detects forward progress. Without this, a run with congestion
	// control off (no CC poll) never refreshes lastAcked and the RTO
	// fires spuriously every interval of a long transfer,
	// go-back-N-resending data that was never lost.
	seenUna uint32
}

// Timer kinds.
const (
	timerRTO uint8 = iota // RTO + persist + teardown lifecycle
	timerCC               // congestion-control poll
)

// ccIdleLimit disarms the CC poll after this many consecutive quiet
// polls (the connection went idle; the next data-path kick re-arms).
const ccIdleLimit = 8

// The adaptive-OOOCap controller's interval, and the total number of
// reassembly intervals the fleet may hold; the controller divides the
// budget by the live connection count to derive the per-connection cap.
const (
	oooAdaptPeriod = 10 * sim.Millisecond
	oooStateBudget = 1 << 14
)

// connTimer carries one armed per-connection timer through the timing
// wheel (pooled; see Plane.getTimer). kind selects the handler; epoch
// guards against slot reuse between arming and firing.
type connTimer struct {
	p     *Plane
	id    uint32
	epoch uint32
	kind  uint8
}

// New attaches a control plane to a data-path.
func New(eng *sim.Engine, toe *core.TOE, cfg Config) *Plane {
	if cfg.BufSize == 0 {
		cfg.BufSize = 65536
	}
	if cfg.ListenBacklog == 0 {
		cfg.ListenBacklog = 128
	}
	p := &Plane{
		eng:       eng,
		own:       eng.NewOwner(),
		toe:       toe,
		cfg:       cfg,
		rng:       stats.NewRNG(cfg.Seed ^ uint64(cfg.LocalIP)),
		listeners: make(map[uint16]*listener),
		pending:   make(map[packet.Flow]*pendingConn),
		nextPort:  20000,
	}
	eng.Lends(cfg.LocalIP.String()+" timers", &p.timerFree)
	toe.ControlRx = p.handleSegment
	toe.TimerKick = p.timerKick
	if tc := toe.Config(); tc.AdaptiveOOO {
		p.oooCap = uint8(tc.OOOIntervals)
		if p.oooCap == 0 {
			p.oooCap = 1
		}
		p.own.EveryCall(oooAdaptPeriod, oooAdaptPeriod, planeAdaptOOO, p)
	}
	return p
}

// planeAdaptOOO adapts the controller to the EveryCall form.
func planeAdaptOOO(a any) bool { a.(*Plane).adaptOOO(); return true }

// Listen registers an accept callback for a port.
func (p *Plane) Listen(port uint16, accept func(*Conn)) {
	p.listeners[port] = &listener{accept: accept, tokens: 1}
}

// sackEnabled reports whether the data-path is configured to negotiate
// SACK on new connections.
func (p *Plane) sackEnabled() bool { return p.toe.Config().EnableSACK }

// Dial initiates a connection to a remote endpoint. If the peer drops
// our SYN (backlog overflow, rate limit, loss), the half-open state
// expires after handshakeTimeout and the connected callback never fires.
func (p *Plane) Dial(remoteIP packet.IPv4Addr, remoteMAC packet.EtherAddr, remotePort uint16, connected func(*Conn)) {
	flow := p.ephemeral(packet.Flow{SrcIP: p.cfg.LocalIP, DstIP: remoteIP, DstPort: remotePort})
	iss := uint32(p.rng.Uint64())
	pc := &pendingConn{p: p, flow: flow, peerMAC: remoteMAC, iss: iss, active: true, connected: connected}
	p.addPending(pc)
	p.sendControl(flow, remoteMAC, packet.FlagSYN, iss, 0, p.sackEnabled())
}

// ephemeral gives flow the next source port whose 4-tuple is not live —
// neither installed in the data path (one flow-index probe) nor half-open —
// and counts the ports it passes over. The counter wraps past 65 535 and
// never hands out port 0.
func (p *Plane) ephemeral(flow packet.Flow) packet.Flow {
	for range 1 << 16 {
		p.nextPort++
		if p.nextPort == 0 {
			continue
		}
		flow.SrcPort = p.nextPort
		if !p.toe.HasFlow(flow) && p.pending[flow] == nil {
			return flow
		}
		p.PortSkips++
	}
	panic(fmt.Sprintf("ctrl: every source port toward %v:%d is in use", flow.DstIP, flow.DstPort))
}

// addPending registers a half-open connection and schedules its expiry.
func (p *Plane) addPending(pc *pendingConn) {
	p.pending[pc.flow] = pc
	if pc.lis != nil {
		pc.lis.pendingN++
	}
	p.own.AfterCall(handshakeTimeout, pendingExpire, pc)
}

// dropPending unregisters a half-open connection (completed, reset, or
// expired) and uncharges its listener.
func (p *Plane) dropPending(pc *pendingConn) {
	delete(p.pending, pc.flow)
	if pc.lis != nil {
		pc.lis.pendingN--
	}
}

// pendingExpire reaps a half-open connection whose handshake never
// completed. The pendingConn is its own timer carrier; a stale fire
// (handshake completed, flow re-dialed) finds a different registration
// and does nothing.
func pendingExpire(a any) {
	pc := a.(*pendingConn)
	p := pc.p
	if p.pending[pc.flow] != pc {
		return
	}
	p.dropPending(pc)
	p.HandshakeExpires++
}

// takeToken runs the listener's accept-rate token bucket (capacity 1:
// SYNs are admitted at most every 1/rate seconds).
func (l *listener) takeToken(now sim.Time, rate float64) bool {
	l.tokens += (now - l.lastFill).Seconds() * rate
	l.lastFill = now
	if l.tokens > 1 {
		l.tokens = 1
	}
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// sendControl emits a handshake segment directly (the control plane's own
// transmit path; these bypass the offloaded data-path by design).
// sackPerm offers/confirms SACK-permitted; only meaningful on SYNs.
func (p *Plane) sendControl(flow packet.Flow, peerMAC packet.EtherAddr, flags uint8, seq, ack uint32, sackPerm bool) {
	pkt := &packet.Packet{
		Eth: packet.Ethernet{Src: p.cfg.LocalMAC, Dst: peerMAC, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
			Src: flow.SrcIP, Dst: flow.DstIP,
		},
		TCP: packet.TCP{
			SrcPort: flow.SrcPort, DstPort: flow.DstPort,
			Seq: seq, Ack: ack, Flags: flags,
			Window: uint16(p.cfg.BufSize >> tcpseg.WindowScale),
			MSS:    1448, WScale: tcpseg.WindowScale, SACKPerm: sackPerm,
		},
	}
	p.toe.SendControlFrame(pkt)
}

// handleSegment receives segments the data-path filtered to the control
// plane: SYN/SYN-ACK/RST and segments of unknown flows.
func (p *Plane) handleSegment(pkt *packet.Packet) {
	flow := pkt.Flow().Reverse() // local view
	tcp := &pkt.TCP
	switch {
	case tcp.HasFlag(packet.FlagSYN | packet.FlagACK):
		pc, ok := p.pending[flow]
		if !ok || !pc.active {
			return
		}
		pc.irs = tcp.Seq + 1
		// The peer echoes SACK-permitted only if it accepts our offer.
		pc.sackOK = tcp.SACKPerm && p.sackEnabled()
		// Complete the handshake.
		p.sendControl(flow, pc.peerMAC, packet.FlagACK, pc.iss+1, pc.irs, false)
		p.establish(pc, tcp.Window)
	case tcp.HasFlag(packet.FlagSYN):
		lis, ok := p.listeners[pkt.TCP.DstPort]
		if !ok {
			p.sendControl(flow, pkt.Eth.Src, packet.FlagRST, 0, tcp.Seq+1, false)
			return
		}
		if pc, dup := p.pending[flow]; dup {
			// SYN retransmit for an existing half-open: re-answer, don't
			// double-charge the backlog.
			if !pc.active {
				p.sendControl(flow, pc.peerMAC, packet.FlagSYN|packet.FlagACK, pc.iss, pc.irs, pc.sackOK)
			}
			return
		}
		// Listen-path hardening: a flooded backlog or an exhausted
		// accept-rate bucket drops the SYN silently — no RST, no state.
		if lis.pendingN >= p.cfg.ListenBacklog {
			p.SYNDrops++
			p.BacklogOverflows++
			return
		}
		if p.cfg.AcceptRate > 0 && !lis.takeToken(p.eng.Now(), p.cfg.AcceptRate) {
			p.SYNDrops++
			p.AcceptRateDrops++
			return
		}
		iss := uint32(p.rng.Uint64())
		pc := &pendingConn{
			p: p, lis: lis,
			flow: flow, peerMAC: pkt.Eth.Src,
			iss: iss, irs: tcp.Seq + 1,
			sackOK:    tcp.SACKPerm && p.sackEnabled(),
			connected: lis.acceptCb(),
		}
		p.addPending(pc)
		p.sendControl(flow, pc.peerMAC, packet.FlagSYN|packet.FlagACK, iss, pc.irs, pc.sackOK)
	case tcp.HasFlag(packet.FlagACK):
		// Final handshake ACK for a passive open.
		if pc, ok := p.pending[flow]; ok && !pc.active {
			p.establish(pc, tcp.Window)
		}
		// Anything else (stale data for removed connections) is dropped.
	case tcp.HasFlag(packet.FlagRST):
		if pc, ok := p.pending[flow]; ok {
			p.dropPending(pc)
		}
	}
}

// acceptCb returns the listener's accept callback (half-opens hold the
// callback, not the listener, so accept replacement is race-free).
func (l *listener) acceptCb() func(*Conn) { return l.accept }

// establish installs the connection in the data-path and fires the
// callback (§D: "allocates host payload buffers and a unique connection
// index for the data-path ... then sets up connection state at the index
// location").
func (p *Plane) establish(pc *pendingConn, peerWin uint16) {
	p.dropPending(pc)
	txBuf := shm.NewPayloadBuf(p.cfg.BufSize)
	rxBuf := shm.NewPayloadBuf(p.cfg.BufSize)
	conn := p.install(pc.flow, pc.peerMAC, pc.iss+1, pc.irs, txBuf, rxBuf, peerWin, pc.sackOK)
	if pc.connected != nil {
		p.own.ImmediatelyCall(func(any) { pc.connected(conn) }, nil)
	}
}

// install wires a connection into the data-path slab and the control
// plane's dense state, reusing the slot id core assigned.
func (p *Plane) install(flow packet.Flow, peerMAC packet.EtherAddr, iss, irs uint32,
	txBuf, rxBuf *shm.PayloadBuf, peerWin uint16, sackOK bool) *Conn {

	c := p.toe.AddConnection(flow, peerMAC, iss, irs, txBuf, rxBuf, 0, nil)
	if peerWin != 0 {
		c.Proto.RemoteWin = peerWin
	}
	c.Proto.SetSACKPerm(sackOK)
	id := c.ID
	for int(id) >= len(p.ccs) {
		p.ccs = append(p.ccs, ccState{})
	}
	cc := &p.ccs[id]
	*cc = ccState{
		epoch:     cc.epoch + 1, // invalidate any stale carriers for this slot
		live:      true,
		cwnd:      initialCWnd,
		rate:      1e9,
		lastAcked: p.eng.Now(),
		rto:       minRTO,
	}
	p.tracked++
	if p.cfg.CC != CCNone {
		p.toe.SetCongestionWindow(id, cc.cwnd)
	}
	p.Established++
	return &Conn{ID: id, Core: c, Flow: flow, TxBuf: txBuf, RxBuf: rxBuf}
}

// InstallEstablished installs an already-established connection directly,
// bypassing the handshake — the connection-scaling experiments use it to
// populate large mostly-idle fleets. The caller provides the payload
// buffers and MAY share one buffer pair across many idle connections
// (per-connection buffers are a host sizing choice, not NIC state; see
// doc.go "Connection state budget") — but must then never transfer data
// on more than one of the sharers at a time, nor start on the next before
// every byte of the last is acknowledged: data segments carry views of
// the shared transmit buffer, so a sharer's stale frames read the next
// sharer's bytes, which only its own receiver's trim makes harmless.
func (p *Plane) InstallEstablished(flow packet.Flow, peerMAC packet.EtherAddr, iss, irs uint32,
	txBuf, rxBuf *shm.PayloadBuf) *Conn {
	return p.install(flow, peerMAC, iss, irs, txBuf, rxBuf, 0, false)
}

// Remove deletes data-path and control state for a connection; the slot
// is recycled. Called by the teardown timer after the post-close linger,
// or directly on abort.
func (p *Plane) Remove(id uint32) {
	if int(id) < len(p.ccs) {
		cc := &p.ccs[id]
		if cc.live {
			p.tracked--
			cc.live = false
			cc.epoch++ // in-flight timer carriers release themselves on fire
			cc.rtoArmed = false
			cc.ccArmed = false
		}
	}
	p.toe.RemoveConnection(id)
}

// NumTracked returns the number of live control-plane connection states
// (== live data-path connections).
func (p *Plane) NumTracked() int { return p.tracked }

// getTimer draws a pooled timer carrier.
func (p *Plane) getTimer(id, epoch uint32, kind uint8) *connTimer {
	tm := p.timerFree.Get()
	if tm == nil {
		tm = &connTimer{}
	}
	tm.p, tm.id, tm.epoch, tm.kind = p, id, epoch, kind
	return tm
}

// putTimer recycles a timer carrier.
func (p *Plane) putTimer(tm *connTimer) {
	*tm = connTimer{}
	p.timerFree.Put(tm)
}

// timerKick is the data-path's signal (core.TOE.TimerKick) that a
// connection may need timer service: arm the RTO lifecycle timer and,
// when congestion control is on, the CC poll. The data-path dedupes
// kicks via the per-connection hint, so this runs once per activation,
// not per segment.
func (p *Plane) timerKick(id uint32) {
	if int(id) >= len(p.ccs) {
		return
	}
	cc := &p.ccs[id]
	if !cc.live {
		return
	}
	if !cc.rtoArmed {
		p.armRTO(cc, id)
	}
	if p.cfg.CC != CCNone && !cc.ccArmed {
		cc.ccArmed = true
		cc.ccIdle = 0
		p.own.AfterCall(ccInterval, connTimerFire, p.getTimer(id, cc.epoch, timerCC))
	}
}

// armRTO schedules the RTO lifecycle timer at the connection's current
// deadline.
func (p *Plane) armRTO(cc *ccState, id uint32) {
	cc.rtoArmed = true
	deadline := cc.lastAcked + (cc.rto << uint(cc.backoff))
	now := p.eng.Now()
	var d sim.Time
	if deadline > now {
		d = deadline - now
	}
	p.own.AfterCall(d, connTimerFire, p.getTimer(id, cc.epoch, timerRTO))
}

// connTimerFire dispatches a timer carrier (the long-lived AfterCall
// callback; one function for every armed timer in the plane).
func connTimerFire(a any) {
	tm := a.(*connTimer)
	p := tm.p
	cc := &p.ccs[tm.id]
	if !cc.live || cc.epoch != tm.epoch {
		// The slot was torn down (and possibly re-established) after this
		// carrier was armed; the new occupant has its own timers.
		p.putTimer(tm)
		return
	}
	if tm.kind == timerRTO {
		p.rtoFire(tm, cc)
	} else {
		p.ccFire(tm, cc)
	}
}

// rtoFire runs one connection's RTO/persist/teardown lifecycle: fire or
// re-arm against the current deadline. The timer re-arms only while the
// connection has a reason to be timed (data in flight, unacked FIN, a
// zero-window stall, or a close lingering toward reclamation); otherwise
// it disarms and the next data-path kick re-arms it (§3.1.1:
// "Retransmissions in response to timeouts are triggered by the
// control-plane"; the retransmit HC op also clears the SACK scoreboard,
// RFC 2018's reneging rule).
func (p *Plane) rtoFire(tm *connTimer, cc *ccState) {
	id := tm.id
	c := p.toe.Connection(id)
	if c == nil {
		p.disarmRTO(tm, cc, id)
		return
	}
	now := p.eng.Now()
	if una := c.Proto.UnackedBase(); una != cc.seenUna {
		// The cumulative ack moved since the last fire: forward progress,
		// regardless of whether the CC loop is polling.
		cc.seenUna = una
		cc.lastAcked = now
		cc.backoff = 0
	}
	pr := &c.Proto
	switch {
	case pr.TxSent > 0 || (pr.FinSent() && !pr.FinAcked()):
		cc.persistAt, cc.persistBackoff = 0, 0
		cc.lingerAt = 0
		deadline := cc.lastAcked + (cc.rto << uint(cc.backoff))
		if now >= deadline && cc.backoff == 6 && pr.TxSent == 0 && pr.FinRx() {
			// LAST-ACK gives up: both FINs were exchanged and only ours is
			// unacknowledged through a whole backed-off series. The peer's
			// ACK of it was lost, and the peer, done with its linger, has
			// reclaimed the slot and drops each retransmission as a
			// stranger's; retrying on would hold the slot and its timer
			// forever.
			p.putTimer(tm)
			cc.rtoArmed = false
			p.Remove(id)
			return
		}
		if now >= deadline {
			p.Timeouts++
			p.toe.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: id})
			cc.lastAcked = now
			if cc.backoff < 6 {
				cc.backoff++
			}
			if p.cfg.CC == CCDCTCP {
				// Timeout: collapse to one segment, slow-start again.
				cc.cwnd = 2 * 1448
				p.toe.SetCongestionWindow(id, cc.cwnd)
			}
			deadline = now + (cc.rto << uint(cc.backoff))
		}
		p.own.AfterCall(deadline-now, connTimerFire, tm)
	case pr.TxAvail > 0 && pr.RemoteWin == 0:
		// Zero-window persist (RFC 9293 §3.8.6.1): data waits in the
		// transmit buffer, nothing is in flight, and the peer's last
		// advertised window is zero. A lost window-update ACK would
		// stall the connection forever; the sender must probe.
		cc.lastAcked, cc.backoff = now, 0
		cc.lingerAt = 0
		if cc.persistAt == 0 {
			cc.persistAt = now + cc.rto
		} else if now >= cc.persistAt {
			p.ZeroWindowProbes++
			p.sendZeroWindowProbe(c)
			if cc.persistBackoff < 6 {
				cc.persistBackoff++
			}
			cc.persistAt = now + (cc.rto << uint(cc.persistBackoff))
		}
		p.own.AfterCall(cc.persistAt-now, connTimerFire, tm)
	case pr.FinSent() && pr.FinAcked() && pr.FinRx():
		// Both directions closed and acknowledged: linger long enough
		// for stragglers to drain, then reclaim the slot.
		if cc.lingerAt == 0 {
			cc.lingerAt = now + 4*minRTO
		}
		if now >= cc.lingerAt {
			p.putTimer(tm)
			cc.rtoArmed = false
			p.Remove(id)
			return
		}
		p.own.AfterCall(cc.lingerAt-now, connTimerFire, tm)
	default:
		// Idle: nothing outstanding, window open, not closing. Disarm;
		// the next data-path kick re-arms.
		cc.lastAcked, cc.backoff = now, 0
		cc.persistAt, cc.persistBackoff = 0, 0
		p.disarmRTO(tm, cc, id)
	}
}

// disarmRTO releases the RTO carrier and, when the CC poll is also off,
// re-enables the data-path kick.
func (p *Plane) disarmRTO(tm *connTimer, cc *ccState, id uint32) {
	p.putTimer(tm)
	cc.rtoArmed = false
	if !cc.ccArmed {
		p.toe.ClearTimerHint(id)
	}
}

// ccFire runs one connection's periodic congestion-control poll (§D):
// read per-flow statistics from the data-path, compute a new window or
// rate, and program it back. The poll self-disarms after ccIdleLimit
// quiet intervals so idle connections cost nothing.
func (p *Plane) ccFire(tm *connTimer, cc *ccState) {
	id := tm.id
	st := p.toe.ReadStats(id)
	if st.AckedBytes > 0 {
		cc.lastAcked = p.eng.Now()
		cc.backoff = 0
	}
	if st.RTTMicros > 0 {
		rtt := sim.Time(st.RTTMicros) * sim.Microsecond
		if cc.srtt == 0 {
			cc.srtt = rtt
		} else {
			cc.srtt += (rtt - cc.srtt) / 8
		}
		if r := 4 * cc.srtt; r > minRTO {
			cc.rto = r
		} else {
			cc.rto = minRTO
		}
	}
	switch p.cfg.CC {
	case CCDCTCP:
		p.dctcp(id, cc, st)
	case CCTimely:
		p.timely(id, cc, st)
	}
	if st.AckedBytes == 0 && st.TxSent == 0 && st.TxPending == 0 {
		cc.ccIdle++
	} else {
		cc.ccIdle = 0
	}
	// Close the lost-retransmit hole: while the CC poll runs, guarantee
	// the RTO timer is armed whenever data is outstanding (the RTO
	// timer may have disarmed in an idle window just before new data).
	if !cc.rtoArmed {
		if c := p.toe.Connection(id); c != nil &&
			(c.Proto.TxSent > 0 || (c.Proto.FinSent() && !c.Proto.FinAcked())) {
			p.armRTO(cc, id)
		}
	}
	if cc.ccIdle >= ccIdleLimit {
		p.putTimer(tm)
		cc.ccArmed = false
		if !cc.rtoArmed {
			p.toe.ClearTimerHint(id)
		}
		return
	}
	p.own.AfterCall(ccInterval, connTimerFire, tm)
}

// sendZeroWindowProbe emits the persist probe via the control plane's own
// transmit path (probes are timer-driven control actions, like timeout
// retransmissions). Sequence SND.NXT-1 with one byte of already-delivered
// payload: always outside the receiver's window, always re-ACKed.
func (p *Plane) sendZeroWindowProbe(c *core.Conn) {
	st := &c.Proto
	payload := make([]byte, 1)
	if c.Post.TxSize > 0 {
		c.TxBuf.ReadAt((st.TxPos-1)&(c.Post.TxSize-1), payload)
	}
	pkt := &packet.Packet{
		Eth: packet.Ethernet{Src: p.cfg.LocalMAC, Dst: c.Pre.PeerMAC, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
			Src: c.Pre.LocalIP, Dst: c.Pre.PeerIP,
		},
		TCP: packet.TCP{
			SrcPort: c.Pre.LocalPort, DstPort: c.Pre.RemotePort,
			Seq: st.Seq - 1, Ack: st.Ack, Flags: packet.FlagACK,
			Window: st.LocalWindow(), WScale: -1,
		},
		Payload: payload,
	}
	p.toe.SendControlFrame(pkt)
}

// dctcp implements DCTCP [1]: alpha tracks the EWMA fraction of
// ECN-marked bytes; marked windows shrink by alpha/2, clean ones grow
// additively.
func (p *Plane) dctcp(id uint32, cc *ccState, st core.ConnStats) {
	if st.AckedBytes == 0 {
		return
	}
	frac := float64(st.ECNBytes) / float64(st.AckedBytes)
	cc.alpha = (1-dctcpGainG)*cc.alpha + dctcpGainG*frac
	if st.ECNBytes > 0 {
		cc.cwnd = uint32(float64(cc.cwnd) * (1 - cc.alpha/2))
	} else {
		cc.cwnd += 1448 // additive increase per control interval
	}
	if st.FastRetx > 0 {
		cc.cwnd /= 2
	}
	if cc.cwnd < 2*1448 {
		cc.cwnd = 2 * 1448
	}
	if cc.cwnd > p.cfg.BufSize {
		cc.cwnd = p.cfg.BufSize
	}
	p.toe.SetCongestionWindow(id, cc.cwnd)
}

// TIMELY constants [34], scaled for the simulated fabric.
const (
	timelyTLow    = 30 * sim.Microsecond
	timelyTHigh   = 500 * sim.Microsecond
	timelyAddStep = 20e6 // bytes/s additive increment
	timelyBeta    = 0.8
)

// timely implements TIMELY: RTT-gradient rate control, programmed into
// the data-path as a division-free pacing interval.
func (p *Plane) timely(id uint32, cc *ccState, st core.ConnStats) {
	if st.RTTMicros == 0 {
		return
	}
	rtt := st.RTTMicros
	grad := float64(int32(rtt-cc.prevRTT)) / float64(timelyTLow/sim.Microsecond)
	cc.prevRTT = rtt
	rttT := sim.Time(rtt) * sim.Microsecond
	switch {
	case rttT < timelyTLow:
		cc.rate += timelyAddStep
	case rttT > timelyTHigh:
		cc.rate *= 1 - timelyBeta*(1-float64(timelyTHigh)/float64(rttT))
	case grad <= 0:
		cc.rate += timelyAddStep
	default:
		cc.rate *= 1 - timelyBeta*grad*0.1
	}
	if cc.rate < 1e6 {
		cc.rate = 1e6
	}
	if cc.rate > 5e9 {
		cc.rate = 5e9
	}
	interval := sim.Time(1e12 / cc.rate)
	p.toe.SetRateInterval(id, interval)
	p.toe.SetCongestionWindow(id, 0) // rate-based: no window clamp
}

// adaptOOO is the fleet-wide OOOCap controller (core.Config.AdaptiveOOO):
// divide the global interval budget across live connections for the
// ceiling, grow one step when the occupancy histogram shows connections
// saturating the current cap this window, decay one step when reordering
// pressure disappears. Connections adopt the cap lazily on their next RX.
func (p *Plane) adaptOOO() {
	live := p.toe.NumConnections()
	if live == 0 {
		return
	}
	base := oooStateBudget / live
	if base < 1 {
		base = 1
	}
	if base > tcpseg.MaxOOOIntervals {
		base = tcpseg.MaxOOOIntervals
	}
	hist := p.toe.OOOOccupancy
	var pressure uint64
	for v := 0; v <= tcpseg.MaxOOOIntervals; v++ {
		n := hist.Bucket(v)
		d := n - p.oooPrev[v]
		if n < p.oooPrev[v] {
			d = n // the histogram was Reset (post-warmup measurement)
		}
		if v >= int(p.oooCap) {
			pressure += d
		}
		p.oooPrev[v] = n
	}
	c8 := p.oooCap
	switch {
	case pressure > 0 && int(c8) < base:
		c8++
	case pressure == 0 && c8 > 1:
		c8--
	}
	if int(c8) > base {
		c8 = uint8(base) // the budget shrank under connection growth
	}
	if c8 != p.oooCap {
		p.oooCap = c8
		p.toe.SetDynOOOCap(c8)
	}
}

// OOOCapNow returns the adaptive controller's current per-connection
// interval cap (0 when AdaptiveOOO is off).
func (p *Plane) OOOCapNow() uint8 { return p.oooCap }

// CWnd exposes a connection's current congestion window (tests,
// experiments).
func (p *Plane) CWnd(id uint32) uint32 {
	if int(id) < len(p.ccs) && p.ccs[id].live {
		return p.ccs[id].cwnd
	}
	return 0
}
