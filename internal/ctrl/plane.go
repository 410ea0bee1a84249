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
// Its decisions are one engine-free step (step.go): ccState and the
// half-open pendingConn take an input (a data-path kick, a timer firing,
// a dial, a handshake segment or expiry), the NIC state they read
// (nicView) and the time, and call effects in the order the TOE and the
// engine must see. Plane is the carrier: listener and pending maps, the
// ccState slab, pooled timer carriers, and the TOE and engine calls the
// effects stand for.
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

// Plane is one machine's control plane.
type Plane struct {
	env // configuration and counters, shared by every step

	eng *sim.Engine
	own sim.Owner // timers, handshake expiry, connect notifications
	toe *core.TOE
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

	// The step in progress (steps never nest): the slot or half-open it
	// steps and, during a timer firing, the timer carrier in hand.
	cur    uint32
	curPC  *pendingConn
	inHand *connTimer

	nextPort  uint16
	PortSkips uint64 // dial source ports passed over: their 4-tuple was live
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

// connTimer carries one armed per-connection timer through the timing
// wheel (pooled; see Plane.arm). kind selects the step; epoch
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
		env:       env{cfg: cfg},
		eng:       eng,
		own:       eng.NewOwner(),
		toe:       toe,
		rng:       stats.NewRNG(cfg.Seed ^ uint64(cfg.LocalIP)),
		listeners: make(map[uint16]*listener),
		pending:   make(map[packet.Flow]*pendingConn),
		nextPort:  20000,
	}
	eng.Lends(cfg.LocalIP.String()+" timers", &p.timerFree)
	toe.ControlRx = p.handleSegment
	toe.TimerKick = p.timerKick
	return p
}

// Listen registers an accept callback for a port.
func (p *Plane) Listen(port uint16, accept func(*Conn)) {
	p.listeners[port] = &listener{accept: accept, tokens: 1}
}

// Dial initiates a connection to a remote endpoint. If the peer drops
// our SYN (backlog overflow, rate limit, loss), the half-open state
// expires after handshakeTimeout and the connected callback never fires.
func (p *Plane) Dial(remoteIP packet.IPv4Addr, remoteMAC packet.EtherAddr, remotePort uint16, connected func(*Conn)) {
	flow := p.ephemeral(packet.Flow{SrcIP: p.cfg.LocalIP, DstIP: remoteIP, DstPort: remotePort})
	p.open(&pendingConn{p: p, flow: flow, peerMAC: remoteMAC, iss: uint32(p.rng.Uint64()),
		active: true, sackOK: p.toe.Config().EnableSACK, connected: connected})
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

// open registers a half-open, schedules its expiry, and takes its step.
func (p *Plane) open(pc *pendingConn) {
	p.pending[pc.flow] = pc
	p.own.AfterCall(handshakeTimeout, pendingExpire, pc)
	pc.open(p.step(0, pc, nil))
}

// pendingExpire reaps a half-open connection whose handshake never
// completed. The pendingConn is its own timer carrier; a stale fire
// (handshake completed, flow re-dialed) finds a different registration
// and does nothing.
func pendingExpire(a any) {
	pc := a.(*pendingConn)
	if p := pc.p; p.pending[pc.flow] == pc {
		delete(p.pending, pc.flow)
		pc.expire(&p.env)
	}
}

// emit sends a segment on the control plane's own transmit path (by
// design, handshakes and persist probes bypass the offloaded data-path).
func (p *Plane) emit(flow packet.Flow, peerMAC packet.EtherAddr, tcp packet.TCP, payload []byte) {
	tcp.SrcPort, tcp.DstPort = flow.SrcPort, flow.DstPort
	p.toe.SendControlFrame(&packet.Packet{
		Eth:     packet.Ethernet{Src: p.cfg.LocalMAC, Dst: peerMAC, EtherType: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0, Src: flow.SrcIP, Dst: flow.DstIP},
		TCP:     tcp,
		Payload: payload,
	})
}

// handshake sends a handshake segment. sackPerm offers/confirms
// SACK-permitted; only meaningful on SYNs.
func (p *Plane) handshake(flow packet.Flow, peerMAC packet.EtherAddr, flags uint8, seq, ack uint32, sackPerm bool) {
	p.emit(flow, peerMAC, packet.TCP{Seq: seq, Ack: ack, Flags: flags,
		Window: uint16(p.cfg.BufSize >> tcpseg.WindowScale), MSS: mss, WScale: tcpseg.WindowScale, SACKPerm: sackPerm}, nil)
}

// handleSegment takes the segments the data-path filters to the control
// plane (SYN/SYN-ACK/RST, unknown flows) to their step; a SYN to a port
// nobody listens on is refused with a RST.
func (p *Plane) handleSegment(pkt *packet.Packet) {
	flow := pkt.Flow().Reverse() // local view
	tcp := &pkt.TCP
	pc := p.pending[flow]
	fx := p.step(0, pc, nil)
	var over bool
	switch {
	case tcp.HasFlag(packet.FlagSYN | packet.FlagACK):
		over = pc.synAck(fx, tcp)
	case tcp.HasFlag(packet.FlagSYN):
		lis := p.listeners[tcp.DstPort]
		if lis == nil {
			p.handshake(flow, pkt.Eth.Src, packet.FlagRST, 0, tcp.Seq+1, false)
		} else if lis.syn(fx, &p.env, pc, p.eng.Now()) {
			// Half-opens hold the accept callback of their SYN's instant,
			// so accept replacement is race-free.
			p.open(&pendingConn{p: p, lis: lis, flow: flow, peerMAC: pkt.Eth.Src,
				iss: uint32(p.rng.Uint64()), irs: tcp.Seq + 1,
				sackOK: tcp.SACKPerm && p.toe.Config().EnableSACK, connected: lis.accept})
		}
	case tcp.HasFlag(packet.FlagACK):
		over = pc.ack(fx, tcp.Window)
	case tcp.HasFlag(packet.FlagRST):
		over = pc.rst()
	}
	if over {
		delete(p.pending, flow)
	}
}

// install wires a connection into the data-path slab and the control
// plane's dense state, reusing the slot id core assigned (§D: "allocates
// host payload buffers and a unique connection index for the data-path
// ... then sets up connection state at the index location").
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
	cc.open(p.eng.Now())
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
// buffers and MAY share one pair across many idle connections, moving
// data on one sharer at a time (doc.go "Connection state budget" says
// why and when the next may start).
func (p *Plane) InstallEstablished(flow packet.Flow, peerMAC packet.EtherAddr, iss, irs uint32,
	txBuf, rxBuf *shm.PayloadBuf) *Conn {
	return p.install(flow, peerMAC, iss, irs, txBuf, rxBuf, 0, false)
}

// Remove deletes data-path and control state for a connection; the slot
// is recycled. Called by the teardown timer after the post-close linger,
// or directly on abort.
func (p *Plane) Remove(id uint32) {
	if int(id) < len(p.ccs) && p.ccs[id].live {
		p.tracked--
		p.ccs[id] = ccState{epoch: p.ccs[id].epoch + 1} // in-flight timer carriers release themselves on fire
	}
	p.toe.RemoveConnection(id)
}

// NumTracked returns the number of live control-plane connection states
// (== live data-path connections).
func (p *Plane) NumTracked() int { return p.tracked }

// timerKick is the data-path's signal (core.TOE.TimerKick) that a
// connection may need timer service. The data-path dedupes kicks via the
// per-connection hint, so this runs once per activation, not per segment.
func (p *Plane) timerKick(id uint32) {
	if int(id) < len(p.ccs) && p.ccs[id].live {
		p.ccs[id].kick(p.step(id, nil, nil), &p.env, p.eng.Now())
	}
}

// view reads the NIC state a connection's step takes as input.
func (p *Plane) view(id uint32) nicView {
	pr := &p.toe.Connection(id).Proto
	return nicView{una: pr.UnackedBase(), txSent: pr.TxSent, txAvail: pr.TxAvail, remoteWin: pr.RemoteWin,
		finSent: pr.FinSent(), finAcked: pr.FinAcked(), finRx: pr.FinRx()}
}

// connTimerFire takes a timer carrier to its step, unless its slot was
// torn down since it was armed. A carrier the step did not re-arm is
// recycled; with neither timer in flight, the data-path kick re-enables.
func connTimerFire(a any) {
	tm := a.(*connTimer)
	p := tm.p
	if cc := &p.ccs[tm.id]; cc.live && cc.epoch == tm.epoch {
		fx, v, now := p.step(tm.id, nil, tm), p.view(tm.id), p.eng.Now()
		if tm.kind == timerRTO {
			cc.rtoFire(fx, &p.env, &v, now)
		} else {
			v.stats = p.toe.ReadStats(tm.id)
			cc.ccFire(fx, &p.env, &v, now)
		}
		if !cc.rtoArmed && !cc.ccArmed {
			p.toe.ClearTimerHint(tm.id)
		}
		if p.inHand == nil {
			return
		}
	}
	*tm = connTimer{}
	p.timerFree.Put(tm)
}

// step points the plane, as effects, at slot id or half-open pc, with
// the firing timer carrier tm in hand.
func (p *Plane) step(id uint32, pc *pendingConn, tm *connTimer) effects {
	p.cur, p.curPC, p.inHand = id, pc, tm
	return p
}

// Plane implements effects on the TOE and the engine.
func (p *Plane) retransmit() { p.toe.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.cur}) }
func (p *Plane) probe()      { p.sendZeroWindowProbe(p.toe.Connection(p.cur)) }
func (p *Plane) reclaim()    { p.Remove(p.cur) }

// arm re-arms the carrier in hand if it is of kind, else a pooled one.
func (p *Plane) arm(kind uint8, at sim.Time) {
	tm := p.inHand
	if tm != nil && tm.kind == kind {
		p.inHand = nil
	} else if tm = p.timerFree.Get(); tm == nil {
		tm = &connTimer{}
	}
	*tm = connTimer{p: p, id: p.cur, epoch: p.ccs[p.cur].epoch, kind: kind}
	p.own.AfterCall(max(at-p.eng.Now(), 0), connTimerFire, tm)
}

func (p *Plane) setCwnd(bytes uint32)     { p.toe.SetCongestionWindow(p.cur, bytes) }
func (p *Plane) setRate(perByte sim.Time) { p.toe.SetRateInterval(p.cur, perByte) }

func (p *Plane) sendControl(flags uint8, seq, ack uint32, sackPerm bool) {
	p.handshake(p.curPC.flow, p.curPC.peerMAC, flags, seq, ack, sackPerm)
}

func (p *Plane) establish(peerWin uint16) {
	pc := p.curPC
	pc.conn = p.install(pc.flow, pc.peerMAC, pc.iss+1, pc.irs,
		shm.NewPayloadBuf(p.cfg.BufSize), shm.NewPayloadBuf(p.cfg.BufSize), peerWin, pc.sackOK)
	if pc.connected != nil {
		p.own.ImmediatelyCall(pendingConnected, pc)
	}
}

// pendingConnected hands an established connection to its opener.
func pendingConnected(a any) {
	pc := a.(*pendingConn)
	pc.connected(pc.conn)
}

// sendZeroWindowProbe emits the persist probe: sequence SND.NXT-1 with
// one byte of already-delivered payload, always outside the receiver's
// window, always re-ACKed. Its reads of NIC state are the one set outside
// nicView.
func (p *Plane) sendZeroWindowProbe(c *core.Conn) {
	st := &c.Proto
	payload := make([]byte, 1)
	if c.Post.TxSize > 0 {
		c.TxBuf.ReadAt((st.TxPos-1)&(c.Post.TxSize-1), payload)
	}
	p.emit(c.Flow, c.Pre.PeerMAC, packet.TCP{Seq: st.Seq - 1, Ack: st.Ack, Flags: packet.FlagACK,
		Window: st.LocalWindow(), WScale: -1}, payload)
}
