package ctrl

import (
	"flextoe/internal/core"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// effects is what a step asks of its carrier, in the order it decides.
// Plane turns each call into a TOE or engine call, a test records it: the
// step itself reaches no engine, TOE, interface or pool.
type effects interface {
	retransmit()                                             // timeout retransmission from SND.UNA
	probe()                                                  // one zero-window probe
	reclaim()                                                // tear the connection down, free its slot
	arm(kind uint8, at sim.Time)                             // fire the timer of kind at at (now if past)
	setCwnd(bytes uint32)                                    // program the congestion window (0 = no clamp)
	setRate(perByte sim.Time)                                // program the pacing interval
	sendControl(flags uint8, seq, ack uint32, sackPerm bool) // a handshake segment to the half-open's peer
	establish(peerWin uint16)                                // install the half-open's connection
}

// Control-plane parameters: constants, because every figure, spec and
// workload runs with these values. The congestion-window ceiling is
// Config.BufSize (a sender never has more than one buffer in flight).
const (
	mss         = 1448                  // the segment size both sides announce
	ccInterval  = 100 * sim.Microsecond // per-connection CC poll period while active
	minRTO      = 2 * sim.Millisecond
	dctcpGainG  = 1.0 / 16 // alpha EWMA gain
	initialCWnd = 10 * mss // bytes
	maxBackoff  = 6        // RTO and persist back-off cap, in doublings
	// handshakeTimeout expires half-open connections (both passive
	// SYN-received and active SYN-sent) so floods and lost handshakes
	// don't pin state forever.
	handshakeTimeout = 50 * sim.Millisecond
	// ccIdleLimit disarms the CC poll after this many consecutive quiet
	// polls (the connection went idle; the next data-path kick re-arms).
	ccIdleLimit = 8
)

// Timer kinds.
const (
	timerRTO uint8 = iota // RTO + persist + teardown lifecycle
	timerCC               // congestion-control poll
)

// env is what one plane's steps share: the configuration they follow and
// the counters they count (Plane embeds it; the counters read as its own).
type env struct {
	cfg              Config
	Established      uint64
	Timeouts         uint64
	ZeroWindowProbes uint64
	SYNDrops         uint64 // SYNs dropped by backlog or accept-rate limits
	BacklogOverflows uint64 // SYNs dropped: listener backlog full
	AcceptRateDrops  uint64 // SYNs dropped: accept-rate token bucket empty
	HandshakeExpires uint64 // half-open connections reaped by timeout
}

// nicView is the NIC state a connection's step reads: every control-plane
// read of data-path state bar the zero-window probe's segment builder.
// stats is read (and cleared on the NIC) for a CC poll only.
type nicView struct {
	una                      uint32 // SND.UNA
	txSent, txAvail          uint32
	remoteWin                uint16
	finSent, finAcked, finRx bool
	stats                    core.ConnStats
}

// outstanding reports whether data or our FIN awaits acknowledgment.
func (v *nicView) outstanding() bool { return v.txSent > 0 || (v.finSent && !v.finAcked) }

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

// open starts the slot's state for a connection established at now.
func (cc *ccState) open(now sim.Time) {
	*cc = ccState{epoch: cc.epoch + 1, live: true, cwnd: initialCWnd, rate: 1e9, lastAcked: now, rto: minRTO}
}

// rtoAt is the RTO deadline: one backed-off RTO after the last progress.
func (cc *ccState) rtoAt() sim.Time { return cc.lastAcked + cc.rto<<uint(cc.backoff) }

// progress records forward progress: the RTO clock restarts unbacked.
func (cc *ccState) progress(now sim.Time) { cc.lastAcked, cc.backoff = now, 0 }

func (cc *ccState) armRTO(fx effects, at sim.Time) {
	cc.rtoArmed = true
	fx.arm(timerRTO, at)
}

func (cc *ccState) armCC(fx effects, now sim.Time) {
	cc.ccArmed = true
	fx.arm(timerCC, now+ccInterval)
}

// kick is the step for the data path's timer kick: arm the RTO lifecycle
// timer and, with congestion control on, the CC poll, unless in flight.
func (cc *ccState) kick(fx effects, e *env, now sim.Time) {
	if !cc.rtoArmed {
		cc.armRTO(fx, cc.rtoAt())
	}
	if e.cfg.CC != CCNone && !cc.ccArmed {
		cc.ccIdle = 0
		cc.armCC(fx, now)
	}
}

// rtoFire is the step for the RTO lifecycle timer: fire or re-arm against
// the current deadline while the connection has a reason to be timed
// (data in flight, unacked FIN, a zero-window stall, or a close lingering
// toward reclamation); otherwise disarm until the next kick (§3.1.1; the
// retransmit HC op also clears the SACK scoreboard, RFC 2018's reneging
// rule).
func (cc *ccState) rtoFire(fx effects, e *env, v *nicView, now sim.Time) {
	cc.rtoArmed = false
	if v.una != cc.seenUna {
		// The cumulative ack moved since the last fire: forward progress,
		// regardless of whether the CC loop is polling.
		cc.seenUna = v.una
		cc.progress(now)
	}
	var at sim.Time
	var reclaim bool
	switch {
	case v.outstanding():
		cc.persistAt, cc.persistBackoff, cc.lingerAt = 0, 0, 0
		at = cc.rtoAt()
		// LAST-ACK gives up: only our FIN is unacknowledged through a whole
		// backed-off series. The peer's ACK of it was lost, and the peer,
		// its linger over, drops each retransmission as a stranger's;
		// retrying on would hold the slot and its timer forever.
		reclaim = now >= at && cc.backoff == maxBackoff && v.txSent == 0 && v.finRx
		if now >= at && !reclaim {
			e.Timeouts++
			fx.retransmit()
			cc.lastAcked = now
			cc.backoff = min(cc.backoff+1, maxBackoff)
			if e.cfg.CC == CCDCTCP {
				cc.setCwnd(fx, e, 0) // timeout: collapse to the floor, slow-start again
			}
			at = cc.rtoAt()
		}
	case v.txAvail > 0 && v.remoteWin == 0:
		// Zero-window persist (RFC 9293 §3.8.6.1): data waits in the
		// transmit buffer, nothing is in flight, and the peer's last
		// advertised window is zero. A lost window-update ACK would
		// stall the connection forever; the sender must probe.
		cc.progress(now)
		cc.lingerAt = 0
		if cc.persistAt == 0 {
			cc.persistAt = now + cc.rto
		} else if now >= cc.persistAt {
			e.ZeroWindowProbes++
			fx.probe()
			cc.persistBackoff = min(cc.persistBackoff+1, maxBackoff)
			cc.persistAt = now + cc.rto<<uint(cc.persistBackoff)
		}
		at = cc.persistAt
	case v.finSent && v.finAcked && v.finRx:
		// Both directions closed and acknowledged: linger long enough
		// for stragglers to drain, then reclaim the slot.
		if cc.lingerAt == 0 {
			cc.lingerAt = now + 4*minRTO
		}
		at = cc.lingerAt
		reclaim = now >= at
	default:
		// Idle: nothing outstanding, window open, not closing. Disarm;
		// the next data-path kick re-arms.
		cc.progress(now)
		cc.persistAt, cc.persistBackoff = 0, 0
		return
	}
	if reclaim {
		fx.reclaim()
		return
	}
	cc.armRTO(fx, at)
}

// ccFire is the step for a congestion-control poll (§D): from the flow's
// statistics compute a new window or rate and program it back. The poll
// disarms after ccIdleLimit quiet intervals: idle connections cost nothing.
func (cc *ccState) ccFire(fx effects, e *env, v *nicView, now sim.Time) {
	cc.ccArmed = false
	st := &v.stats
	if st.AckedBytes > 0 {
		cc.progress(now)
	}
	if st.RTTMicros > 0 {
		rtt := sim.Time(st.RTTMicros) * sim.Microsecond
		if cc.srtt == 0 {
			cc.srtt = rtt
		}
		cc.srtt += (rtt - cc.srtt) / 8
		cc.rto = max(4*cc.srtt, minRTO)
	}
	switch e.cfg.CC {
	case CCDCTCP:
		cc.dctcp(fx, e, st)
	case CCTimely:
		cc.timely(fx, st)
	}
	if st.AckedBytes == 0 && st.TxSent == 0 && st.TxPending == 0 {
		cc.ccIdle++
	} else {
		cc.ccIdle = 0
	}
	// Close the lost-retransmit hole: while the CC poll runs, guarantee
	// the RTO timer is armed whenever data is outstanding (the RTO
	// timer may have disarmed in an idle window just before new data).
	if !cc.rtoArmed && v.outstanding() {
		cc.armRTO(fx, cc.rtoAt())
	}
	if cc.ccIdle < ccIdleLimit {
		cc.armCC(fx, now)
	}
}

// setCwnd programs window w, held between two segments and one buffer.
func (cc *ccState) setCwnd(fx effects, e *env, w uint32) {
	cc.cwnd = min(max(w, 2*mss), e.cfg.BufSize)
	fx.setCwnd(cc.cwnd)
}

// dctcp implements DCTCP [1]: alpha tracks the EWMA fraction of
// ECN-marked bytes; marked windows shrink by alpha/2, clean ones grow
// additively.
func (cc *ccState) dctcp(fx effects, e *env, st *core.ConnStats) {
	if st.AckedBytes == 0 {
		return
	}
	frac := float64(st.ECNBytes) / float64(st.AckedBytes)
	cc.alpha = (1-dctcpGainG)*cc.alpha + dctcpGainG*frac
	w := cc.cwnd + mss // additive increase per control interval
	if st.ECNBytes > 0 {
		w = uint32(float64(cc.cwnd) * (1 - cc.alpha/2))
	}
	if st.FastRetx > 0 {
		w /= 2
	}
	cc.setCwnd(fx, e, w)
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
func (cc *ccState) timely(fx effects, st *core.ConnStats) {
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
	cc.rate = min(max(cc.rate, 1e6), 5e9)
	fx.setRate(sim.Time(1e12 / cc.rate))
	fx.setCwnd(0) // rate-based: no window clamp
}

// listener is one bound port: the accept callback plus half-open
// accounting for the backlog and accept-rate limits.
type listener struct {
	accept   func(*Conn)
	pendingN int      // half-open connections charged to this listener
	tokens   float64  // accept-rate bucket (capacity 1)
	lastFill sim.Time // last token refill
}

// syn is the step for a SYN to l's port, pc the flow's half-open if any:
// re-answer a retransmitted SYN without charging the backlog twice, drop
// one a full backlog or an empty accept-rate bucket refuses (silently: no
// RST, no state), or report that a passive half-open opens.
func (l *listener) syn(fx effects, e *env, pc *pendingConn, now sim.Time) bool {
	switch {
	case pc != nil:
		if !pc.active {
			pc.answer(fx)
		}
		return false
	case l.pendingN >= e.cfg.ListenBacklog:
		e.BacklogOverflows++
	case e.cfg.AcceptRate > 0 && !l.takeToken(now, e.cfg.AcceptRate):
		e.AcceptRateDrops++
	default:
		return true
	}
	e.SYNDrops++
	return false
}

// takeToken runs the listener's accept-rate token bucket (capacity 1:
// SYNs are admitted at most every 1/rate seconds).
func (l *listener) takeToken(now sim.Time, rate float64) bool {
	l.tokens = min(l.tokens+(now-l.lastFill).Seconds()*rate, 1)
	l.lastFill = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// pendingConn is a half-open connection, and its own handshake-timeout
// timer carrier. A step that can end it reports whether it is over.
type pendingConn struct {
	p         *Plane
	lis       *listener // passive opens: the charged listener
	flow      packet.Flow
	peerMAC   packet.EtherAddr
	iss, irs  uint32
	active    bool // we sent the SYN
	sackOK    bool // SACK-permitted: offered by us, then agreed by both sides
	connected func(*Conn)
	conn      *Conn // the established connection, for connected
}

// open is the step that starts a half-open: a dial sends its SYN, a
// passive open charges its listener and answers.
func (pc *pendingConn) open(fx effects) {
	if pc.active {
		fx.sendControl(packet.FlagSYN, pc.iss, 0, pc.sackOK)
		return
	}
	pc.lis.pendingN++
	pc.answer(fx)
}

// answer sends a passive open's SYN-ACK.
func (pc *pendingConn) answer(fx effects) {
	fx.sendControl(packet.FlagSYN|packet.FlagACK, pc.iss, pc.irs, pc.sackOK)
}

// synAck is the step for a SYN-ACK: an active open completes. One for an
// unknown flow (pc == nil) or for a passive open is ignored.
func (pc *pendingConn) synAck(fx effects, tcp *packet.TCP) bool {
	if pc == nil || !pc.active {
		return false
	}
	pc.irs = tcp.Seq + 1
	// The peer echoes SACK-permitted only if it accepts our offer.
	pc.sackOK = pc.sackOK && tcp.SACKPerm
	fx.sendControl(packet.FlagACK, pc.iss+1, pc.irs, false)
	return pc.establish(fx, tcp.Window)
}

// ack is the step for a passive open's final handshake ACK. Any other
// ACK (stale data for removed connections) is dropped.
func (pc *pendingConn) ack(fx effects, peerWin uint16) bool {
	return pc != nil && !pc.active && pc.establish(fx, peerWin)
}

func (pc *pendingConn) establish(fx effects, peerWin uint16) bool {
	pc.finish()
	fx.establish(peerWin)
	return true
}

// rst is the step for a RST: the flow's half-open, if any, is over.
func (pc *pendingConn) rst() bool { return pc != nil && pc.finish() }

// expire is the step for the handshake timeout: the half-open is reaped.
func (pc *pendingConn) expire(e *env) {
	pc.finish()
	e.HandshakeExpires++
}

// finish uncharges a passive open's listener as the half-open ends.
func (pc *pendingConn) finish() bool {
	if pc.lis != nil {
		pc.lis.pendingN--
	}
	return true
}
