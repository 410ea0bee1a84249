package ctrl

import (
	"fmt"
	"slices"
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// The tests in this file drive the control step (step.go) with no
// engine, TOE, interface or pool: a recorder is the carrier, and fire
// plays the wheel for one connection's two timers.

const ms = sim.Millisecond

// recorder is a step's carrier in tests: it logs every effect in order
// and keeps the one pending deadline each timer kind can have.
type recorder struct {
	log     []string
	pending map[uint8]sim.Time
}

func newRecorder() *recorder { return &recorder{pending: map[uint8]sim.Time{}} }

func (r *recorder) note(format string, a ...any) { r.log = append(r.log, fmt.Sprintf(format, a...)) }
func (r *recorder) retransmit()                  { r.note("retransmit") }
func (r *recorder) probe()                       { r.note("probe") }
func (r *recorder) reclaim()                     { r.note("reclaim") }
func (r *recorder) setCwnd(bytes uint32)         { r.note("cwnd %d", bytes) }
func (r *recorder) setRate(perByte sim.Time)     { r.note("rate %d", perByte) }
func (r *recorder) establish(peerWin uint16)     { r.note("establish %d", peerWin) }

func (r *recorder) arm(kind uint8, at sim.Time) {
	r.pending[kind] = at
	r.note("arm %s %v", [...]string{"rto", "cc"}[kind], at)
}

func (r *recorder) sendControl(flags uint8, seq, ack uint32, sackPerm bool) {
	r.note("send %#x seq %d ack %d sack %v", flags, seq, ack, sackPerm)
}

// take returns the effects logged since the last take.
func (r *recorder) take() []string {
	out := r.log
	r.log = nil
	return out
}

// fire runs cc's due timers in deadline order, each seeing the NIC state
// v, until none is due by until; a deadline already past fires at once,
// as the carrier's clamp makes it. It returns the time of the last firing.
func (r *recorder) fire(cc *ccState, e *env, v nicView, until sim.Time) (now sim.Time) {
	for {
		kind, at, ok := uint8(0), sim.Time(0), false
		for k, t := range r.pending {
			if t <= until && (!ok || t < at || t == at && k < kind) {
				kind, at, ok = k, t, true
			}
		}
		if !ok {
			return now
		}
		delete(r.pending, kind)
		now = max(now, at)
		if kind == timerRTO {
			cc.rtoFire(r, e, &v, now)
		} else {
			cc.ccFire(r, e, &v, now)
		}
	}
}

func newEnv(algo CCAlgo) *env {
	return &env{cfg: Config{CC: algo, BufSize: 65536, ListenBacklog: 128}}
}

// TestStepSendAfterIdle pins today's behaviour (ROADMAP 6(e)): the RTO
// deadline runs from the last progress the timer saw before it disarmed,
// so the first send after more than an RTO of idle arms a deadline that
// has already passed, and the timer fires at once: it re-sends and,
// under DCTCP, collapses cwnd to 2·MSS. 6(e)'s fix flips the first
// expectation.
func TestStepSendAfterIdle(t *testing.T) {
	for name, algo := range map[string]CCAlgo{"none": CCNone, "dctcp": CCDCTCP} {
		t.Run(name, func(t *testing.T) {
			e, r := newEnv(algo), newRecorder()
			var cc ccState
			cc.open(0)
			// 64 B sent at 0 and acknowledged; the timer sees the ack at 2 ms
			// and disarms, and any CC poll goes quiet.
			cc.kick(r, e, 0)
			r.fire(&cc, e, nicView{una: 64}, 5*ms)
			if cc.rtoArmed || cc.ccArmed || len(r.pending) != 0 {
				t.Fatalf("timers still armed after idle: %v", r.pending)
			}
			// 64 B more at 50 ms.
			now := 50 * ms
			r.take()
			cc.kick(r, e, now)
			if at, ok := r.pending[timerRTO]; !ok || at > now {
				t.Fatalf("first send after idle armed the RTO at %v (armed %v), want a deadline <= %v", at, ok, now)
			}
			r.take()
			busy := nicView{una: 64, txSent: 64}
			cc.rtoFire(r, e, &busy, now)
			got := r.take()
			if e.Timeouts != 1 || !slices.Contains(got, "retransmit") {
				t.Fatalf("firing at %v: timeouts %d, effects %q; want a retransmission", now, e.Timeouts, got)
			}
			if algo == CCDCTCP && (cc.cwnd != 2*mss || !slices.Contains(got, fmt.Sprintf("cwnd %d", 2*mss))) {
				t.Fatalf("DCTCP cwnd %d after the timeout (effects %q), want %d", cc.cwnd, got, 2*mss)
			}
		})
	}
}

// TestStepLastAckGivesUp replays PR 31's LAST-ACK wedge: both FINs were
// exchanged and only ours stays unacknowledged. The timer retransmits
// through the whole back-off series and, at backoff 6, reclaims the
// slot instead of retrying forever. With data outstanding it keeps
// retrying.
func TestStepLastAckGivesUp(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	var cc ccState
	cc.open(0)
	cc.kick(r, e, 0)
	lastAck := nicView{finSent: true, finRx: true}
	now := r.fire(&cc, e, lastAck, sim.Second)
	if e.Timeouts != 6 || r.log[len(r.log)-1] != "reclaim" || len(r.pending) != 0 {
		t.Fatalf("LAST-ACK: %d retransmissions, last effect %q, pending %v; want 6, then reclaim and no timer",
			e.Timeouts, r.log[len(r.log)-1], r.pending)
	}
	// 2 ms, then six back-offs doubling from 4 ms: 2+4+8+16+32+64+128.
	if want := 254 * ms; now != want {
		t.Fatalf("gave up at %v, want %v", now, want)
	}

	e, r = newEnv(CCNone), newRecorder()
	cc.open(0)
	cc.kick(r, e, 0)
	r.fire(&cc, e, nicView{txSent: 10, finSent: true, finRx: true}, sim.Second)
	if slices.Contains(r.log, "reclaim") || e.Timeouts < 7 {
		t.Fatalf("data outstanding: %d timeouts, reclaimed %v; want retries past backoff 6 and no reclaim",
			e.Timeouts, slices.Contains(r.log, "reclaim"))
	}
}

// TestStepLingerReclaim: a connection closed both ways and acknowledged
// lingers 4·minRTO from the firing that finds it closed, then is reclaimed.
func TestStepLingerReclaim(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	var cc ccState
	cc.open(0)
	cc.kick(r, e, 0)
	closed := nicView{finSent: true, finAcked: true, finRx: true}
	r.fire(&cc, e, closed, 2*ms)
	if at := r.pending[timerRTO]; at != 2*ms+4*minRTO {
		t.Fatalf("linger armed to %v, want %v", at, 2*ms+4*minRTO)
	}
	if now := r.fire(&cc, e, closed, sim.Second); now != 10*ms || r.log[len(r.log)-1] != "reclaim" {
		t.Fatalf("at %v effects %q; want reclaim at 10ms", now, r.log)
	}
}

// TestStepPersistBackoff: a zero window with data staged starts the
// persist timer one RTO out, then probes with doubling intervals capped
// at 64·RTO.
func TestStepPersistBackoff(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	var cc ccState
	cc.open(0)
	cc.kick(r, e, 0)
	stalled := nicView{txAvail: 100}
	var arms []sim.Time
	for len(arms) < 9 {
		now := r.fire(&cc, e, stalled, r.pending[timerRTO])
		arms = append(arms, r.pending[timerRTO]-now)
	}
	want := []sim.Time{2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 128 * ms, 128 * ms, 128 * ms}
	if !slices.Equal(arms, want) || e.ZeroWindowProbes != 8 {
		t.Fatalf("persist intervals %v, probes %d; want %v, 8", arms, e.ZeroWindowProbes, want)
	}
	if cc.backoff != 0 {
		t.Fatalf("persist left RTO backoff %d, want 0", cc.backoff)
	}
}

// passive opens a half-open for a SYN to lis at now, as the carrier does.
func passive(t *testing.T, r *recorder, e *env, lis *listener, now sim.Time) *pendingConn {
	t.Helper()
	if !lis.syn(r, e, nil, now) {
		t.Fatalf("SYN at %v refused (backlog %d)", now, lis.pendingN)
	}
	pc := &pendingConn{lis: lis, iss: 1000, irs: 501, sackOK: true}
	pc.open(r)
	return pc
}

// TestStepDuplicateSYN: a retransmitted SYN for a half-open is answered
// with the same SYN-ACK and charges the backlog once.
func TestStepDuplicateSYN(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	lis := &listener{tokens: 1}
	pc := passive(t, r, e, lis, 0)
	first := r.take()
	if lis.syn(r, e, pc, ms) {
		t.Fatal("duplicate SYN opened a second half-open")
	}
	again := r.take()
	if lis.pendingN != 1 || e.SYNDrops != 0 || len(first) != 1 || !slices.Equal(first, again) {
		t.Fatalf("backlog %d, drops %d, first answer %q, second %q; want 1, 0 and the same SYN-ACK twice",
			lis.pendingN, e.SYNDrops, first, again)
	}
}

// TestStepSYNACKIgnored: a SYN-ACK for an unknown flow or for a passive
// open is dropped with no effect; an active open's completes it.
func TestStepSYNACKIgnored(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	synAck := &packet.TCP{Seq: 7000, Flags: packet.FlagSYN | packet.FlagACK, Window: 512, SACKPerm: true}
	var unknown *pendingConn
	pc := passive(t, r, e, &listener{tokens: 1}, 0)
	r.take()
	if unknown.synAck(r, synAck) || pc.synAck(r, synAck) || len(r.log) != 0 || pc.irs != 501 {
		t.Fatalf("stray SYN-ACK: effects %q, passive irs %d; want none, 501", r.log, pc.irs)
	}
	dial := &pendingConn{iss: 9, active: true, sackOK: false}
	dial.open(r)
	if !dial.synAck(r, synAck) {
		t.Fatal("an active open's SYN-ACK did not end the half-open")
	}
	want := []string{"send 0x2 seq 9 ack 0 sack false", "send 0x10 seq 10 ack 7001 sack false", "establish 512"}
	if got := r.take(); !slices.Equal(got, want) || dial.sackOK {
		t.Fatalf("dial: effects %q, sack %v; want %q, no SACK (not offered)", got, dial.sackOK, want)
	}
}

// TestStepRSTAndExpiryDropHalfOpen: a RST or the handshake timeout ends a
// half-open and uncharges its listener; a RST for no half-open does nothing.
func TestStepRSTAndExpiryDropHalfOpen(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	lis := &listener{tokens: 1}
	a, b := passive(t, r, e, lis, 0), passive(t, r, e, lis, 0)
	r.take()
	var none *pendingConn
	if none.rst() || !a.rst() || lis.pendingN != 1 {
		t.Fatalf("after RST: backlog %d, want 1", lis.pendingN)
	}
	b.expire(e)
	if lis.pendingN != 0 || e.HandshakeExpires != 1 || len(r.log) != 0 {
		t.Fatalf("after expiry: backlog %d, expires %d, effects %q; want 0, 1, none", lis.pendingN, e.HandshakeExpires, r.log)
	}
}

// TestStepSYNDropCounters: a full backlog and an empty accept-rate bucket
// each drop a SYN silently and count it.
func TestStepSYNDropCounters(t *testing.T) {
	e, r := newEnv(CCNone), newRecorder()
	e.cfg.ListenBacklog = 2
	lis := &listener{tokens: 1}
	passive(t, r, e, lis, 0)
	passive(t, r, e, lis, 0)
	r.take()
	if lis.syn(r, e, nil, 0) || e.SYNDrops != 1 || e.BacklogOverflows != 1 || e.AcceptRateDrops != 0 || len(r.log) != 0 {
		t.Fatalf("backlog full: drops %d, overflows %d, rate drops %d, effects %q; want 1, 1, 0, none",
			e.SYNDrops, e.BacklogOverflows, e.AcceptRateDrops, r.log)
	}

	e = newEnv(CCNone)
	e.cfg.AcceptRate = 1000 // one SYN per millisecond
	lis = &listener{tokens: 1}
	passive(t, r, e, lis, 0)
	if lis.syn(r, e, nil, ms/2) || e.SYNDrops != 1 || e.AcceptRateDrops != 1 || e.BacklogOverflows != 0 {
		t.Fatalf("bucket empty: drops %d, rate drops %d, overflows %d; want 1, 1, 0", e.SYNDrops, e.AcceptRateDrops, e.BacklogOverflows)
	}
	passive(t, r, e, lis, 3*ms/2)
}

// TestStepCCPollRearmsRTO: a CC poll that finds data outstanding and the
// RTO timer disarmed arms it before re-arming itself, and leaves it alone
// when nothing is outstanding or it is armed.
func TestStepCCPollRearmsRTO(t *testing.T) {
	for _, c := range []struct {
		name     string
		v        nicView
		rtoArmed bool
		want     []string
	}{
		{"data", nicView{txSent: 1448}, false, []string{"arm rto 2.000ms", "arm cc 1.100ms"}},
		{"fin", nicView{finSent: true}, false, []string{"arm rto 2.000ms", "arm cc 1.100ms"}},
		{"idle", nicView{}, false, []string{"arm cc 1.100ms"}},
		{"armed", nicView{txSent: 1448}, true, []string{"arm cc 1.100ms"}},
	} {
		e, r := newEnv(CCDCTCP), newRecorder()
		var cc ccState
		cc.open(0)
		cc.ccArmed, cc.rtoArmed = true, c.rtoArmed
		cc.ccFire(r, e, &c.v, ms)
		if got := r.take(); !slices.Equal(got, c.want) {
			t.Errorf("%s: effects %q, want %q", c.name, got, c.want)
		}
	}
}
