package core

import (
	"flextoe/internal/tcpseg"
	"flextoe/internal/trace"
)

// txWindowLimit bounds TX segments in flight through the pipeline, so the
// scheduler cannot flood a single stage (the segment pool provides the
// hard bound; this keeps latency low).
const txWindowLimit = 64

// submitFlow tells the flow scheduler the connection has data and quota
// (the post-processor's FS update, Fig. 4/6).
func (t *TOE) submitFlow(c *Conn) {
	t.trace.Hit(trace.TPSchedSubmit)
	t.sched.Submit(c.ID)
	t.kickTX()
}

// kickConn is the control plane's poke after reprogramming windows.
func (t *TOE) kickConn(c *Conn) {
	if tcpseg.SendableBytes(&c.Proto, c.CWnd) > 0 {
		t.submitFlow(c)
	}
}

// kickTX arms the transmit pump (idempotent within an instant) when the
// flow scheduler holds a flow, ready or on its wheel. A kick that finds the
// carousel empty is only held, with its instant: armed, the pump would run
// and find nothing unless a flow arrived before its turn, and a flow
// arrives through submitFlow, whose own kick then arms it. That later arm
// takes the place the held kick's arm would have had: the TOE arms a held
// kick before it queues any later event of its own at that instant
// (ownNow), and other owners' events order against the pump by rank, not
// by sequence. The run-to-completion ablation arms on every kick.
func (t *TOE) kickTX() {
	if t.txPumpArmed {
		return
	}
	if !t.eagerTX && t.sched.Empty() {
		t.txKickHeld, t.txKickAt = true, t.eng.Now()
		return
	}
	t.armTX()
}

// armTX queues the pump at the current instant.
func (t *TOE) armTX() {
	t.txPumpArmed, t.txKickHeld = true, false
	t.own.ImmediatelyCall(toeTXPump, t)
}

// ownNow schedules cb(arg) on the TOE's own key at the current instant,
// behind a pump for a kick held at this instant (see kickTX).
func (t *TOE) ownNow(cb func(any), arg any) {
	if t.txKickHeld && t.txKickAt == t.eng.Now() {
		t.armTX()
	}
	t.own.ImmediatelyCall(cb, arg)
}

// Long-lived event callbacks for the transmit pump (see
// sim.Engine.AfterCall): the TOE itself is the argument, so arming and
// deferring the pump allocate nothing in either pipeline or
// run-to-completion mode.
func toeTXPump(a any) { a.(*TOE).txPump() }
func toeKickTX(a any) { a.(*TOE).kickTX() }

// txPump drains the flow scheduler while pipeline credits remain,
// injecting one segment per scheduler decision (§3.1.2). When the
// scheduler only has future (rate-limited) work, the pump re-arms at the
// wheel's next deadline.
func (t *TOE) txPump() {
	t.txPumpArmed = false
	if t.mono != nil {
		t.monoTXPump()
		return
	}
	for t.txInflight < txWindowLimit {
		id, ok := t.sched.Next(t.cfg.MSS)
		if !ok {
			break
		}
		t.trace.Hit(trace.TPSchedPop)
		conn, sendable := t.txReady(id)
		if conn == nil {
			continue
		}
		if !t.segPool.TryAlloc() {
			t.trace.Hit(trace.TPSegAllocFail)
			// Out of segment buffers: retry when one frees (nbiOut kicks).
			t.sched.Submit(id)
			break
		}
		t.txInflight++
		item := t.allocSeg()
		item.kind = segTX
		item.conn = id
		item.fg = int(conn.fg)
		item.ticket = t.islands[int(conn.fg)].entry.ticket()
		t.pre.push(item)
		// If the flow can send more than one MSS, keep it scheduled.
		if sendable > t.cfg.MSS {
			t.sched.Submit(id)
		}
	}
	if dl, ok := t.sched.NextDeadline(); ok && dl > t.eng.Now() {
		t.own.AtCall(dl, toeKickTX, t)
	}
}

// txReady returns the connection of a flow the scheduler popped and its
// sendable bytes, or nil for a stale entry: a removed connection, or one
// with nothing sendable and no FIN waiting on an emptied transmit buffer
// (a FIN keeps the flow eligible even with an empty buffer).
func (t *TOE) txReady(id uint32) (*Conn, uint32) {
	c := t.connOrNil(id)
	if c == nil {
		return nil, 0
	}
	p := &c.Proto
	sendable := tcpseg.SendableBytes(p, c.CWnd)
	if sendable == 0 && (p.FinSent() || p.TxAvail != 0 || !p.FinPending()) {
		return nil, 0
	}
	return c, sendable
}
