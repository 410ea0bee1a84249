package core

import (
	"flextoe/internal/sim"
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

// kickTX arms the transmit pump (idempotent within an instant).
func (t *TOE) kickTX() {
	if t.txPumpArmed {
		return
	}
	t.txPumpArmed = true
	t.own.ImmediatelyCall(toeTXPump, t)
}

// Long-lived event callbacks for the transmit pump (see
// sim.Engine.AtCall): the TOE itself is the argument, so arming and
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
		conn := t.connOrNil(id)
		if conn == nil {
			continue
		}
		sendable := tcpseg.SendableBytes(&conn.Proto, conn.CWnd)
		if sendable == 0 && conn.Proto.FinSent() {
			continue
		}
		if sendable == 0 && !finPending(conn) {
			continue // stale scheduler entry
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

func finPending(c *Conn) bool {
	// A FIN wanting transmission keeps the flow eligible even with an
	// empty buffer.
	return !c.Proto.FinSent() && c.Proto.TxAvail == 0 && pendingFinFlag(c)
}

func pendingFinFlag(c *Conn) bool {
	// tcpseg keeps the flag private; SendableBytes==0 with a pending FIN
	// still yields a segment from ProcessTX, so probing is safe.
	st := c.Proto
	_, ok := tcpseg.ProcessTX(&st, &c.Post, 1, 0)
	return ok && st.FinSent()
}

// sendDeadline helper for tests.
func (t *TOE) schedDeadline() (sim.Time, bool) { return t.sched.NextDeadline() }
