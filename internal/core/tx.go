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
// that no TX item in flight holds (the post-processor's FS update, Fig.
// 4/6; see txUnscheduled).
func (t *TOE) submitFlow(c *Conn) {
	t.trace.Hit(trace.TPSchedSubmit)
	t.sched.Submit(c.ID)
	t.kickTX()
}

// offerFlow submits the connection when it has bytes no TX item in flight
// holds: after an ACK, a host-control descriptor, a control-plane window
// change or a short TX item.
func (t *TOE) offerFlow(c *Conn) {
	if c.txUnscheduled() > 0 {
		t.submitFlow(c)
	}
}

// txUnscheduled returns the sendable bytes no TX item in flight has
// reserved (txPump debits, protoExec credits back; the run-to-completion
// ablation reserves nothing). A FIN waiting on an empty transmit buffer
// counts its sequence slot: a data item drains the buffer and carries
// the FIN, a selective retransmit never does.
func (c *Conn) txUnscheduled() uint32 {
	p := &c.Proto
	n := tcpseg.SendableBytes(p, c.CWnd)
	if p.FinPending() && !p.FinSent() && p.TxAvail == 0 {
		n++
	}
	if n > c.txSched {
		return n - c.txSched
	}
	return 0
}

// kickTX arms the transmit pump (idempotent within an instant) when the
// flow scheduler holds a flow, ready or on its wheel. A kick on an empty
// carousel does nothing: the pump would find no work, and the flow that
// brings some arrives through submitFlow, which kicks again. Both the
// pipeline and the run-to-completion ablation follow this rule.
func (t *TOE) kickTX() {
	if t.txPumpArmed || t.sched.Empty() {
		return
	}
	t.txPumpArmed = true
	t.own.ImmediatelyCall(toeTXPump, t)
}

// Long-lived event callbacks for the transmit pump (see
// sim.Engine.AfterCall): the TOE itself is the argument, so arming and
// deferring the pump allocate nothing in either pipeline or
// run-to-completion mode.
func toeTXPump(a any) { a.(*TOE).txPump() }
func toeKickTX(a any) { a.(*TOE).kickTX() }

// txPump drains the flow scheduler while pipeline credits remain,
// injecting one segment per scheduler decision (§3.1.2). Each item
// reserves up to an MSS of the unreserved bytes (a bare FIN its sequence
// slot) on the connection until its protocol step runs, so a window is
// handed to the pipeline once. When the scheduler only has future (rate-limited) work,
// the pump re-arms at the wheel's next deadline.
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
		conn, avail := t.txReady(id)
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
		item.txResv = min(avail, t.cfg.MSS)
		conn.txSched += item.txResv
		t.pre.push(item)
		// If unreserved bytes remain past this item, keep it scheduled.
		if avail > t.cfg.MSS {
			t.sched.Submit(id)
		}
	}
	if dl, ok := t.sched.NextDeadline(); ok && dl > t.eng.Now() {
		t.own.AtCall(dl, toeKickTX, t)
	}
}

// txReady returns the connection of a flow the scheduler popped and its
// unreserved sendable bytes, or nil for a stale entry: a removed
// connection, or one whose items in flight hold all it can send.
func (t *TOE) txReady(id uint32) (*Conn, uint32) {
	c := t.connOrNil(id)
	if c == nil {
		return nil, 0
	}
	avail := c.txUnscheduled()
	if avail == 0 {
		return nil, 0
	}
	return c, avail
}
