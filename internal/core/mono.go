package core

import (
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// Run-to-completion mode: the Table 3 ablation baseline. The entire TCP
// data-path executes on a single FPC before the next segment is touched —
// no pipelining, no stall overlap, no caching discipline, and a monolithic
// code footprint that blows the 32 KB FPC codestore (modeled as an
// instruction-fetch penalty on every instruction).

func (t *TOE) monoInstr(base int64) int64 {
	return int64(float64(base) * t.costs.MonolithicFetchPenalty)
}

// monoWork carries one run-to-completion task from Submit to its handler
// without a closure per segment. Pooled: each handler consumes and
// recycles the carrier before running the protocol logic.
type monoWork struct {
	t    *TOE
	conn uint32
	pkt  *packet.Packet
	d    shm.Desc
}

func (t *TOE) getMonoWork() *monoWork {
	if w := t.monoFree.Get(); w != nil {
		return w
	}
	return &monoWork{}
}

func (t *TOE) putMonoWork(w *monoWork) {
	*w = monoWork{}
	t.monoFree.Put(w)
}

func (t *TOE) monoRX(pkt *packet.Packet) {
	if !pkt.TCP.IsDataPath() {
		t.toControl(pkt)
		return
	}
	conn := t.lookupFlow(pkt.Flow().Reverse(), pkt.RevFlowHash())
	if conn == nil {
		t.toControl(pkt)
		return
	}
	c := &t.costs
	n := &t.cfg.NFP
	instr := t.monoInstr(c.PreValidate + c.PreLookup + c.PreSummary + c.ProtoRX +
		c.PostAck + c.PostStamp + c.PostStats + c.PostPos + c.PostNotify +
		c.DMAIssue + c.CtxQNotify)
	payloadDMA := t.blockingXferTime(len(pkt.Payload))
	descDMA := t.blockingXferTime(shm.DescWireSize)
	task := sim.TaskC(instr/3).
		Add(0, n.CyclesTime(n.IMEMCycles+1500)).    // uncached lookup + codestore refill from IMEM
		Add(instr/3, n.CyclesTime(2*n.DRAMCycles)). // uncached state fetch + writeback
		Add(instr/3, payloadDMA).                   // blocking payload DMA
		Add(0, descDMA)                             // blocking notification
	w := t.getMonoWork()
	w.t, w.conn, w.pkt = t, conn.ID, pkt
	t.mono.SubmitCall(task, monoRXDone, w)
}

func monoRXDone(a any) {
	w := a.(*monoWork)
	t, pkt := w.t, w.pkt
	conn2 := t.connOrNil(w.conn)
	t.putMonoWork(w)
	if conn2 == nil {
		packet.Release(pkt)
		return
	}
	info := tcpseg.Summarize(pkt)
	if cap := t.dynOOOCap; cap != 0 && conn2.Proto.OOOCap != cap {
		conn2.Proto.OOOCap = cap
	}
	res := tcpseg.ProcessRX(&conn2.Proto, &conn2.Post, &info, t.tsNow())
	if res.WriteLen > 0 {
		conn2.RxBuf.WriteAt(res.WritePos, pkt.Payload[res.WriteOff:res.WriteOff+res.WriteLen])
	}
	packet.Release(pkt) // the run-to-completion path consumes it here
	t.RxSegs++
	t.RxBytes += uint64(info.PayloadLen)
	if res.SACKReneged {
		t.SACKReneges++
	}
	if res.FastRetransmit {
		t.FastRetx++
		if res.SACKRetransmit {
			t.SACKRetx++
		}
	}
	t.countReassembly(&res)
	t.maybeTimerKick(conn2)
	if res.SendAck {
		s := &segItem{kind: segRX, conn: conn2.ID, rx: res}
		t.AcksSent++
		t.sendFrame(t.buildAck(conn2, s))
	}
	s := &segItem{rx: res}
	t.monoNotify(conn2, s)
	if tcpseg.SendableBytes(&conn2.Proto, conn2.CWnd) > 0 {
		t.submitFlow(conn2)
	}
}

func (t *TOE) monoNotify(conn *Conn, s *segItem) {
	if conn.Notify == nil {
		return
	}
	if s.rx.NewInOrder > 0 {
		conn.Notify(shm.Desc{Kind: shm.DescRxNotify, Conn: conn.ID, Bytes: s.rx.NewInOrder, Opaque: conn.Post.Opaque})
		t.Notifies++
	}
	if s.rx.AckedBytes > 0 {
		conn.Notify(shm.Desc{Kind: shm.DescTxFree, Conn: conn.ID, Bytes: s.rx.AckedBytes, Opaque: conn.Post.Opaque})
	}
	if s.rx.FinRx {
		conn.Notify(shm.Desc{Kind: shm.DescFinRx, Conn: conn.ID, Opaque: conn.Post.Opaque})
	}
}

// blockingXferTime is a host transfer with the FPC stalled on it.
func (t *TOE) blockingXferTime(bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	rate := t.cfg.NFP.PCIeBytesPerSec
	if t.cfg.CopyBytesPerSec > 0 {
		rate = t.cfg.CopyBytesPerSec
	}
	return sim.Time(float64(bytes)/rate*1e12) + t.cfg.NFP.PCIeLatency
}

func (t *TOE) monoHC(conn *Conn, d shm.Desc) {
	c := &t.costs
	n := &t.cfg.NFP
	instr := t.monoInstr(c.CtxQPoll + c.ProtoHC + c.PostStats)
	task := sim.TaskC(instr).
		Add(0, t.blockingXferTime(shm.DescWireSize)).
		Add(0, n.CyclesTime(n.DRAMCycles))
	w := t.getMonoWork()
	w.t, w.conn, w.d = t, conn.ID, d
	t.mono.SubmitCall(task, monoHCDone, w)
}

func monoHCDone(a any) {
	w := a.(*monoWork)
	t, d := w.t, w.d
	conn2 := t.connOrNil(w.conn)
	t.putMonoWork(w)
	if conn2 == nil {
		return
	}
	res := tcpseg.ProcessHC(&conn2.Proto, &conn2.Post, hcOpOf(d))
	t.HCOps++
	t.maybeTimerKick(conn2)
	if res.SendWindowUpdate {
		// Re-advertise the reopened window (same zero-window
		// deadlock repair as the pipeline's HC path).
		s := &segItem{kind: segHC, conn: conn2.ID, rx: tcpseg.WindowUpdateAck(&conn2.Proto)}
		t.AcksSent++
		t.sendFrame(t.buildAck(conn2, s))
	}
	if tcpseg.SendableBytes(&conn2.Proto, conn2.CWnd) > 0 || conn2.Proto.TxAvail > 0 {
		t.submitFlow(conn2)
	}
}

func (t *TOE) monoTXPump() {
	// One segment at a time: pop, process to completion, transmit, loop.
	if t.mono.FreeThreads() == 0 {
		t.mono.Idle = func() { t.mono.Idle = nil; t.kickTX() }
		return
	}
	id, ok := t.sched.Next(t.cfg.MSS)
	if !ok {
		if dl, ok := t.sched.NextDeadline(); ok && dl > t.eng.Now() {
			t.own.AtCall(dl, toeKickTX, t)
		}
		return
	}
	conn := t.connOrNil(id)
	if conn == nil {
		t.kickTX()
		return
	}
	c := &t.costs
	n := &t.cfg.NFP
	instr := t.monoInstr(c.PreAlloc + c.PreHeader + c.ProtoTX + c.PostPos + c.PostStats + c.DMAIssue)
	sendable := tcpseg.SendableBytes(&conn.Proto, conn.CWnd)
	if sendable > t.cfg.MSS {
		sendable = t.cfg.MSS
	}
	task := sim.TaskC(instr/2).
		Add(0, n.CyclesTime(2*n.DRAMCycles)).
		Add(instr/2, t.blockingXferTime(int(sendable)))
	w := t.getMonoWork()
	w.t, w.conn = t, id
	t.mono.SubmitCall(task, monoTXDone, w)
}

func monoTXDone(a any) {
	w := a.(*monoWork)
	t, id := w.t, w.conn
	conn2 := t.connOrNil(id)
	t.putMonoWork(w)
	if conn2 == nil {
		t.kickTX()
		return
	}
	txr, ok := tcpseg.ProcessTX(&conn2.Proto, &conn2.Post, t.cfg.MSS, conn2.CWnd)
	t.maybeTimerKick(conn2)
	if ok {
		s := &segItem{kind: segTX, conn: id, tx: txr}
		t.TxSegs++
		t.TxBytes += uint64(txr.Len)
		if txr.RetxBytes > 0 {
			t.RetxSegs++
			t.RetxBytes += uint64(txr.RetxBytes)
		}
		t.sendFrame(t.buildData(conn2, s))
		if tcpseg.SendableBytes(&conn2.Proto, conn2.CWnd) > 0 {
			t.sched.Submit(id)
		}
	}
	t.kickTX()
}
