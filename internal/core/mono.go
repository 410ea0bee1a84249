package core

import (
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// Run-to-completion mode: the Table 3 ablation baseline, a cost model
// over the pipeline's own decisions. The entire TCP data-path executes on
// a single FPC before the next segment is touched — no pipelining, no
// stall overlap, no caching discipline, and a monolithic code footprint
// that blows the 32 KB FPC codestore (modeled as an instruction-fetch
// penalty on every instruction). Each completion runs the pipeline's own
// per-segment methods (rxProto, hcProto, txProto and the steps beside
// them in pipeline.go); this file holds only the cost: the summed
// instructions, the blocking transfers, the one FPC and its tasks.

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
	conn := t.rxConn(pkt)
	if conn == nil {
		return
	}
	c := &t.costs
	instr := t.monoInstr(c.PreValidate + c.PreLookup + c.PreSummary + c.ProtoRX +
		c.PostAck + c.PostStamp + c.PostStats + c.PostPos + c.PostNotify +
		c.DMAIssue + c.CtxQNotify)
	payloadDMA := t.blockingXferTime(len(pkt.Payload))
	descDMA := t.blockingXferTime(shm.DescWireSize)
	task := sim.TaskC(instr/3).
		Add(0, t.stalls.monoLookup).      // uncached lookup + codestore refill from IMEM
		Add(instr/3, t.stalls.monoState). // uncached state fetch + writeback
		Add(instr/3, payloadDMA).         // blocking payload DMA
		Add(0, descDMA)                   // blocking notification
	w := t.getMonoWork()
	w.t, w.conn, w.pkt = t, conn.ID, pkt
	t.mono.SubmitCall(task, monoRXDone, w)
}

func monoRXDone(a any) {
	w := a.(*monoWork)
	t, pkt := w.t, w.pkt
	conn := t.connOrNil(w.conn)
	t.putMonoWork(w)
	if conn == nil {
		packet.Release(pkt)
		return
	}
	info := tcpseg.Summarize(pkt)
	var res tcpseg.RXResult
	t.rxProto(conn, &info, &res)
	if res.WriteLen > 0 {
		landPayload(conn, pkt, &res)
	}
	packet.Release(pkt) // the run-to-completion path consumes it here
	if res.SendAck {
		t.sendAck(t.buildAck(conn, &res))
	}
	t.notifyHost(conn, &res)
	t.rxPost(conn)
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
	instr := t.monoInstr(c.CtxQPoll + c.ProtoHC + c.PostStats)
	task := sim.TaskC(instr).
		Add(0, t.blockingXferTime(shm.DescWireSize)).
		Add(0, t.stalls.monoDRAM)
	w := t.getMonoWork()
	w.t, w.conn, w.d = t, conn.ID, d
	t.mono.SubmitCall(task, monoHCDone, w)
}

func monoHCDone(a any) {
	w := a.(*monoWork)
	t, d := w.t, w.d
	conn := t.connOrNil(w.conn)
	t.putMonoWork(w)
	if conn == nil {
		return
	}
	var ack tcpseg.RXResult
	if t.hcProto(conn, d, &ack) {
		t.sendAck(t.buildAck(conn, &ack))
	}
	t.hcPost(conn)
}

func (t *TOE) monoTXPump() {
	// One segment at a time: pop, process to completion, transmit, loop.
	if t.mono.FreeThreads() == 0 {
		t.mono.Idle = t.monoWake
		return
	}
	id, ok := t.sched.Next(t.cfg.MSS)
	if !ok {
		if dl, ok := t.sched.NextDeadline(); ok && dl > t.eng.Now() {
			t.own.AtCall(dl, toeKickTX, t)
		}
		return
	}
	conn, sendable := t.txReady(id)
	if conn == nil {
		t.kickTX()
		return
	}
	c := &t.costs
	instr := t.monoInstr(c.PreAlloc + c.PreHeader + c.ProtoTX + c.PostPos + c.PostStats + c.DMAIssue)
	if sendable > t.cfg.MSS {
		sendable = t.cfg.MSS
	}
	task := sim.TaskC(instr/2).
		Add(0, t.stalls.monoState).
		Add(instr/2, t.blockingXferTime(int(sendable)))
	w := t.getMonoWork()
	w.t, w.conn = t, id
	t.mono.SubmitCall(task, monoTXDone, w)
}

func monoTXDone(a any) {
	w := a.(*monoWork)
	t, id := w.t, w.conn
	conn := t.connOrNil(id)
	t.putMonoWork(w)
	if conn == nil {
		t.kickTX()
		return
	}
	var tx tcpseg.TXResult
	if t.txProto(conn, &tx) {
		t.countTX(&tx)
		t.sendFrame(t.buildData(conn, &tx))
		t.offerFlow(conn)
	}
	t.kickTX()
}
