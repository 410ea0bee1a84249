package core

import (
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/trace"
)

// InjectHC is the host-control entry point (§3.1.1): libTOE (or the
// control plane) has appended a descriptor to a context queue and rings
// the NIC doorbell via MMIO. The context-queue stage polls the doorbell,
// allocates a descriptor buffer from the bounded pool (allocation failure
// flow-controls the host: processing retries), DMAs the descriptor in,
// and steers it into the pipeline.
func (t *TOE) InjectHC(d shm.Desc) {
	item := t.allocSeg()
	item.kind = segHC
	item.hc = d
	t.own.AfterCall(t.cfg.NFP.MMIOLatency, hcDoorbell, item)
}

func hcDoorbell(a any) {
	item := a.(*segItem)
	t := item.toe
	t.trace.Hit(trace.TPCtxQDoorbell)
	conn := t.connOrNil(item.hc.Conn)
	if conn == nil {
		t.putSeg(item)
		return
	}
	if t.mono != nil {
		t.monoHC(conn, item.hc)
		t.putSeg(item)
		return
	}
	item.conn = item.hc.Conn
	item.fg = int(conn.fg)
	t.hcFetch(item)
}

// hcFetch allocates the NIC-side descriptor buffer and fetches the
// descriptor across PCIe ("Fetch" in Fig. 4). The pipeline-entry ticket
// is taken only once the descriptor buffer is held: ticketing before the
// bounded allocation would let parked segments hoard the pool while the
// reorder buffer waits on a starved earlier ticket — deadlock.
func (t *TOE) hcFetch(item *segItem) {
	if !t.descPool.TryAlloc() {
		t.trace.Hit(trace.TPDescAllocFail)
		// Pool exhausted: retry later (§3.1.1 "processing stops and is
		// retried").
		t.own.AfterCall(2*sim.Microsecond, hcRetry, item)
		return
	}
	item.ticket = t.islands[item.fg].entry.ticket()
	// Poll + fetch on a context-queue FPC, then DMA the descriptor.
	fpc := t.ctxSt.fpcs[int(item.conn)&(len(t.ctxSt.fpcs)-1)] // CtxRepl is a power of two
	fpc.SubmitStepCall(sim.Step{Compute: t.scale(t.costs.CtxQPoll)}, hcPolled, item)
}

func hcRetry(a any) {
	item := a.(*segItem)
	item.toe.hcFetch(item)
}

func hcPolled(a any) {
	item := a.(*segItem)
	item.toe.xferCall(shm.DescWireSize, hcFetched, item)
}

func hcFetched(a any) {
	item := a.(*segItem)
	item.toe.pre.push(item)
}
