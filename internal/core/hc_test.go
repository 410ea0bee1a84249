package core

import (
	"testing"

	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/trace"
)

// TestHCDescriptorPoolRetry: more host-control descriptors than the NIC's
// descriptor pool holds ring the doorbell at one instant. The context-queue
// stage flow-controls the host — a descriptor that finds the pool empty is
// retried 2 µs later (hcRetry; §3.1.1 "processing stops and is retried") —
// and still processes every one: HCOps counts all of them, the pool drains
// to 0 in use, and the allocation-failure tracepoint fired.
func TestHCDescriptorPoolRetry(t *testing.T) {
	p := defaultPair(t, 65536)
	toe := p.toeA
	toe.Trace().EnableAll()
	const n = descPoolSize + 44
	for range n {
		toe.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: p.a.conn.ID})
	}
	p.eng.RunUntil(sim.Millisecond)
	if toe.HCOps != n {
		t.Fatalf("processed %d of %d descriptors", toe.HCOps, n)
	}
	if got := toe.descPool.Lent(); got != 0 {
		t.Fatalf("descriptor pool has %d in use after the burst drained", got)
	}
	if toe.descPool.PeakInUse != descPoolSize {
		t.Fatalf("pool peaked at %d of %d: the burst never exhausted it", toe.descPool.PeakInUse, descPoolSize)
	}
	if fails := toe.Trace().Count(trace.TPDescAllocFail); fails < n-descPoolSize {
		t.Fatalf("desc_alloc_fail hit %d times, want >= %d", fails, n-descPoolSize)
	}
}
