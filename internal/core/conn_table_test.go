package core

import (
	"runtime"
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// allocTOE builds a standalone TOE for table-level tests (no peer, no
// traffic).
func allocTOE() *TOE {
	eng := sim.New()
	n := netsim.NewNetwork(eng, netsim.SwitchConfig{})
	iface := n.AttachHost("a", packet.MAC(2, 0, 0, 0, 0, 1), netsim.GbpsToBytesPerSec(40), 0)
	return New(eng, AgilioCX40Config(), iface)
}

func flowN(i int) packet.Flow {
	return packet.Flow{
		SrcIP:   packet.IP(10, 0, 0, 1),
		DstIP:   packet.IP(172, byte(16+(i>>16)), byte(i>>8), byte(i)),
		SrcPort: 1000,
		DstPort: 2000,
	}
}

// TestConnTableAllocBudget is the CI allocation gate for the slab
// connection table (doc.go "Connection state budget"):
//
//   - flow lookup: 0 allocations — it is on the per-segment fast path;
//   - warm establish/teardown: 0 allocations — churn reuses freed slots,
//     index tombstone-free via backward-shift deletion;
//   - cold establish: amortized well below one allocation per connection
//     (block-granular slab growth plus doubling index/free-ring growth).
func TestConnTableAllocBudget(t *testing.T) {
	toe := allocTOE()
	tx := shm.NewPayloadBuf(4096)
	rx := shm.NewPayloadBuf(4096)

	// Cold establish: count mallocs across 10k fresh installs.
	const n = 10_000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		toe.AddConnection(flowN(i), packet.EtherAddr{}, uint32(i), 0, tx, rx, 0, nil)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > n/50 {
		t.Errorf("cold establish: %d mallocs for %d connections (%.3f/conn), want amortized < 0.02",
			mallocs, n, float64(mallocs)/n)
	}

	// Lookup: strictly zero allocations per segment.
	f := flowN(n / 2)
	h := f.Hash()
	if avg := testing.AllocsPerRun(1000, func() {
		if toe.lookupFlow(f, h) == nil {
			t.Fatal("lookup missed an installed flow")
		}
	}); avg != 0 {
		t.Errorf("lookup allocates %.2f/op, want 0", avg)
	}

	// Warm churn: teardown + establish must reuse the freed slot and the
	// index's existing buckets.
	i := n
	if avg := testing.AllocsPerRun(1000, func() {
		c := toe.AddConnection(flowN(i), packet.EtherAddr{}, 1, 0, tx, rx, 0, nil)
		toe.RemoveConnection(c.ID)
		i++
	}); avg != 0 {
		t.Errorf("warm establish/teardown allocates %.2f/op, want 0", avg)
	}

	if got := toe.NumConnections(); got != n {
		t.Fatalf("expected %d live connections after churn, got %d", n, got)
	}
}
