package experiments

import (
	"testing"

	"flextoe/internal/apps"
	"flextoe/internal/core"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
	"flextoe/internal/testbed"
)

// determinismRun executes one seeded lossy bidirectional FlexTOE workload
// (loss injection, SACK recovery, delayed DMA, profiling tracepoints all
// active) and returns everything an identical re-run must reproduce
// bit-for-bit: event count, data-path counters, and tracepoint hits.
type determinismResult struct {
	processed   uint64 // engine events processed
	srvCounters core.Counters
	clCounters  core.Counters
	received    uint64
	completed   uint64
	srvTrace    map[string]uint64
}

func determinismRun(seed uint64) determinismResult {
	cfg := core.AgilioCX40Config()
	cfg.OOOIntervals = tcpseg.MaxOOOIntervals
	cfg.EnableSACK = true
	tb := testbed.New(netsim.SwitchConfig{LossProb: 0.002, Seed: seed},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 17, FlexCfg: &cfg, Seed: seed + 1},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 17, FlexCfg: &cfg, Seed: seed + 2},
	)
	srv := tb.M("server")
	cl := tb.M("client")
	srv.TOE.Trace().EnableAll()

	sink := &apps.BulkSink{}
	sink.Serve(srv.Stack, 9000)
	for i := 0; i < 4; i++ {
		snd := &apps.BulkSender{}
		snd.Start(cl.Stack, tb.Addr("server", 9000))
	}
	rpc := &apps.RPCServer{ReqSize: 64}
	rpc.Serve(srv.Stack, 7777)
	echo := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 4}
	echo.Start(cl.Stack, tb.Addr("server", 7777), 8)

	tb.Run(8 * sim.Millisecond)

	hits := make(map[string]uint64)
	for _, pc := range srv.TOE.Trace().Snapshot() {
		hits[pc.Point.Name()] = pc.Count
	}
	return determinismResult{
		processed:   tb.Eng.Processed(),
		srvCounters: srv.TOE.Counters,
		clCounters:  cl.TOE.Counters,
		received:    sink.Received,
		completed:   echo.Completed,
		srvTrace:    hits,
	}
}

// TestDeterminismSameSeedBitIdentical is the engine-swap safety net: the
// timing wheel (with its pooled events, recycled segments and packets)
// must reproduce a seeded experiment exactly — same event count, same
// counters, same tracepoint hits — across repeated runs in one process,
// where pool reuse patterns differ between the first (cold) and later
// (warm) executions.
func TestDeterminismSameSeedBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 42, 9000} {
		a := determinismRun(seed)
		b := determinismRun(seed)
		if a.processed != b.processed {
			t.Fatalf("seed %d: Engine.Processed %d vs %d", seed, a.processed, b.processed)
		}
		if a.srvCounters != b.srvCounters {
			t.Fatalf("seed %d: server counters diverge:\n%+v\n%+v", seed, a.srvCounters, b.srvCounters)
		}
		if a.clCounters != b.clCounters {
			t.Fatalf("seed %d: client counters diverge:\n%+v\n%+v", seed, a.clCounters, b.clCounters)
		}
		if a.received != b.received || a.completed != b.completed {
			t.Fatalf("seed %d: app results diverge: %d/%d vs %d/%d",
				seed, a.received, a.completed, b.received, b.completed)
		}
		if len(a.srvTrace) != len(b.srvTrace) {
			t.Fatalf("seed %d: trace snapshot sizes %d vs %d", seed, len(a.srvTrace), len(b.srvTrace))
		}
		for name, n := range a.srvTrace {
			if b.srvTrace[name] != n {
				t.Fatalf("seed %d: trace %s: %d vs %d", seed, name, n, b.srvTrace[name])
			}
		}
	}
	// Different seeds must actually produce different executions, or the
	// assertions above are vacuous.
	if a, b := determinismRun(1), determinismRun(2); a.processed == b.processed &&
		a.srvCounters == b.srvCounters {
		t.Fatal("different seeds produced identical runs; workload is not exercising randomness")
	}
}
