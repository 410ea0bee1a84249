package xval

import (
	"testing"

	"flextoe/internal/apps"
	"flextoe/internal/flowmon"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
	"flextoe/internal/trace"
)

// costProbe is one observability-cost measurement: a saturating small-RPC
// workload with optional full tracing and optional passive NIC taps.
type costProbe struct {
	completed uint64 // closed-loop RPCs finished in the fixed window
	rxSegs    uint64 // server TOE segments processed
	txSegs    uint64 // server TOE segments emitted
	events    uint64 // engine events processed
}

func runCostProbe(traceAll, taps bool) costProbe {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, Seed: 1},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, Seed: 2},
	)
	srv := tb.M("server")
	if traceAll {
		srv.TOE.Trace().EnableAll()
	}
	if taps {
		flowmon.Attach(flowmon.New(flowmon.Config{}), srv.Iface)
		flowmon.Attach(flowmon.New(flowmon.Config{}), tb.M("client").Iface)
	}
	rpc := &apps.RPCServer{ReqSize: 64}
	rpc.Serve(srv.Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 8}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 100)
	tb.Run(5 * sim.Millisecond)

	return costProbe{completed: cl.Completed, rxSegs: srv.TOE.RxSegs, txSegs: srv.TOE.TxSegs, events: tb.Eng.Processed()}
}

// TestTracepointCostRegression: enabling all 48 tracepoints charges
// CyclesPerHit per hit on the data path, so the same wall-clock window
// must complete strictly fewer RPCs than the untraced run. If this test
// fails, tracepoint hits stopped being charged to the pipeline.
func TestTracepointCostRegression(t *testing.T) {
	if trace.NumPoints != 48 {
		t.Fatalf("tracepoint registry has %d points, contract says 48", trace.NumPoints)
	}
	base := runCostProbe(false, false)
	traced := runCostProbe(true, false)
	if base.completed == 0 {
		t.Fatal("workload inert: no RPCs completed")
	}
	if traced.completed >= base.completed {
		t.Fatalf("tracing is free: %d RPCs traced >= %d untraced (48 tracepoints x %d cycles/hit must slow the data path)",
			traced.completed, base.completed, trace.CyclesPerHit)
	}
}

// TestAnalyzerTapZeroCost: the netsim passive taps charge no simulated
// cost and perturb nothing — the tapped run is bit-identical to the bare
// run, down to the engine's event count.
func TestAnalyzerTapZeroCost(t *testing.T) {
	bare := runCostProbe(false, false)
	tapped := runCostProbe(false, true)
	if bare != tapped {
		t.Fatalf("taps perturbed the run: bare %+v, tapped %+v", bare, tapped)
	}
}
