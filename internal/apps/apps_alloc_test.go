package apps

import (
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/stats"
	"flextoe/internal/testbed"
)

// rpcPair is a steady-state fixed-size RPC workload over a two-machine
// FlexTOE testbed: the app-layer analogue of core's benchPair.
type rpcPair struct {
	tb  *testbed.Testbed
	srv *RPCServer
	cli *ClosedLoopClient
}

func newRPCPair(reqSize, pipeline int) *rpcPair {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 41},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 42},
	)
	srv := &RPCServer{ReqSize: reqSize, AppCycles: 250}
	srv.Serve(tb.M("server").Stack, 9100)
	cli := &ClosedLoopClient{ReqSize: reqSize, Pipeline: pipeline, Latency: stats.NewHistogram()}
	cli.Start(tb.M("client").Stack, tb.Addr("server", 9100), 2)
	return &rpcPair{tb: tb, srv: srv, cli: cli}
}

// runRequests steps the engine until n more requests complete.
func (p *rpcPair) runRequests(n uint64) {
	target := p.cli.Completed + n
	for p.cli.Completed < target {
		if !p.tb.Eng.Step() {
			panic("apps: RPC workload stalled")
		}
	}
}

// TestAppSteadyStateAllocBudget extends the PR-3 zero-allocation
// contract from the data path to the application layer: a steady-state
// fixed-size RPC request-response — client issue, FlexTOE data path both
// ways, server parse + respond, client completion with latency
// recording — must cost at most 2 heap allocations end to end. The
// view-based workloads (Peek/Consume, Reserve/Commit) stage and parse in
// the payload rings, so the nominal per-request path allocates nothing;
// the budget leaves room for amortized container growth (issued-time
// rings, histogram buckets). Runs under plain `go test`, so CI enforces
// it without benchmark plumbing.
func TestAppSteadyStateAllocBudget(t *testing.T) {
	p := newRPCPair(64, 4)
	p.runRequests(2000) // warm pools, rings, histogram buckets
	const reqs = 500
	allocs := testing.AllocsPerRun(3, func() {
		p.runRequests(reqs)
	})
	perReq := allocs / reqs
	t.Logf("steady-state allocs per RPC request (app layer end to end): %.3f", perReq)
	if perReq > 2 {
		t.Fatalf("allocs per request = %.3f, budget is 2", perReq)
	}
}

// TestKVSteadyStateAllocBudget extends the contract to the key-value
// server: a two-machine KV pair at set ratio 0.5 — every SET a fresh random
// 32-byte key, as kv_flextoe's are — must average at most 0.05 heap
// allocations per request end to end. The record arena allocates a 64 KiB
// block per ~980 stored records and doubles its index now and then; a
// map[string][]byte store allocates the key string and the value copy on
// every SET: 1.0 allocations per request at this mix.
func TestKVSteadyStateAllocBudget(t *testing.T) {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 43},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 44},
	)
	srv := &KVServer{AppCycles: 890, ValueLen: 32}
	srv.Serve(tb.M("server").Stack, 11211)
	cli := &KVClient{SetRatio: 0.5, Pipeline: 2, Seed: 5}
	cli.Start(tb.M("client").Stack, tb.Addr("server", 11211), 4)
	run := func(n uint64) {
		for target := cli.Completed + n; cli.Completed < target; {
			if !tb.Eng.Step() {
				t.Fatal("apps: KV workload stalled")
			}
		}
	}
	run(4000) // warm pools, rings, histogram buckets, the first blocks
	const reqs = 2000
	allocs := testing.AllocsPerRun(3, func() { run(reqs) })
	perReq := allocs / reqs
	t.Logf("steady-state allocs per KV request at set ratio 0.5: %.4f (%d stored keys, %d hits)",
		perReq, srv.store.keys, srv.Hits)
	if perReq > 0.05 {
		t.Fatalf("allocs per request = %.4f, budget is 0.05", perReq)
	}
}

// BenchmarkAppRPCRequest reports the wall-clock and allocation cost of
// one simulated RPC request-response end to end at the application
// layer (the number TestAppSteadyStateAllocBudget gates).
func BenchmarkAppRPCRequest(b *testing.B) {
	p := newRPCPair(64, 4)
	p.runRequests(2000)
	b.ReportAllocs()
	b.ResetTimer()
	p.runRequests(uint64(b.N))
}
