package apps

import (
	"fmt"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/ctrl"
	"flextoe/internal/fabric"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/testbed"
)

// rpcPair is a steady-state fixed-size RPC workload over a two-machine
// testbed: the app-layer analogue of core's benchPair.
type rpcPair struct {
	tb  *testbed.Testbed
	srv *RPCServer
	cli *ClosedLoopClient
}

// stackRow is one stack configuration the app-layer allocation gate runs.
type stackRow struct {
	name   string
	kind   testbed.StackKind
	cc     ctrl.CCAlgo
	loss   float64  // switch loss probability
	fabric bool     // client and server in two racks of a leaf-spine fabric
	warm   sim.Time // simulated time the warm-up runs at least
}

var flexTOELossless = stackRow{name: "flextoe", kind: testbed.FlexTOE}

// stackRows are the configurations the app-layer gates run: the four
// personalities lossless and at 1 % loss (retransmit timers, SACK and
// reassembly), FlexTOE's two congestion-control loops (the CC poll, and
// TIMELY's pacing through the flow scheduler's wheel) and the fabric's
// ECMP hop.
var stackRows = []stackRow{
	flexTOELossless,
	{name: "linux", kind: testbed.Linux},
	{name: "tas", kind: testbed.TAS},
	{name: "chelsio", kind: testbed.Chelsio},
	{name: "flextoe-loss1", kind: testbed.FlexTOE, loss: 0.01},
	{name: "linux-loss1", kind: testbed.Linux, loss: 0.01},
	{name: "tas-loss1", kind: testbed.TAS, loss: 0.01},
	{name: "chelsio-loss1", kind: testbed.Chelsio, loss: 0.01},
	{name: "flextoe-dctcp", kind: testbed.FlexTOE, cc: ctrl.CCDCTCP},
	{name: "flextoe-timely", kind: testbed.FlexTOE, cc: ctrl.CCTimely, warm: 300 * sim.Millisecond},
	{name: "flextoe-fabric", kind: testbed.FlexTOE, fabric: true},
}

func newRPCPair(row stackRow, reqSize, pipeline int) *rpcPair {
	specs := []testbed.MachineSpec{
		{Name: "server", Kind: row.kind, Cores: 2, BufSize: 1 << 16, CC: row.cc, Seed: 41},
		{Name: "client", Kind: row.kind, Cores: 2, BufSize: 1 << 16, CC: row.cc, Rack: 1, Seed: 42},
	}
	var tb *testbed.Testbed
	if row.fabric {
		tb = testbed.NewFabric(fabric.Config{Leaves: 2, Spines: 2, Seed: 40}, specs...)
	} else {
		tb = testbed.New(netsim.SwitchConfig{LossProb: row.loss, Seed: 40}, specs...)
	}
	srv := &RPCServer{ReqSize: reqSize, AppCycles: 250}
	srv.Serve(tb.M("server").Stack, 9100)
	cli := &ClosedLoopClient{ReqSize: reqSize, Pipeline: pipeline, Latency: stats.NewHistogram()}
	cli.Start(tb.M("client").Stack, tb.Addr("server", 9100), 2)
	return &rpcPair{tb: tb, srv: srv, cli: cli}
}

// runRequests steps the engine until n more requests complete and the
// clock has reached at least until.
func (p *rpcPair) runRequests(n uint64, until sim.Time) {
	target := p.cli.Completed + n
	for p.cli.Completed < target || p.tb.Eng.Now() < until {
		if !p.tb.Eng.Step() {
			panic("apps: RPC workload stalled")
		}
	}
}

// TestAppSteadyStateAllocBudget extends the zero-allocation contract from
// the data path to the application layer, on every stack: a steady-state
// 64 B RPC request-response — client issue, the data path both ways,
// server parse + respond, client completion with latency recording —
// must average at most 0.05 heap allocations end to end, on every row of
// stackRows. This gate, not a static pass, enforces the one scheduling
// API: a closure built per segment or per congestion-control tick costs
// at least 0.2 allocations per request and fails here; one built once per
// RTO interval (~0.01) does not. TIMELY's
// warm-up runs 300 ms, 37 turns of the flow scheduler's 8.2 ms wheel: its
// paced flows take ~250 ms to have landed in every slot once, so what the
// window counts is a slot that reallocates on each turn (0.28 allocations
// per request before the carousel kept its slot arrays), not a slot's
// first array.
func TestAppSteadyStateAllocBudget(t *testing.T) {
	for _, row := range stackRows {
		t.Run(row.name, func(t *testing.T) {
			p := newRPCPair(row, 64, 4)
			p.runRequests(2000, row.warm) // warm pools, rings, histogram buckets
			const reqs = 1000
			allocs := testing.AllocsPerRun(3, func() { p.runRequests(reqs, 0) })
			perReq := allocs / reqs
			t.Logf("steady-state allocs per RPC request (app layer end to end): %.4f", perReq)
			if perReq > 0.05 {
				t.Fatalf("allocs per request = %.4f, budget is 0.05", perReq)
			}
		})
	}
}

// TestGeneratorSteadyStateAllocBudget extends the app-layer gate to the
// two datacenter generators (flows.go): a steady-state flow — arrival,
// header and payload commit, the data path, the sink's parse and FCT
// record — and a steady-state incast round — eight triggers, eight
// 16 KB blocks back, the barrier and the next round's launch — must each
// average at most 0.05 heap allocations end to end. incast_fabric runs
// on IncastGroup.
func TestGeneratorSteadyStateAllocBudget(t *testing.T) {
	newFleet := func(senders int) *testbed.Testbed {
		specs := []testbed.MachineSpec{{Name: "rcv", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 17, Seed: 45}}
		for i := 0; i < senders; i++ {
			specs = append(specs, testbed.MachineSpec{Name: fmt.Sprintf("snd%d", i), Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 17, Seed: uint64(46 + i)})
		}
		return testbed.New(netsim.SwitchConfig{Seed: 45}, specs...)
	}
	stepUntil := func(t *testing.T, tb *testbed.Testbed, done func() bool) {
		for !done() {
			if !tb.Eng.Step() {
				t.Fatal("apps: generator stalled")
			}
		}
	}
	t.Run("flowgen", func(t *testing.T) {
		tb := newFleet(1)
		g := &FlowGen{Rate: 1e5, SizeBytes: 4096, Conns: 4, Seed: 45}
		g.Serve(tb.M("rcv").Stack, 9100)
		g.Start([]api.Stack{tb.M("snd0").Stack}, tb.Addr("rcv", 9100))
		run := func(n uint64) {
			target := g.Completed() + n
			stepUntil(t, tb, func() bool { return g.Completed() >= target })
		}
		run(2000) // warm pools, rings, the flow queues, histogram buckets
		const flows = 1000
		perFlow := testing.AllocsPerRun(3, func() { run(flows) }) / flows
		t.Logf("steady-state allocs per flow (4 KB, arrival to FCT record): %.4f", perFlow)
		if perFlow > 0.05 {
			t.Fatalf("allocs per flow = %.4f, budget is 0.05", perFlow)
		}
	})
	t.Run("incast", func(t *testing.T) {
		const hosts = 4
		tb := newFleet(hosts)
		g := &IncastGroup{BlockBytes: 16384}
		g.Serve(tb.M("rcv").Stack, 9200)
		senders := make([]api.Stack, 0, 2*hosts)
		for i := 0; i < 2*hosts; i++ {
			senders = append(senders, tb.M(fmt.Sprintf("snd%d", i%hosts)).Stack)
		}
		g.Start(senders, tb.Addr("rcv", 9200))
		run := func(n uint64) {
			target := g.RoundsDone + n
			stepUntil(t, tb, func() bool { return g.RoundsDone >= target })
		}
		// The near wheel's bucket storage settles slowly under eight-way
		// bursts: 0.04 allocations per round after 300 warm rounds, all
		// of them the engine's buckets growing, 0.015 after 2 000.
		run(2000)
		const rounds = 200
		perRound := testing.AllocsPerRun(3, func() { run(rounds) }) / rounds
		t.Logf("steady-state allocs per incast round (8 × 16 KB): %.4f", perRound)
		if perRound > 0.05 {
			t.Fatalf("allocs per round = %.4f, budget is 0.05", perRound)
		}
	})
}

// TestQuiescentRunReturnsEveryLoan is the runtime gate of the pooling
// ownership rule, on every row of stackRows: 2 000 RPCs, then the client
// stops, the last responses land and the idle timers disarm, and every
// pool of the engine — packets and their payload copies, frames,
// segItems, NIC segment buffers and descriptors, FPC task records, DMA
// transactions, control-plane timer carriers, baseline segment work —
// must have had back all it lent (sim.Engine.Unreturned). A pooled object
// that some path these runs take drops without its release leaves its
// pool out; one released twice leaves it over.
func TestQuiescentRunReturnsEveryLoan(t *testing.T) {
	for _, row := range stackRows {
		t.Run(row.name, func(t *testing.T) {
			p := newRPCPair(row, 64, 4)
			p.runRequests(2000, 0)
			p.cli.Stop()
			p.tb.Run(p.tb.Eng.Now() + sim.Second)
			if gets, _ := p.tb.PoolStats(); gets == 0 {
				t.Fatal("the run lent no packet")
			}
			if err := p.tb.Eng.Unreturned(); err != nil {
				t.Fatal(err)
			}
		})
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
// layer over FlexTOE (the number TestAppSteadyStateAllocBudget's first
// row gates).
func BenchmarkAppRPCRequest(b *testing.B) {
	p := newRPCPair(flexTOELossless, 64, 4)
	p.runRequests(2000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	p.runRequests(uint64(b.N), 0)
}
