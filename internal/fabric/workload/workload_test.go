package workload_test

import (
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/fabric"
	"flextoe/internal/fabric/workload"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/testbed"
)

// TestSizeDistSanity pins the shape of the heavy-tail distributions: the
// data-mining median is tiny, the web-search median tens of KB, and both
// stay within their tabulated support.
func TestSizeDistSanity(t *testing.T) {
	for _, tc := range []struct {
		d        workload.SizeDist
		min, max int
		medLo    int
		medHi    int
	}{
		{workload.WebSearch(), 1, 30e6, 10_000, 200_000},
		{workload.DataMining(), 1, 1e9, 200, 5_000},
	} {
		r := stats.NewRNG(7)
		var samples []float64
		for i := 0; i < 20000; i++ {
			s := tc.d.Sample(r)
			if s < tc.min || s > tc.max {
				t.Fatalf("%s: sample %d outside [%d, %d]", tc.d.Name(), s, tc.min, tc.max)
			}
			samples = append(samples, float64(s))
		}
		med := stats.PercentileOf(samples, 50)
		if med < float64(tc.medLo) || med > float64(tc.medHi) {
			t.Fatalf("%s: median %.0f outside [%d, %d]", tc.d.Name(), med, tc.medLo, tc.medHi)
		}
		// Heavy tail: p99 must dwarf the median.
		if p99 := stats.PercentileOf(samples, 99); p99 < 20*med {
			t.Fatalf("%s: p99 %.0f not heavy-tailed vs median %.0f", tc.d.Name(), p99, med)
		}
	}
	if workload.Fixed(4096).Sample(stats.NewRNG(1)) != 4096 {
		t.Fatal("Fixed distribution not a point mass")
	}
}

// twoRack builds a sender (rack 1) / receiver (rack 0) fabric testbed.
func twoRack(kind testbed.StackKind, seed uint64) *testbed.Testbed {
	return testbed.NewFabric(fabric.Config{Leaves: 2, Spines: 2, Seed: seed},
		testbed.MachineSpec{Name: "snd", Kind: kind, Cores: 2, Rack: 1, BufSize: 1 << 17, Seed: seed},
		testbed.MachineSpec{Name: "rcv", Kind: kind, Cores: 2, Rack: 0, BufSize: 1 << 17, Seed: seed + 1},
	)
}

// TestFlowGenCompletesAllFlows runs a bounded open-loop generator over a
// two-rack fabric and requires every flow to finish with a recorded FCT.
func TestFlowGenCompletesAllFlows(t *testing.T) {
	tb := twoRack(testbed.FlexTOE, 5)
	g := &workload.FlowGen{
		Rate:     2e5,
		Size:     workload.Fixed(8192),
		Conns:    8,
		MaxFlows: 50,
		Seed:     5,
	}
	g.Serve(tb.M("rcv").Stack, 9100)
	g.Start([]api.Stack{tb.M("snd").Stack}, tb.Addr("rcv", 9100))
	tb.Run(20 * sim.Millisecond)

	if !g.Done() {
		t.Fatalf("only %d/%d flows completed", g.Completed(), g.MaxFlows)
	}
	if g.BytesCompleted() != 50*8192 {
		t.Fatalf("BytesCompleted = %d, want %d", g.BytesCompleted(), 50*8192)
	}
	if g.FCT().Count() != 50 {
		t.Fatalf("FCT samples = %d, want 50", g.FCT().Count())
	}
	if g.FCT().Percentile(50) <= 0 {
		t.Fatal("non-positive median FCT")
	}
}

// TestFlowGenHeavyTailOverLinux drives the web-search distribution over
// the Linux personality: the workload layer must be stack-agnostic.
func TestFlowGenHeavyTailOverLinux(t *testing.T) {
	tb := twoRack(testbed.Linux, 9)
	g := &workload.FlowGen{
		Rate:     5e4,
		Size:     workload.WebSearch(),
		Conns:    4,
		MaxFlows: 12,
		Seed:     9,
	}
	g.Serve(tb.M("rcv").Stack, 9100)
	g.Start([]api.Stack{tb.M("snd").Stack}, tb.Addr("rcv", 9100))
	tb.Run(120 * sim.Millisecond)
	if g.Completed() == 0 {
		t.Fatal("no heavy-tail flows completed over the Linux personality")
	}
}

// TestIncastRoundsComplete runs an 8-to-1 incast group and checks the
// barrier accounting: every round delivers exactly N×BlockBytes.
func TestIncastRoundsComplete(t *testing.T) {
	specs := []testbed.MachineSpec{
		{Name: "agg", Kind: testbed.FlexTOE, Cores: 2, Rack: 0, BufSize: 1 << 17, Seed: 60},
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, testbed.MachineSpec{
			Name: "s" + string(rune('0'+i)), Kind: testbed.FlexTOE, Cores: 2,
			Rack: 1 + i%2, BufSize: 1 << 17, Seed: uint64(61 + i),
		})
	}
	tb := testbed.NewFabric(fabric.Config{Leaves: 3, Spines: 2, Seed: 59}, specs...)

	g := &workload.IncastGroup{BlockBytes: 16384, Rounds: 5}
	g.Serve(tb.M("agg").Stack, 9200)
	senders := make([]api.Stack, 0, 8)
	for i := 0; i < 8; i++ { // 2 connections per sender host
		senders = append(senders, tb.M("s"+string(rune('0'+i%4))).Stack)
	}
	g.Start(senders, tb.Addr("agg", 9200))
	tb.Run(40 * sim.Millisecond)

	if g.RoundsDone != 5 {
		t.Fatalf("completed %d/5 rounds", g.RoundsDone)
	}
	if want := uint64(5 * 8 * 16384); g.BytesReceived != want {
		t.Fatalf("BytesReceived = %d, want %d", g.BytesReceived, want)
	}
	if g.RoundFCT.Count() != 5 {
		t.Fatalf("round FCT samples = %d, want 5", g.RoundFCT.Count())
	}
}
