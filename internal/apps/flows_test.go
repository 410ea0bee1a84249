package apps

import (
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/fabric"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

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
	g := &FlowGen{
		Rate:      2e5,
		SizeBytes: 8192,
		Conns:     8,
		MaxFlows:  50,
		Seed:      5,
	}
	g.Serve(tb.M("rcv").Stack, 9100)
	g.Start([]api.Stack{tb.M("snd").Stack}, tb.Addr("rcv", 9100))
	tb.Run(20 * sim.Millisecond)

	if g.Completed() != uint64(g.MaxFlows) {
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

// TestFlowGenOverLinux drives megabyte flows over the Linux personality:
// the workload layer must be stack-agnostic.
func TestFlowGenOverLinux(t *testing.T) {
	tb := twoRack(testbed.Linux, 9)
	g := &FlowGen{
		Rate:      5e4,
		SizeBytes: 1 << 20,
		Conns:     4,
		MaxFlows:  12,
		Seed:      9,
	}
	g.Serve(tb.M("rcv").Stack, 9100)
	g.Start([]api.Stack{tb.M("snd").Stack}, tb.Addr("rcv", 9100))
	tb.Run(120 * sim.Millisecond)
	if g.Completed() == 0 {
		t.Fatal("no flows completed over the Linux personality")
	}
}

// newIncast starts an 8-to-1 incast group of rounds 16 KB rounds over a
// three-rack fabric: four sender hosts, two connections each.
func newIncast(rounds int) (*testbed.Testbed, *IncastGroup) {
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

	g := &IncastGroup{BlockBytes: 16384, Rounds: rounds}
	g.Serve(tb.M("agg").Stack, 9200)
	senders := make([]api.Stack, 0, 8)
	for i := 0; i < 8; i++ { // 2 connections per sender host
		senders = append(senders, tb.M("s"+string(rune('0'+i%4))).Stack)
	}
	g.Start(senders, tb.Addr("agg", 9200))
	return tb, g
}

// TestIncastRoundsComplete runs an 8-to-1 incast group and checks the
// barrier accounting: every round delivers exactly N×BlockBytes.
func TestIncastRoundsComplete(t *testing.T) {
	tb, g := newIncast(5)
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

// TestIncastWindowKeepsRoundBudget opens the measured window after two of
// five rounds: the window counts the other three, their bytes and their
// FCTs, and the Rounds budget still stops the group at five.
func TestIncastWindowKeepsRoundBudget(t *testing.T) {
	tb, g := newIncast(5)
	for g.RoundsDone < 2 {
		if !tb.Eng.Step() {
			t.Fatal("incast stalled")
		}
	}
	g.ResetMeasurement()
	tb.Run(40 * sim.Millisecond)
	if g.RoundsDone != 3 || g.RoundFCT.Count() != 3 {
		t.Fatalf("window: %d rounds, %d FCT samples, want 3", g.RoundsDone, g.RoundFCT.Count())
	}
	if want := uint64(3 * 8 * 16384); g.BytesReceived != want {
		t.Fatalf("window BytesReceived = %d, want %d", g.BytesReceived, want)
	}
}

// TestFlowGenBudgetSpansWarmup holds MaxFlows to the whole run: opening
// the measured window part-way restarts the window's counts, not the
// arrival budget. Four connections at 100 flows/s each share a budget of
// eight; three flows arrive before the 10 ms reset, so the window may
// admit only the other five.
func TestFlowGenBudgetSpansWarmup(t *testing.T) {
	tb := testbed.New(netsim.SwitchConfig{Seed: 7},
		testbed.MachineSpec{Name: "snd", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 7},
		testbed.MachineSpec{Name: "rcv", Kind: testbed.FlexTOE, Cores: 2, BufSize: 1 << 16, Seed: 8},
	)
	g := &FlowGen{Rate: 400, SizeBytes: 1024, Conns: 4, MaxFlows: 8, Seed: 7}
	g.Serve(tb.M("rcv").Stack, 9100)
	g.Start([]api.Stack{tb.M("snd").Stack}, tb.Addr("rcv", 9100))
	tb.Run(10 * sim.Millisecond)
	warm := g.Started()
	g.ResetMeasurement()
	tb.Run(500 * sim.Millisecond)
	if total := warm + g.Started(); warm == 0 || total != uint64(g.MaxFlows) {
		t.Fatalf("admitted %d + %d flows, budget %d", warm, g.Started(), g.MaxFlows)
	}
}
