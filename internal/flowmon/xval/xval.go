// Package xval cross-validates flowmon's passive inference against stack
// ground truth: it runs a seeded lossy bulk transfer between two machines
// of one personality with analyzers on both NIC taps, then compares the
// analyzer's inferred counters with the counters the stacks themselves
// maintain. The comparison tolerances are part of the flowmon contract
// (see flowmon.Report): retransmits at the sender tap and reassembly
// decisions at the receiver tap must match exactly; duplicate-ACK counts
// may diverge by a documented bounded amount around recovery episodes.
//
// The harness backs the CI cross-validation tests
// (TestCrossValidateFlexTOE/Linux/HighLoss).
package xval

import (
	"fmt"
	"strings"

	"flextoe/internal/apps"
	"flextoe/internal/core"
	"flextoe/internal/flowmon"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
	"flextoe/internal/testbed"
)

// Scenario parameterizes one cross-validation run. The zero value is
// usable: Run applies defaults.
type Scenario struct {
	// Personality selects the stack under observation on both machines:
	// testbed.FlexTOE (SACK data-path, 4-interval reassembly,
	// window-guarded dupack rule) or testbed.Linux (32-interval
	// reassembly, unguarded dupack rule). Default FlexTOE.
	Personality testbed.StackKind
	Loss        float64  // injected loss probability (default 1e-3)
	Conns       int      // bulk connections (default 8)
	Duration    sim.Time // simulated time (default 10 ms)
	Seed        uint64   // switch loss seed (default 42)
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Personality == "" {
		sc.Personality = testbed.FlexTOE
	}
	if sc.Loss == 0 {
		sc.Loss = 1e-3
	}
	if sc.Conns <= 0 {
		sc.Conns = 8
	}
	if sc.Duration <= 0 {
		sc.Duration = 10 * sim.Millisecond
	}
	if sc.Seed == 0 {
		sc.Seed = 42
	}
	return sc
}

// Check is one analyzer-vs-stack counter comparison. The tolerance is
// asserted, not advisory: OK reports whether the divergence is within
// TolAbs + TolFrac * Stack.
type Check struct {
	Name     string
	Analyzer uint64
	Stack    uint64
	TolAbs   uint64
	TolFrac  float64
}

// Diff returns the absolute divergence.
func (c Check) Diff() uint64 {
	if c.Analyzer > c.Stack {
		return c.Analyzer - c.Stack
	}
	return c.Stack - c.Analyzer
}

// OK reports whether the divergence is within tolerance.
func (c Check) OK() bool {
	return c.Diff() <= c.TolAbs+uint64(c.TolFrac*float64(c.Stack))
}

// Result is one cross-validation outcome.
type Result struct {
	Scenario Scenario
	Checks   []Check

	// ClientReport taps the sender NIC (retransmit/dupack vantage);
	// ServerReport taps the receiver NIC (reassembly vantage).
	ClientReport *flowmon.Report
	ServerReport *flowmon.Report

	SinkBytes uint64 // payload delivered to the receiving application
}

// Pass reports whether every check is within its tolerance.
func (r *Result) Pass() bool {
	for _, c := range r.Checks {
		if !c.OK() {
			return false
		}
	}
	return true
}

// Format renders the comparison as an aligned table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "xval %s: loss %g, %d conns, %v, %d B delivered\n",
		r.Scenario.Personality, r.Scenario.Loss, r.Scenario.Conns,
		r.Scenario.Duration, r.SinkBytes)
	fmt.Fprintf(&b, "  %-22s %12s %12s %10s %10s  %s\n",
		"counter", "analyzer", "stack", "diff", "tolerance", "ok")
	for _, c := range r.Checks {
		tol := fmt.Sprintf("%d", c.TolAbs)
		if c.TolFrac > 0 {
			tol = fmt.Sprintf("%d+%g%%", c.TolAbs, c.TolFrac*100)
		}
		ok := "ok"
		if !c.OK() {
			ok = "FAIL"
		}
		fmt.Fprintf(&b, "  %-22s %12d %12d %10d %10s  %s\n",
			c.Name, c.Analyzer, c.Stack, c.Diff(), tol, ok)
	}
	return b.String()
}

// dirTotals sums the sender-side counters of every flow sourced at ip and
// the receiver-side counters of every flow destined to it.
type dirTotals struct {
	retxSegs, retxBytes, dupAcks uint64
	oooAccepts, oooDrops         uint64
}

func totalsFor(r *flowmon.Report, srcIP packet.IPv4Addr) dirTotals {
	var t dirTotals
	for i := range r.Flows {
		f := &r.Flows[i]
		if f.Flow.SrcIP == srcIP {
			t.retxSegs += f.RetxSegs
			t.retxBytes += f.RetxBytes
			t.dupAcks += f.DupAcks
			t.oooAccepts += f.OOOAccepts
			t.oooDrops += f.OOODrops
		}
	}
	return t
}

// monitorConfig returns the analyzer configuration that mirrors the
// personality's receiver and dupack semantics.
func monitorConfig(kind testbed.StackKind) flowmon.Config {
	if kind == testbed.FlexTOE {
		return flowmon.Config{DupAck: flowmon.DupAckFlexTOE, OOOCap: tcpseg.MaxOOOIntervals}
	}
	return flowmon.Config{DupAck: flowmon.DupAckBaseline, OOOCap: 32}
}

// play builds and runs the scenario, optionally with analyzers attached
// to both NICs (nil mons = bare run), returning the testbed and the
// bytes the sink application received.
func play(sc Scenario, clientMon, serverMon *flowmon.Analyzer) (*testbed.Testbed, uint64) {
	client := testbed.MachineSpec{Name: "client", Kind: sc.Personality,
		Cores: 4, BufSize: 1 << 19, Seed: sc.Seed + 2}
	server := testbed.MachineSpec{Name: "server", Kind: sc.Personality,
		Cores: 4, BufSize: 1 << 19, Seed: sc.Seed + 1}
	if sc.Personality == testbed.FlexTOE {
		cfg := core.AgilioCX40Config()
		cfg.OOOIntervals = tcpseg.MaxOOOIntervals
		cfg.EnableSACK = true
		client.FlexCfg = &cfg
		server.FlexCfg = &cfg
	}

	tb := testbed.New(netsim.SwitchConfig{LossProb: sc.Loss, Seed: sc.Seed}, server, client)
	if clientMon != nil {
		flowmon.Attach(clientMon, tb.M("client").Iface)
	}
	if serverMon != nil {
		flowmon.Attach(serverMon, tb.M("server").Iface)
	}

	sink := &apps.BulkSink{}
	sink.Serve(tb.M("server").Stack, 9000)
	senders := make([]*apps.BulkSender, sc.Conns)
	for i := range senders {
		senders[i] = &apps.BulkSender{}
		senders[i].Start(tb.M("client").Stack, tb.Addr("server", 9000))
	}
	tb.Run(sc.Duration)

	// Quiesce before the counter snapshot: stop the senders and let
	// in-flight segments drain. The analyzer observes a segment at NIC
	// delivery while the stack counts it at (possibly deferred)
	// processing; comparing mid-flight would measure queue depth, not
	// inference accuracy.
	for _, snd := range senders {
		snd.Stop()
	}
	tb.Run(sc.Duration + 5*sim.Millisecond)
	return tb, sink.Received
}

// groundTruth reads the stacks' own counters for the client->server
// direction: the client's TX accounting, the server's RX reassembly.
func groundTruth(tb *testbed.Testbed, kind testbed.StackKind) dirTotals {
	if kind == testbed.FlexTOE {
		ct, st := tb.M("client").TOE, tb.M("server").TOE
		return dirTotals{
			retxSegs: ct.RetxSegs, retxBytes: ct.RetxBytes, dupAcks: ct.DupAcks,
			oooAccepts: st.OOOAccepted, oooDrops: st.OOODropped,
		}
	}
	cb, sb := tb.M("client").Base, tb.M("server").Base
	return dirTotals{
		retxSegs: cb.RetxSegs, retxBytes: cb.RetxBytes, dupAcks: cb.DupAcks,
		oooAccepts: sb.OOOAccepted, oooDrops: sb.OOODropped,
	}
}

// bareResult is a tap-free reference run (TestTapsDoNotPerturbSimulation).
type bareResult struct {
	sinkBytes uint64
	truth     map[string]uint64
}

// runBare executes the scenario with no analyzers attached.
func runBare(sc Scenario) bareResult {
	sc = sc.withDefaults()
	tb, sinkBytes := play(sc, nil, nil)
	tr := groundTruth(tb, sc.Personality)
	return bareResult{sinkBytes: sinkBytes, truth: map[string]uint64{
		"retx-segs": tr.retxSegs, "retx-bytes": tr.retxBytes,
		"ooo-accepts": tr.oooAccepts, "ooo-drops": tr.oooDrops,
		"dupacks": tr.dupAcks,
	}}
}

// Run executes the scenario: Conns bulk flows client -> server through a
// lossy switch, a flowmon analyzer passively attached to each machine's
// NIC, and the stacks' own counters as ground truth.
func Run(sc Scenario) *Result {
	sc = sc.withDefaults()
	mcfg := monitorConfig(sc.Personality)
	clientMon := flowmon.New(mcfg)
	serverMon := flowmon.New(mcfg)
	tb, sinkBytes := play(sc, clientMon, serverMon)

	res := &Result{
		Scenario:     sc,
		ClientReport: clientMon.Report(),
		ServerReport: serverMon.Report(),
		SinkBytes:    sinkBytes,
	}

	// Analyzer vantage: the client tap sees every byte the client sends
	// (retransmit inference is exact there) and every ack delivered to it
	// (dupack inference); the server tap sees every data segment the
	// server's receiver processes (reassembly emulation).
	clientIP := tb.M("client").IP
	atClient := totalsFor(res.ClientReport, clientIP)
	atServer := totalsFor(res.ServerReport, clientIP)
	truth := groundTruth(tb, sc.Personality)

	// Tolerances (the flowmon.Report contract):
	//   - Retransmits: exact. Every transmitted byte crosses the sender
	//     tap and both sides apply the same SendNext high-water rule.
	//   - Reassembly accepts/drops: exact at trace loss rates (the
	//     receiver tap sees exactly the segments the stack processes and
	//     the emulation replays the same interval-set code). The stack
	//     additionally trims arrivals to its receive window — buffer
	//     occupancy a passive observer cannot see — and under sustained
	//     loss (>= 1%) reassembly holes pin the window down often enough
	//     to reclassify a handful of segments: bound 2 per connection
	//     plus 0.5%.
	//   - Dupacks: bounded divergence. The stacks' in-flight accounting
	//     (TxSent, SND.NXT) resets across RTO/go-back-N episodes where
	//     the wire-level high-water model does not, so around each
	//     recovery episode the analyzer can classify a few repeated acks
	//     differently: 2 per connection plus 5% slack.
	dupTol := uint64(2 * sc.Conns)
	res.Checks = []Check{
		{Name: "retx-segs", Analyzer: atClient.retxSegs, Stack: truth.retxSegs},
		{Name: "retx-bytes", Analyzer: atClient.retxBytes, Stack: truth.retxBytes},
		{Name: "ooo-accepts", Analyzer: atServer.oooAccepts, Stack: truth.oooAccepts,
			TolAbs: uint64(2 * sc.Conns), TolFrac: 0.005},
		{Name: "ooo-drops", Analyzer: atServer.oooDrops, Stack: truth.oooDrops,
			TolAbs: uint64(2 * sc.Conns), TolFrac: 0.005},
		{Name: "dupacks", Analyzer: atClient.dupAcks, Stack: truth.dupAcks,
			TolAbs: dupTol, TolFrac: 0.05},
	}
	return res
}
