package experiments

import (
	"fmt"
	"slices"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/ctrl"
	"flextoe/internal/fabric"
	"flextoe/internal/netsim"
	"flextoe/internal/scenario"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// Fig. 17 fabric parameters (reproduction extension): a DCTCP-style
// marking threshold K and a shallow-buffer queue cap on the leaf tier,
// the regime the paper's §5 congestion-control evaluation assumes but the
// single-switch testbed could never produce.
const (
	fig17K        = 90_000  // leaf ECN threshold (bytes), the DCTCP K
	fig17QueueCap = 250_000 // leaf egress queue cap (bytes), shallow ToR buffer
)

// fig17IncastResult is one incast sweep point.
type fig17IncastResult struct {
	goodputGbps float64
	p50us       float64
	p99us       float64
	rounds      uint64
	peakQ       int    // deepest leaf egress queue after warmup (bytes)
	ecnMarks    uint64 // CE marks applied at the leaf tier
	retxKB      float64
}

// fig17IncastPoint runs one N-to-1 incast point on a three-rack fabric:
// the aggregator alone in rack 0, sender hosts spread over racks 1-2, and
// fan-in connections spread over the sender hosts. All machines run
// FlexTOE with the given control-plane congestion-control policy. The
// point runs through the scenario builder (the spec below is the
// declarative form of the original harness — same seeds, same warmup
// boundary). examples/scenarios/incast16.json is the 16-way point in JSON
// clothing.
func fig17IncastPoint(fanIn int, cc ctrl.CCAlgo, d sim.Time) fig17IncastResult {
	hosts := fanIn
	if hosts > 8 {
		hosts = 8
	}
	spec := &scenario.Spec{
		Name:       "fig17a-incast",
		Seed:       170_000 + uint64(fanIn),
		DurationUs: int64(d / sim.Microsecond),
		// Warm up past connection setup and the initial slow-start burst;
		// the builder resets queue stats and measurement at the boundary
		// so all columns measure the same post-warmup window.
		WarmupUs: int64(d / 4 / sim.Microsecond),
		Topology: scenario.Topology{
			Kind: scenario.TopoFabric,
			Fabric: &scenario.FabricSpec{
				Racks: 3, Spines: 2,
				Leaf:  &scenario.SwitchSpec{ECNThresholdBytes: fig17K, QueueCapBytes: fig17QueueCap},
				Spine: &scenario.SwitchSpec{ECNThresholdBytes: fig17K, QueueCapBytes: 2 * fig17QueueCap},
			},
		},
		Machines: []scenario.Machine{{
			Name: "agg", Stack: scenario.StackFlexTOE, Cores: 4, Rack: 0,
			BufBytes: 1 << 17, CC: scenarioCC(cc), Seed: 1700,
		}},
	}
	senders := make([]string, hosts)
	for i := 0; i < hosts; i++ {
		senders[i] = fmt.Sprintf("snd%d", i)
		spec.Machines = append(spec.Machines, scenario.Machine{
			Name: senders[i], Stack: scenario.StackFlexTOE, Cores: 2,
			Rack: 1 + i%2, BufBytes: 1 << 17, CC: scenarioCC(cc), Seed: uint64(1710 + i),
		})
	}
	spec.Workloads = []scenario.Workload{{
		Kind: scenario.KindIncast,
		Incast: &scenario.IncastWorkload{
			Agg: "agg", Port: 9400, Senders: senders,
			FanIn: fanIn, BlockBytes: 32768,
		},
	}}
	_, res := mustScenario(spec)

	var retx uint64
	for _, m := range res.Machines[1:] {
		retx += m.RetxBytes
	}
	w := res.Workloads[0]
	return fig17IncastResult{
		goodputGbps: w.GoodputGbps,
		p50us:       w.P50Us,
		p99us:       w.P99Us,
		rounds:      w.Rounds,
		peakQ:       res.Fabric.PeakLeafQueueBytes,
		ecnMarks:    res.Fabric.LeafECNMarks,
		retxKB:      float64(retx) / 1024,
	}
}

// scenarioCC names a control-plane CC policy in spec vocabulary.
func scenarioCC(cc ctrl.CCAlgo) string {
	switch cc {
	case ctrl.CCDCTCP:
		return "dctcp"
	case ctrl.CCTimely:
		return "timely"
	default:
		return "none"
	}
}

// fig17OversubResult is one oversubscription sweep point.
type fig17OversubResult struct {
	goodputGbps float64
	p99us       float64
	peakUplinkQ int    // deepest leaf→spine trunk queue after warmup
	peakHostQ   int    // deepest host-facing leaf queue after warmup
	uplinkMarks uint64 // CE marks applied at trunk ports
	hostMarks   uint64 // CE marks applied at host-facing ports
}

// fig17OversubPoint runs an 8-way incast (4 sender hosts × 2 connections
// in rack 1, aggregator in rack 0) over a single-spine fabric with the
// given trunk rate, DCTCP on. With the trunk at 200 G the fabric is
// non-blocking (4 hosts × 40 G = 160 G fits) and congestion sits where
// incast always puts it: the aggregator's 40 G leaf egress port. At
// 100 G the hosts oversubscribe the trunk (160 G > 100 G) and the
// leaf→spine uplink queue joins in; at 30 G the trunk is the unique
// bottleneck and the host-facing queue goes quiet — congestion has moved
// from leaf egress to the uplink, and the ECN marks (what DCTCP reacts
// to) move with it.
func fig17OversubPoint(trunkGbps float64, d sim.Time) fig17OversubResult {
	const hosts = 4
	fc := fabric.Config{
		Leaves: 2, Spines: 1,
		LeafSpineGbps: trunkGbps,
		Leaf: netsim.SwitchConfig{
			ECNThresholdBytes: fig17K,
			QueueCapBytes:     fig17QueueCap,
		},
		Spine: netsim.SwitchConfig{
			ECNThresholdBytes: fig17K,
			QueueCapBytes:     2 * fig17QueueCap,
		},
		Seed: 172_000 + uint64(trunkGbps),
	}
	specs := []testbed.MachineSpec{{
		Name: "agg", Kind: testbed.FlexTOE, Cores: 4, Rack: 0,
		BufSize: 1 << 17, CC: ctrl.CCDCTCP, Seed: 1720,
	}}
	for i := 0; i < hosts; i++ {
		specs = append(specs, testbed.MachineSpec{
			Name: fmt.Sprintf("snd%d", i), Kind: testbed.FlexTOE, Cores: 2,
			Rack: 1, BufSize: 1 << 17, CC: ctrl.CCDCTCP, Seed: uint64(1730 + i),
		})
	}
	tb := testbed.NewFabric(fc, specs...)

	g := &apps.IncastGroup{BlockBytes: 32768}
	g.Serve(tb.M("agg").Stack, 9600)
	senders := make([]api.Stack, 0, 2*hosts)
	for i := 0; i < 2*hosts; i++ {
		senders = append(senders, tb.M(fmt.Sprintf("snd%d", i%hosts)).Stack)
	}
	g.Start(senders, tb.Addr("agg", 9600))

	warm := d / 4
	tb.Run(warm)
	tb.Fabric.ResetQueueStats()
	g.ResetMeasurement()
	upMarks0, hostMarks0 := tb.Fabric.UplinkECNMarks(), tb.Fabric.HostPortECNMarks()
	tb.Run(warm + d)

	return fig17OversubResult{
		goodputGbps: gbps(g.BytesReceived, d),
		p99us:       usOf(g.RoundFCT.Percentile(99)),
		peakUplinkQ: tb.Fabric.PeakUplinkQueueBytes(),
		peakHostQ:   tb.Fabric.PeakHostQueueBytes(),
		uplinkMarks: tb.Fabric.UplinkECNMarks() - upMarks0,
		hostMarks:   tb.Fabric.HostPortECNMarks() - hostMarks0,
	}
}

// fig17ECMPPoint measures hash balance: 64 KB flows from four rack-1
// hosts to four rack-0 hosts over a fabric with the given spine count,
// returning the bytes each spine carried upward out of the sender leaf
// tier, the heaviest spine's load relative to the fair share, and one
// flowmon fleet per rack (ROADMAP 5c): every host NIC in a rack feeds one
// analyzer, and the per-spine RTT/retx splits group flows by the same
// CRC-32 flow hash the ECMP stage forwards with. The taps are passive —
// attaching them left the spine byte counts bit-identical
// (TestTapsDoNotPerturbSimulation). examples/scenarios/ecmp64.json is the
// 2-spine, 64-flow point in JSON clothing.
func fig17ECMPPoint(spines, flows int, d sim.Time) (spineBytes []uint64, maxOverFair float64, racks []scenario.RackResult) {
	spec := &scenario.Spec{
		Name:       "fig17b-ecmp",
		Seed:       171_000 + uint64(spines),
		DurationUs: int64(d / sim.Microsecond),
		Topology: scenario.Topology{
			Kind:   scenario.TopoFabric,
			Fabric: &scenario.FabricSpec{Racks: 2, Spines: spines},
		},
		Measure: scenario.Measure{PerRackFleets: true},
	}
	g := &scenario.FlowGenWorkload{
		Port:      9500,
		Rate:      1e7, // effectively simultaneous arrivals
		SizeBytes: 65536,
		Conns:     flows,
		MaxFlows:  flows,
		Seed:      171,
	}
	for i := 0; i < 4; i++ {
		src, dst := fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i)
		spec.Machines = append(spec.Machines,
			scenario.Machine{Name: src, Stack: scenario.StackFlexTOE, Cores: 2, Rack: 1, BufBytes: 1 << 17, Seed: uint64(1750 + i)},
			scenario.Machine{Name: dst, Stack: scenario.StackFlexTOE, Cores: 2, Rack: 0, BufBytes: 1 << 17, Seed: uint64(1760 + i)},
		)
		g.Clients = append(g.Clients, src)
		g.Servers = append(g.Servers, dst)
	}
	spec.Workloads = []scenario.Workload{{Kind: scenario.KindFlowGen, FlowGen: g}}
	_, res := mustScenario(spec)

	spineBytes = res.Fabric.SpineTxBytes
	var total uint64
	for _, b := range spineBytes {
		total += b
	}
	if fair := float64(total) / float64(spines); fair > 0 {
		maxOverFair = float64(slices.Max(spineBytes)) / fair
	}
	return spineBytes, maxOverFair, res.Racks
}

// fig17CCs is Figure 17a's control-plane policy order within one fan-in.
var fig17CCs = []struct {
	name string
	cc   ctrl.CCAlgo
}{
	{"CCNone", ctrl.CCNone},
	{"CCDCTCP", ctrl.CCDCTCP},
	{"CCTimely", ctrl.CCTimely},
}

// fig17Sweep names every Fig. 17 point at one fidelity level: 17a is
// fanIns × fig17CCs, 17b spines × flows, 17c one point per trunk rate.
type fig17Sweep struct {
	fanIns, spines, flows, trunks []int
	dIncast, dECMP, dOversub      sim.Time
}

func fig17SweepAt(s Scale) fig17Sweep {
	return fig17Sweep{
		fanIns:   s.pick([]int{4, 16}, []int{4, 8, 16, 32}),
		dIncast:  s.dur(8*sim.Millisecond, 60*sim.Millisecond),
		spines:   []int{2, 4},
		flows:    s.pick([]int{64}, []int{64, 256}),
		dECMP:    s.dur(20*sim.Millisecond, 60*sim.Millisecond),
		trunks:   s.pick([]int{200, 30}, []int{200, 100, 30}),
		dOversub: s.dur(8*sim.Millisecond, 40*sim.Millisecond),
	}
}

// fig17ECMPResult is one ECMP balance point (see fig17ECMPPoint).
type fig17ECMPResult struct {
	spineBytes  []uint64
	maxOverFair float64
	racks       []scenario.RackResult
}

// fig17Cells runs all three Fig. 17 sweeps on up to workers host cores;
// each result slice is in the order its table renders rows.
func fig17Cells(sw fig17Sweep, workers int) (incast []fig17IncastResult, ecmp []fig17ECMPResult, oversub []fig17OversubResult) {
	incast = make([]fig17IncastResult, len(sw.fanIns)*len(fig17CCs))
	ecmp = make([]fig17ECMPResult, len(sw.spines)*len(sw.flows))
	oversub = make([]fig17OversubResult, len(sw.trunks))
	runCells(workers, len(incast)+len(ecmp)+len(oversub), func(i int) {
		if i < len(incast) {
			incast[i] = fig17IncastPoint(sw.fanIns[i/len(fig17CCs)], fig17CCs[i%len(fig17CCs)].cc, sw.dIncast)
			return
		}
		if i -= len(incast); i < len(ecmp) {
			r := &ecmp[i]
			r.spineBytes, r.maxOverFair, r.racks = fig17ECMPPoint(sw.spines[i/len(sw.flows)], sw.flows[i%len(sw.flows)], sw.dECMP)
			return
		}
		i -= len(ecmp)
		oversub[i] = fig17OversubPoint(float64(sw.trunks[i]), sw.dOversub)
	})
	return incast, ecmp, oversub
}

// Fig17 is a reproduction extension: FlexTOE's congestion control on a
// leaf–spine fabric. 17a sweeps N-to-1 incast fan-in against the control
// plane's CC policies; 17b measures per-flow ECMP load balance across the
// spines; 17c moves the congestion point with the trunk rate. With
// Scale.Cores > 1 the points run on a worker pool (results unchanged).
func Fig17(s Scale) []*Table {
	sw := fig17SweepAt(s)
	incastRes, ecmpRes, oversubRes := fig17Cells(sw, s.cores())

	incast := &Table{
		ID:     "Figure 17a",
		Title:  "Incast fan-in on the leaf-spine fabric (32 KB blocks per sender, barrier-synchronized rounds)",
		Header: []string{"Fan-in", "CC", "Goodput (G)", "FCT p50 (us)", "FCT p99 (us)", "Rounds", "Peak leaf Q (KB)", "ECN marks", "Retx KB"},
		Notes: fmt.Sprintf("leaf tier: K=%d B ECN threshold, %d B queue cap; DCTCP should hold the peak queue near K while CC-off fills the cap and pays RTO-scale tails (§5.3's Table 4 scenario on a real fabric)",
			fig17K, fig17QueueCap),
	}
	for i, r := range incastRes {
		incast.AddRow(fmt.Sprintf("%d", sw.fanIns[i/len(fig17CCs)]), fig17CCs[i%len(fig17CCs)].name,
			f2(r.goodputGbps), f1(r.p50us), f1(r.p99us),
			fmt.Sprintf("%d", r.rounds),
			f1(float64(r.peakQ)/1024),
			fmt.Sprintf("%d", r.ecnMarks),
			f1(r.retxKB))
	}

	ecmp := &Table{
		ID:     "Figure 17b",
		Title:  "ECMP balance: per-spine bytes for fixed-size cross-rack flows (64 KB each)",
		Header: []string{"Spines", "Flows", "Per-spine MB", "Max/fair"},
		Notes:  "per-flow CRC-32 hashing (packet.Flow.Hash) across the uplink group; documented imbalance bound: max spine load <= 1.45x fair share at >= 64 flows (seeded, deterministic)",
	}
	split := &Table{
		ID:     "Figure 17b (per-spine splits)",
		Title:  "Per-rack flowmon fleets: retx/RTT split by ECMP spine (rack fleets tap every host NIC; flows group by the forwarding hash)",
		Header: []string{"Spines", "Flows", "Rack", "Spine", "Split flows", "Retx segs", "DupAcks", "RTT n", "RTT mean (us)"},
		Notes:  "passive Fleet per leaf (ROADMAP 5c): per-spine groups partition each rack's observed flows by packet.Flow.Hash % spines — the exact uplink choice — so skew in the balance table above decomposes into which flows shared a spine",
	}
	for i, r := range ecmpRes {
		spines, flows := sw.spines[i/len(sw.flows)], sw.flows[i%len(sw.flows)]
		per := ""
		for j, b := range r.spineBytes {
			if j > 0 {
				per += " / "
			}
			per += f1(float64(b) / 1e6)
		}
		ecmp.AddRow(fmt.Sprintf("%d", spines), fmt.Sprintf("%d", flows), per, f2(r.maxOverFair))
		for _, rack := range r.racks {
			for _, sp := range rack.Spines {
				split.AddRow(fmt.Sprintf("%d", spines), fmt.Sprintf("%d", flows),
					fmt.Sprintf("%d", rack.Rack), fmt.Sprintf("%d", sp.Spine),
					fmt.Sprintf("%d", sp.Flows),
					fmt.Sprintf("%d", sp.RetxSegs),
					fmt.Sprintf("%d", sp.DupAcks),
					fmt.Sprintf("%d", sp.RTTSamples),
					f1(sp.RTTMeanUs))
			}
		}
	}

	oversub := &Table{
		ID:     "Figure 17c",
		Title:  "Oversubscribed trunks: 8-way incast (4 sender hosts x 40G) vs single-spine trunk rate, DCTCP on",
		Header: []string{"Trunk (G)", "Goodput (G)", "FCT p99 (us)", "Peak uplink Q (KB)", "Peak host Q (KB)", "Uplink marks", "Host marks"},
		Notes:  "hosts x 40G > spines x trunk moves the congestion point: non-blocking (200G) queues at the aggregator's leaf egress; oversubscribed trunks shift the deep queue — and the CE marks DCTCP reacts to — onto the leaf->spine uplink",
	}
	for i, r := range oversubRes {
		oversub.AddRow(fmt.Sprintf("%d", sw.trunks[i]), f2(r.goodputGbps), f1(r.p99us),
			f1(float64(r.peakUplinkQ)/1024), f1(float64(r.peakHostQ)/1024),
			fmt.Sprintf("%d", r.uplinkMarks), fmt.Sprintf("%d", r.hostMarks))
	}
	return []*Table{incast, ecmp, split, oversub}
}
