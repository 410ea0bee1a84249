package experiments

import (
	"fmt"

	"flextoe/internal/apps"
	"flextoe/internal/core"
	"flextoe/internal/ctrl"
	"flextoe/internal/ebpf"
	"flextoe/internal/flowmon"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/scenario"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/tcpseg"
	"flextoe/internal/testbed"
	"flextoe/internal/xdp"
)

// Table2 regenerates Table 2: FlexTOE throughput with flexible
// extensions enabled, plus the connection-splicing forwarding rate.
func Table2(s Scale) []*Table {
	t := &Table{
		ID:     "Table 2",
		Title:  "Performance with flexible extensions (64B echo, saturated data-path)",
		Header: []string{"Build", "Throughput (MOps)", "vs baseline"},
		Notes:  "profiling enables all 48 tracepoints; tcpdump copies every packet; XDP programs charge their executed instructions (§5.1)",
	}
	d := s.dur(4*sim.Millisecond, 60*sim.Millisecond)

	run := func(configure func(tb *testbed.Testbed)) float64 {
		tb := testbed.New(netsim.SwitchConfig{Seed: 80},
			testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 12, Seed: 80},
			testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 16, Seed: 81},
			testbed.MachineSpec{Name: "client2", Kind: testbed.FlexTOE, Cores: 16, Seed: 82},
		)
		if configure != nil {
			configure(tb)
		}
		srv := &apps.RPCServer{ReqSize: 64}
		srv.Serve(tb.M("server").Stack, 7777)
		cl := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 8}
		cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 64)
		cl2 := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 8, Latency: stats.NewHistogram()}
		cl2.Start(tb.M("client2").Stack, tb.Addr("server", 7777), 64)
		tb.Run(d)
		return mops(cl.Completed+cl2.Completed, d)
	}

	base := run(nil)
	profiled := run(func(tb *testbed.Testbed) {
		tb.M("server").TOE.Trace().EnableAll()
	})
	dumped := run(func(tb *testbed.Testbed) {
		toe := tb.M("server").TOE
		count := 0
		toe.PacketTapCost = 300 // copy to the log ring, per packet
		toe.PacketTap = func(dir string, pkt *packet.Packet) { count++ }
	})
	xdpNull := run(func(tb *testbed.Testbed) {
		tb.M("server").TOE.AttachXDP(xdp.Null())
	})
	xdpVlan := run(func(tb *testbed.Testbed) {
		tb.M("server").TOE.AttachXDP(xdp.VLANStrip())
	})

	rel := func(v float64) string { return f2(v / base) }
	t.AddRow("Baseline FlexTOE", f2(base), "1.00")
	t.AddRow("Statistics and profiling", f2(profiled), rel(profiled))
	t.AddRow("tcpdump (no filter)", f2(dumped), rel(dumped))
	t.AddRow("XDP (null)", f2(xdpNull), rel(xdpNull))
	t.AddRow("XDP (vlan-strip)", f2(xdpVlan), rel(xdpVlan))

	// Connection splicing rate: synthetic MTU-sized frames stream through
	// a FlexTOE NIC running the Listing 1 eBPF program with installed
	// splice entries; the measured rate is the XDP_TX forward rate.
	spliceMpps := spliceRate(s)
	t.AddRow("Connection splicing (Mpps)", f2(spliceMpps), "-")
	return []*Table{t}
}

// spliceRate measures Listing 1's forwarding rate on the data-path.
func spliceRate(s Scale) float64 {
	tb := testbed.New(netsim.SwitchConfig{Seed: 85},
		testbed.MachineSpec{Name: "proxy", Kind: testbed.FlexTOE, Cores: 2, Seed: 85},
		testbed.MachineSpec{Name: "gen", Kind: testbed.FlexTOE, Cores: 2, Seed: 86},
		testbed.MachineSpec{Name: "sink", Kind: testbed.FlexTOE, Cores: 2, Seed: 87},
	)
	proxy := tb.M("proxy")
	vm := ebpf.NewVM()
	tbl := ebpf.NewSpliceTable()
	prog, err := ebpf.SpliceProgram(vm, tbl)
	if err != nil {
		panic(err)
	}
	xp, err := ebpf.LoadXDP("splice", vm, prog)
	if err != nil {
		panic(err)
	}
	proxy.TOE.AttachXDP(xp)

	gen := tb.M("gen")
	sink := tb.M("sink")
	key := ebpf.SpliceKey(uint32(gen.IP), uint32(proxy.IP), 5000, 80)
	val := ebpf.SpliceValue(sink.MAC, uint32(sink.IP), 6000, 8080, 0, 0)
	if err := tbl.Update(key, val); err != nil {
		panic(err)
	}

	// Stream MTU-sized frames from the generator NIC directly (synthetic
	// line-rate source, bypassing any host stack).
	frame := &packet.Packet{
		Eth:     packet.Ethernet{Src: gen.MAC, Dst: proxy.MAC, EtherType: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: gen.IP, Dst: proxy.IP},
		TCP:     packet.TCP{SrcPort: 5000, DstPort: 80, Flags: packet.FlagACK | packet.FlagPSH, WScale: -1},
		Payload: make([]byte, 1448),
	}
	wire := frame.WireLen()
	gap := sim.Time(float64(wire) / netsim.GbpsToBytesPerSec(40) * 1e12)
	d := s.dur(2*sim.Millisecond, 20*sim.Millisecond)
	//flexvet:unowned the experiment's line-rate frame source bypasses every modelled stack
	tb.Eng.EveryCall(0, gap, func(any) bool {
		if tb.Eng.Now() >= d {
			return false
		}
		gen.Iface.Send(netsim.FramesOf(tb.Eng).NewFrame(frame, tb.Eng.Now()))
		return true
	}, nil)
	tb.Run(d + sim.Millisecond)
	return float64(proxy.TOE.XDPTx) / d.Seconds() / 1e6
}

// fig15Kinds is Figure 15a/15b's column order.
var fig15Kinds = []testbed.StackKind{testbed.Linux, testbed.Chelsio, testbed.TAS, testbed.FlexTOE}

// fig15SmallPoint runs one Figure 15a cell: 100 connections of 8-deep
// pipelined 64 B echo at the given loss rate, returning goodput (Gbps).
func fig15SmallPoint(kind testbed.StackKind, loss float64, d sim.Time) float64 {
	tb := testbed.New(netsim.SwitchConfig{LossProb: loss, Seed: 150},
		serverSpec(kind, 4, true, 150),
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 8, Seed: 151},
	)
	srv := &apps.RPCServer{ReqSize: 64}
	srv.Serve(tb.M("server").Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 8}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 100)
	tb.Run(d)
	return gbps(cl.Completed*128, d)
}

// fig15LargePoint runs one Figure 15b cell: 8 unidirectional bulk
// connections at the given loss rate, returning goodput (Gbps).
func fig15LargePoint(kind testbed.StackKind, loss float64, d sim.Time) float64 {
	tb := testbed.New(netsim.SwitchConfig{LossProb: loss, Seed: 152},
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 4, BufSize: 1 << 19, Seed: 152},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 4, BufSize: 1 << 19, Seed: 153},
	)
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("server").Stack, 9000)
	for i := 0; i < 8; i++ {
		snd := &apps.BulkSender{}
		snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
	}
	tb.Run(d)
	return gbps(sink.Received, d)
}

// fig15Cells runs the 15a and 15b sweeps (loss rate × stack kind, both
// tables) on up to workers host cores, returning goodput matrices
// indexed [rate][kind].
func fig15Cells(rates []float64, dS, dL sim.Time, workers int) (small, large [][]float64) {
	small = make([][]float64, len(rates))
	large = make([][]float64, len(rates))
	for i := range rates {
		small[i] = make([]float64, len(fig15Kinds))
		large[i] = make([]float64, len(fig15Kinds))
	}
	per := len(fig15Kinds)
	runCells(workers, 2*len(rates)*per, func(i int) {
		table, cell := i%2, i/2
		row, col := cell/per, cell%per
		if table == 0 {
			small[row][col] = fig15SmallPoint(fig15Kinds[col], rates[row], dS)
		} else {
			large[row][col] = fig15LargePoint(fig15Kinds[col], rates[row], dL)
		}
	})
	return small, large
}

// Fig15 regenerates Figure 15: throughput under injected packet loss for
// (a) small pipelined RPCs and (b) large unidirectional flows. With
// Scale.Cores > 1 the sweep cells run on a worker pool (results
// unchanged).
func Fig15(s Scale) []*Table {
	rates := []float64{0, 1e-6, 1e-5, 1e-4, 1e-3, 0.02}
	if !s.Full {
		rates = []float64{0, 1e-4, 0.02}
	}

	small := &Table{
		ID:     "Figure 15a",
		Title:  "Small RPC goodput vs loss rate (Gbps, 100 conns x 8 pipelined 64B echo)",
		Header: []string{"Loss", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "FlexTOE processes ACKs on the NIC and recovers fastest (§5.3)",
	}
	large := &Table{
		ID:     "Figure 15b",
		Title:  "Large flow goodput vs loss rate (Gbps, 8 connections unidirectional)",
		Header: []string{"Loss", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "Chelsio collapses at trace loss rates (OOO discard + timeout recovery); Linux's SACK survives best among host stacks (§5.3)",
	}
	dS := s.dur(15*sim.Millisecond, 150*sim.Millisecond)
	dL := dS
	smallCells, largeCells := fig15Cells(rates, dS, dL, s.cores())
	for row, loss := range rates {
		sc := []string{fmt.Sprintf("%g%%", loss*100)}
		lc := []string{fmt.Sprintf("%g%%", loss*100)}
		for col := range fig15Kinds {
			sc = append(sc, f3(smallCells[row][col]))
			lc = append(lc, f2(largeCells[row][col]))
		}
		small.AddRow(sc...)
		large.AddRow(lc...)
	}

	// Figure 15c (reproduction extension): the FlexTOE data-path's own
	// loss recovery, go-back-N (the paper's TAS-style design) against
	// SACK-based selective retransmission from the receiver's interval
	// set, reporting goodput alongside the bytes each scheme re-sent.
	recovery := &Table{
		ID:     "Figure 15c",
		Title:  "FlexTOE loss recovery: go-back-N vs SACK (8 bulk conns, goodput and retransmitted bytes)",
		Header: []string{"Loss", "GBN Gbps", "GBN retx KB", "GBN sel KB", "GBN p99 us", "SACK Gbps", "SACK retx KB", "SACK sel KB", "SACK p99 us"},
		Notes:  "SACK blocks derive from the receiver's OOO interval set (N=4); the sender repairs only uncovered holes (RFC 2018) and falls back to go-back-N on timeout or scoreboard overflow. 'sel KB' and 'p99 us' come from a passive flowmon analyzer on the sender NIC: selective-retransmit bytes inferred from the SACK scoreboard (GBN column must stay 0) and the 99th-percentile ack RTT at the tap",
	}
	recRates := s.pick([]int{0, 10, 100}, []int{0, 1, 10, 100, 200})
	dR := s.dur(15*sim.Millisecond, 150*sim.Millisecond)
	type recCell struct{ g, retxKB, selKB, p99Us float64 }
	recRes := make([]recCell, 2*len(recRates))
	runCells(s.cores(), len(recRes), func(i int) {
		loss := float64(recRates[i/2]) / 1e4
		g, retxKB, tap := fig15RecoveryPoint(loss, i%2 == 1, dR)
		recRes[i] = recCell{
			g:      g,
			retxKB: retxKB,
			selKB:  float64(tap.Totals().RetxSelBytes) / 1024,
			p99Us:  float64(tap.RTTHist.Quantile(0.99)),
		}
	})
	for ri, lossE4 := range recRates {
		loss := float64(lossE4) / 1e4
		cells := []string{fmt.Sprintf("%g%%", loss*100)}
		for v := 0; v < 2; v++ {
			r := recRes[2*ri+v]
			cells = append(cells, f2(r.g), f1(r.retxKB), f1(r.selKB), f1(r.p99Us))
		}
		recovery.AddRow(cells...)
	}

	// Figure 15d (reproduction extension): the receiver's reassembly
	// interval set under loss — the paper's single-interval budget (N=1)
	// against the full set (N=4), with the counters that explain the
	// throughput delta: accepted/dropped OOO segments, interval
	// coalescings, the drops only the multi-interval tracker avoided, and
	// the set's mean/max occupancy.
	reasm := &Table{
		ID:     "Figure 15d",
		Title:  "Reassembly interval set under loss: N=1 vs N=4 (8 bulk conns, receiver-side counters)",
		Header: []string{"Loss", "N", "Gbps", "OOO acc", "OOO drop", "Merges", "Drops avoided", "Occ mean", "Occ max"},
		Notes:  "a single interval (Table 5 budget) discards any second hole; drops-avoided counts segments N=1 would have thrown away, forcing retransmissions (ROADMAP: N=1 vs N=4 delta under loss)",
	}
	ivCaps := []int{1, tcpseg.MaxOOOIntervals}
	type reasmCell struct {
		g   float64
		toe *core.TOE
	}
	reasmRes := make([]reasmCell, len(recRates)*len(ivCaps))
	runCells(s.cores(), len(reasmRes), func(i int) {
		loss := float64(recRates[i/len(ivCaps)]) / 1e4
		g, toe := fig15ReassemblyPoint(loss, ivCaps[i%len(ivCaps)], dR)
		reasmRes[i] = reasmCell{g, toe}
	})
	for ri, lossE4 := range recRates {
		loss := float64(lossE4) / 1e4
		for vi, ivs := range ivCaps {
			r := reasmRes[ri*len(ivCaps)+vi]
			toe := r.toe
			reasm.AddRow(fmt.Sprintf("%g%%", loss*100), fmt.Sprintf("%d", ivs),
				f2(r.g),
				fmt.Sprintf("%d", toe.OOOAccepted), fmt.Sprintf("%d", toe.OOODropped),
				fmt.Sprintf("%d", toe.OOOMerges), fmt.Sprintf("%d", toe.OOODropsAvoided),
				f2(toe.OOOOccupancy.Mean()), fmt.Sprintf("%d", toe.OOOOccupancy.MaxSeen()))
		}
	}

	// Figure 15e (reproduction extension): cross-stack recovery — a
	// FlexTOE SACK sender against the Linux personality's receiver. The
	// Linux side tracks up to 32 reassembly intervals and advertises the
	// freshest blocks on every ACK, while the FlexTOE scoreboard holds
	// only MaxOOOIntervals (4): under enough loss the sender overflows,
	// reneges (RFC 2018), and falls back to go-back-N until the episode
	// drains — the paper's bounded-state design meeting a full-featured
	// peer.
	cross := &Table{
		ID:     "Figure 15e",
		Title:  "Cross-stack recovery: FlexTOE SACK sender vs Linux receiver (8 bulk conns)",
		Header: []string{"Loss", "Gbps", "Retx KB", "SACK retx", "Reneges"},
		Notes:  "Reneges counts scoreboard overflows on the FlexTOE sender (receiver tracks 32 intervals, scoreboard holds 4); each renege discards the blocks and go-back-Ns conservatively. The receiver advertises blocks most-recent-first with RFC 2018 rotation of older holes (baseline.appendSACK); measured effect on this table is nil — the retransmit volume is RTO-epoch-dominated (TestFig15CrossStackRetxGap)",
	}
	type crossCell struct {
		g, retxKB         float64
		sackRetx, reneges uint64
	}
	crossRes := make([]crossCell, len(recRates))
	runCells(s.cores(), len(crossRes), func(i int) {
		loss := float64(recRates[i]) / 1e4
		g, retxKB, sackRetx, reneges := fig15CrossStackPoint(loss, dR)
		crossRes[i] = crossCell{g, retxKB, sackRetx, reneges}
	})
	for ri, lossE4 := range recRates {
		loss := float64(lossE4) / 1e4
		r := crossRes[ri]
		cross.AddRow(fmt.Sprintf("%g%%", loss*100), f2(r.g), f1(r.retxKB),
			fmt.Sprintf("%d", r.sackRetx), fmt.Sprintf("%d", r.reneges))
	}
	return []*Table{small, large, recovery, reasm, cross}
}

// fig15CrossStackPoint runs 8 bulk FlexTOE→Linux flows at the given loss
// rate: the FlexTOE client sends with SACK enabled, the Linux-personality
// server receives with its 32-interval reassembly and real SACK blocks.
func fig15CrossStackPoint(loss float64, d sim.Time) (goodputGbps, retxKB float64, sackRetx, reneges uint64) {
	cfg := core.AgilioCX40Config()
	cfg.OOOIntervals = tcpseg.MaxOOOIntervals
	cfg.EnableSACK = true
	tb := testbed.New(netsim.SwitchConfig{LossProb: loss, Seed: 159},
		testbed.MachineSpec{Name: "server", Kind: testbed.Linux, Cores: 4, BufSize: 1 << 19, Seed: 159},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 19, FlexCfg: &cfg, Seed: 160},
	)
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("server").Stack, 9000)
	for i := 0; i < 8; i++ {
		snd := &apps.BulkSender{}
		snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
	}
	tb.Run(d)
	toe := tb.M("client").TOE
	return gbps(sink.Received, d), float64(toe.RetxBytes) / 1024, toe.SACKRetx, toe.SACKReneges
}

// fig15ReassemblyPoint measures one FlexTOE-vs-FlexTOE bulk run with the
// given reassembly interval capacity (go-back-N recovery, so the interval
// set is the only variable), returning goodput and the receiver TOE for
// its reassembly counters.
func fig15ReassemblyPoint(loss float64, intervals int, d sim.Time) (goodputGbps float64, rx *core.TOE) {
	cfg := core.AgilioCX40Config()
	cfg.OOOIntervals = intervals
	tb := testbed.New(netsim.SwitchConfig{LossProb: loss, Seed: 157},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 19, FlexCfg: &cfg, Seed: 157},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 19, FlexCfg: &cfg, Seed: 158},
	)
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("server").Stack, 9000)
	for i := 0; i < 8; i++ {
		snd := &apps.BulkSender{}
		snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
	}
	tb.Run(d)
	return gbps(sink.Received, d), tb.M("server").TOE
}

// fig15RecoveryPoint measures one FlexTOE-vs-FlexTOE bulk run at the
// given loss rate, with or without SACK, returning goodput (Gbps),
// sender-side retransmitted payload (KB) from the TOE's own counters, and
// a passive flowmon report from the sender NIC tap — the analyzer's
// wire-level view of the same run (GBN/selective retransmit split, RTT
// distribution).
//
// The point runs through the scenario builder: the spec below is the
// declarative form of the original hand-built harness (same seeds, same
// construction order), and TestFig15SACKBeatsGBNAtOnePercentLoss plus
// the determinism gates prove the numbers stayed bit-identical across
// the refactor. examples/scenarios/fig15c-loss-sweep.json is this spec
// in JSON clothing.
func fig15RecoveryPoint(loss float64, sack bool, d sim.Time) (goodputGbps, retxKB float64, tap *flowmon.Report) {
	// Identical reassembly capacity in both runs (OOOCap pins the
	// interval budget whether or not SACK widens it), so the only
	// variable is the recovery scheme.
	spec := &scenario.Spec{
		Name:       "fig15c-recovery",
		Seed:       155,
		DurationUs: int64(d / sim.Microsecond),
		Topology: scenario.Topology{
			Kind:   scenario.TopoTestbed,
			Switch: &scenario.SwitchSpec{LossProb: loss},
		},
		Machines: []scenario.Machine{
			{Name: "server", Stack: scenario.StackFlexTOE, Cores: 4, BufBytes: 1 << 19,
				SACK: sack, OOOCap: tcpseg.MaxOOOIntervals, Seed: 155},
			{Name: "client", Stack: scenario.StackFlexTOE, Cores: 4, BufBytes: 1 << 19,
				SACK: sack, OOOCap: tcpseg.MaxOOOIntervals, Seed: 156},
		},
		Workloads: []scenario.Workload{{
			Kind: scenario.KindBulk,
			Bulk: &scenario.BulkWorkload{Server: "server", Port: 9000, Clients: []string{"client"}, Conns: 8},
		}},
		Measure: scenario.Measure{Flowmon: []scenario.FlowmonAttach{{Machine: "client"}}},
	}
	built, res := mustScenario(spec)
	return res.Workloads[0].GoodputGbps, float64(res.Machines[1].RetxBytes) / 1024, built.Reports()[0]
}

// Fig16 regenerates Figure 16: the distribution of per-connection
// throughput for bulk flows at line rate (median and 1st percentile of
// the fair-share-normalized goodput, plus Jain's index).
func Fig16(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 16",
		Title:  "Throughput distribution at line rate (goodput/fair-share)",
		Header: []string{"Conns", "Linux 50p", "Linux 1p", "Linux JFI", "FlexTOE 50p", "FlexTOE 1p", "FlexTOE JFI"},
		Notes:  "FlexTOE's Carousel scheduler with DCTCP holds JFI near 1.0 while Linux collapses beyond 256 connections (§5.3)",
	}
	counts := s.pick([]int{64, 256}, []int{64, 128, 256, 512, 1024, 2048})
	d := s.dur(20*sim.Millisecond, 200*sim.Millisecond)
	for _, n := range counts {
		row := []string{fmt.Sprintf("%d", n)}
		for _, kind := range []testbed.StackKind{testbed.Linux, testbed.FlexTOE} {
			med, p1, jfi := fig16Point(kind, n, d)
			row = append(row, f2(med), f2(p1), f2(jfi))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

func fig16Point(kind testbed.StackKind, conns int, d sim.Time) (med, p1, jfi float64) {
	buf := uint32(1 << 17)
	tb := testbed.New(netsim.SwitchConfig{
		ECNThresholdBytes: 90_000,
		QueueCapBytes:     700_000,
		Seed:              160,
	},
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 8, BufSize: buf, CC: ctrl.CCDCTCP, Seed: 160},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 8, BufSize: buf, CC: ctrl.CCDCTCP, Seed: 161},
	)
	sink := apps.NewPerConnBulkSink()
	sink.Serve(tb.M("server").Stack, 9000)
	for i := 0; i < conns; i++ {
		snd := &apps.BulkSender{}
		snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
	}
	// Warm up, then measure.
	warm := d / 4
	tb.Run(warm)
	sink.ResetCounts()
	tb.Run(warm + d)
	shares := sink.Shares()
	if len(shares) == 0 {
		return 0, 0, 1
	}
	fair := stats.Mean(shares)
	norm := make([]float64, len(shares))
	for i, v := range shares {
		if fair > 0 {
			norm[i] = v / fair
		}
	}
	return stats.PercentileOf(norm, 50), stats.PercentileOf(norm, 1), stats.JainFairness(shares)
}

// Table4 regenerates Table 4: incast with control-plane congestion
// control on and off.
func Table4(s Scale) []*Table {
	t := &Table{
		ID:     "Table 4",
		Title:  "FlexTOE congestion control under incast (64KB responses)",
		Header: []string{"deg.", "#con.", "Tpt on (G)", "Tpt off (G)", "99.99p on (ms)", "99.99p off (ms)", "JFI on", "JFI off"},
		Notes:  "shaped egress port + WRED tail drops; disabling the control plane's DCTCP inflates the tail and skews fairness (§5.3)",
	}
	cases := []struct{ degree, conns int }{{4, 16}, {4, 64}, {10, 10}}
	if s.Full {
		cases = []struct{ degree, conns int }{{4, 16}, {4, 64}, {4, 128}, {10, 10}, {20, 20}}
	}
	d := s.dur(30*sim.Millisecond, 250*sim.Millisecond)
	for _, c := range cases {
		on := incastPoint(c.degree, c.conns, true, d)
		off := incastPoint(c.degree, c.conns, false, d)
		t.AddRow(fmt.Sprintf("%d", c.degree), fmt.Sprintf("%d", c.conns),
			f2(on.gbps), f2(off.gbps),
			f2(on.tailMs), f2(off.tailMs),
			f2(on.jfi), f2(off.jfi))
	}
	return []*Table{t}
}

type incastResult struct {
	gbps   float64
	tailMs float64
	jfi    float64
}

// incastPoint: clients request 64 KB responses over conns connections
// into a port shaped to lineRate/degree with WRED.
func incastPoint(degree, conns int, ccOn bool, d sim.Time) incastResult {
	cc := ctrl.CCNone
	if ccOn {
		cc = ctrl.CCDCTCP
	}
	tb := testbed.New(netsim.SwitchConfig{
		ECNThresholdBytes: 90_000,
		WREDMinBytes:      250_000,
		WREDMaxBytes:      500_000,
		WREDMaxProb:       0.4,
		Seed:              170,
	},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, BufSize: 1 << 18, CC: cc, Seed: 170},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, BufSize: 1 << 18, CC: cc, Seed: 171},
	)
	// Shape the client-facing port to emulate the incast degree.
	tb.Net.ShapePort("client", netsim.GbpsToBytesPerSec(40)/float64(degree))

	srv := &apps.RPCServer{ReqSize: 32, RespSize: 65536}
	srv.Serve(tb.M("server").Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: 32, RespSize: 65536, WarmupOps: uint64(conns)}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), conns)
	tb.Run(d)

	// Per-connection fairness from completed ops spread: approximate via
	// latency-weighted completion counts; with a shared histogram we use
	// the server-side per-conn byte counters instead.
	res := incastResult{
		gbps:   gbps(cl.Completed*65536, d),
		tailMs: usOf(cl.Latency.Percentile(99.99)) / 1000,
	}
	// JFI over per-connection completions.
	res.jfi = cl.ConnJFI()
	return res
}
