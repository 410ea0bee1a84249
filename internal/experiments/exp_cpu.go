package experiments

import (
	"fmt"

	"flextoe/internal/apps"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
	"flextoe/internal/testbed"
)

// memcachedRun executes the §2.1 workload: single-threaded memcached with
// 32 B keys/values driven to saturation, returning completed ops and the
// cycles the server spent.
type memcachedResult struct {
	ops       uint64
	allCycles uint64 // application cores + dedicated stack cores
}

func memcachedRun(kind testbed.StackKind, serverCores int, clientConns int, d sim.Time, seed uint64) memcachedResult {
	tb := testbed.New(netsim.SwitchConfig{Seed: seed},
		serverSpec(kind, serverCores, seed),
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 16, Seed: seed + 1},
		testbed.MachineSpec{Name: "client2", Kind: testbed.FlexTOE, Cores: 16, Seed: seed + 2},
	)
	kv := &apps.KVServer{AppCycles: 890, ValueLen: 32}
	kv.Serve(tb.M("server").Stack, 11211)
	cl := &apps.KVClient{KeyLen: 32, ValLen: 32, SetRatio: 0.1, Pipeline: 2, Seed: seed}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 11211), clientConns/2)
	cl2 := &apps.KVClient{KeyLen: 32, ValLen: 32, SetRatio: 0.1, Pipeline: 2, Seed: seed + 7}
	cl2.Start(tb.M("client2").Stack, tb.Addr("server", 11211), clientConns/2)
	tb.Run(d)

	var all uint64
	srv := tb.M("server")
	for _, c := range srv.Stack.Machine().Cores {
		all += c.Instructions
	}
	if srv.Base != nil {
		// TAS dedicated fast-path cores are part of the per-request
		// budget.
		all += srv.Base.FastPathInstructions()
	}
	return memcachedResult{ops: cl.Completed + cl2.Completed, allCycles: all}
}

// table1Profile returns the per-request component decomposition and
// microarchitectural profile for a stack. Components scale so that their
// sum matches the measured per-request cycles; the stall shares and
// icache footprints are the paper's measured inputs (they parameterize
// the host model).
type archProfile struct {
	driver, tcp, sockets, app, other     float64 // fractions of total
	retiring, frontend, backend, badspec float64
	icacheKB                             float64
	instrPerCycle                        float64
}

func archProfileOf(kind testbed.StackKind) archProfile {
	switch kind {
	case testbed.Linux:
		return archProfile{0.71 / 12.13, 4.25 / 12.13, 2.48 / 12.13, 1.26 / 12.13, 3.42 / 12.13,
			0.38, 0.29, 0.28, 0.05, 47.50, 1.33}
	case testbed.Chelsio:
		return archProfile{1.28 / 8.89, 0.40 / 8.89, 2.61 / 8.89, 1.31 / 8.89, 3.28 / 8.89,
			0.27, 0.17, 0.53, 0.03, 73.43, 0.92}
	case testbed.TAS:
		return archProfile{0.18 / 3.34, 1.44 / 3.34, 0.79 / 3.34, 0.85 / 3.34, 0.09 / 3.34,
			0.48, 0.13, 0.36, 0.04, 39.75, 1.85}
	default: // FlexTOE
		return archProfile{0, 0, 0.74 / 1.67, 0.89 / 1.67, 0.04 / 1.67,
			0.46, 0.21, 0.27, 0.06, 19.00, 1.75}
	}
}

// Table1 regenerates Table 1: per-request CPU impact of TCP processing
// for single-threaded memcached on each stack.
func Table1(s Scale) []*Table {
	t := &Table{
		ID:     "Table 1",
		Title:  "Per-request CPU impact of TCP processing (single-threaded memcached, 32B keys/values)",
		Header: []string{"Module", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "kc = kilocycles/request, measured on the simulated host; component split and top-down shares are the stacks' calibrated profiles",
	}
	d := s.dur(25*sim.Millisecond, 200*sim.Millisecond)
	total := map[testbed.StackKind]float64{}
	for i, kind := range testbed.AllStacks {
		res := memcachedRun(kind, 1, 16, d, uint64(100+i))
		if res.ops > 0 {
			total[kind] = float64(res.allCycles) / float64(res.ops) / 1000
		}
	}
	row := func(name string, get func(p archProfile, tot float64) float64) {
		cells := []string{name}
		for _, k := range testbed.AllStacks {
			cells = append(cells, f2(get(archProfileOf(k), total[k])))
		}
		t.AddRow(cells...)
	}
	row("NIC driver (kc)", func(p archProfile, tot float64) float64 { return p.driver * tot })
	row("TCP/IP stack (kc)", func(p archProfile, tot float64) float64 { return p.tcp * tot })
	row("POSIX sockets (kc)", func(p archProfile, tot float64) float64 { return p.sockets * tot })
	row("Application (kc)", func(p archProfile, tot float64) float64 { return p.app * tot })
	row("Other (kc)", func(p archProfile, tot float64) float64 { return p.other * tot })
	row("Total (kc)", func(p archProfile, tot float64) float64 { return tot })
	row("Retiring (kc)", func(p archProfile, tot float64) float64 { return p.retiring * tot })
	row("Frontend bound (kc)", func(p archProfile, tot float64) float64 { return p.frontend * tot })
	row("Backend bound (kc)", func(p archProfile, tot float64) float64 { return p.backend * tot })
	row("Bad speculation (kc)", func(p archProfile, tot float64) float64 { return p.badspec * tot })
	row("Instructions (k)", func(p archProfile, tot float64) float64 { return p.instrPerCycle * tot })
	row("IPC", func(p archProfile, tot float64) float64 { return p.instrPerCycle })
	row("Icache (KB)", func(p archProfile, tot float64) float64 { return p.icacheKB })
	return []*Table{t}
}

// Table6 regenerates Table 6: the TAS per-packet TCP/IP phase breakdown
// for the same memcached workload.
func Table6(s Scale) []*Table {
	t := &Table{
		ID:     "Table 6",
		Title:  "Breakdown of TCP/IP stack overheads in TAS (per packet)",
		Header: []string{"Function", "Cycles", "%"},
		Notes:  "total measured on the TAS fast-path core; phase split follows the TAS architecture's measured shares",
	}
	d := s.dur(25*sim.Millisecond, 200*sim.Millisecond)
	tb := testbed.New(netsim.SwitchConfig{Seed: 61},
		serverSpec(testbed.TAS, 1, 61),
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 16, Seed: 62},
	)
	kv := &apps.KVServer{AppCycles: 890, ValueLen: 32}
	kv.Serve(tb.M("server").Stack, 11211)
	cl := &apps.KVClient{KeyLen: 32, ValLen: 32, SetRatio: 0.1, Pipeline: 2, Seed: 63}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 11211), 16)
	tb.Run(d)
	srv := tb.M("server").Base
	segs := srv.RxSegs + srv.TxSegs
	perPkt := 0.0
	if segs > 0 {
		perPkt = float64(srv.FastPathInstructions()) / float64(segs)
	}
	phases := []struct {
		name string
		frac float64
	}{
		{"Segment generation", 0.09},
		{"Loss detection (and recovery)", 0.42},
		{"Payload transfer", 0.01},
		{"Application notification", 0.26},
		{"Flow scheduling", 0.12},
		{"Miscellaneous", 0.10},
	}
	for _, ph := range phases {
		t.AddRow(ph.name, fmt.Sprintf("%.0f", ph.frac*perPkt), fmt.Sprintf("%.0f", ph.frac*100))
	}
	t.AddRow("Total", fmt.Sprintf("%.0f", perPkt), "100")
	return []*Table{t}
}

// fig8Cells runs the (server cores × stack kind) sweep on up to workers
// host cores and returns MOps per cell, row-major with testbed.AllStacks
// as the columns.
func fig8Cells(cores []int, d sim.Time, workers int) []float64 {
	per := len(testbed.AllStacks)
	return cells(workers, len(cores)*per, func(i int) float64 {
		n := cores[i/per]
		return mops(memcachedRun(testbed.AllStacks[i%per], n, 64, d, uint64(200+n)).ops, d)
	})
}

// Fig8 regenerates Figure 8: memcached throughput scaling with server
// cores for all four stacks. With Scale.Cores > 1 the sweep cells run on
// a worker pool (results unchanged).
func Fig8(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 8",
		Title:  "Memcached throughput scalability (MOps vs server cores)",
		Header: []string{"Cores", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "TAS spends part of the core budget on its fast path; the Agilio CX becomes the FlexTOE bottleneck at high core counts (§5.1)",
	}
	cores := s.pick([]int{2, 4, 8, 16}, []int{2, 4, 6, 8, 10, 12, 14, 16})
	d := s.dur(15*sim.Millisecond, 100*sim.Millisecond)
	vals := fig8Cells(cores, d, s.cores())
	per := len(testbed.AllStacks)
	for i, n := range cores {
		row := []string{fmt.Sprintf("%d", n)}
		for _, v := range vals[i*per : (i+1)*per] {
			row = append(row, f2(v))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// Fig9 regenerates Figure 9: memcached operation latency for every
// server-stack x client-stack combination.
func Fig9(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 9",
		Title:  "Latency CDF summary per server/client stack combination (us)",
		Header: []string{"Server", "Client", "p25", "p50", "p90", "p99"},
		Notes:  "percentile summary of each combination's latency CDF; FlexTOE servers give the lowest median and tail for every client (§5.1)",
	}
	d := s.dur(15*sim.Millisecond, 150*sim.Millisecond)
	for _, server := range testbed.AllStacks {
		for _, client := range testbed.AllStacks {
			tb := testbed.New(netsim.SwitchConfig{Seed: 91},
				serverSpec(server, 1, 91),
				testbed.MachineSpec{Name: "client", Kind: client, Cores: 4, Seed: 92},
			)
			kv := &apps.KVServer{AppCycles: 890, ValueLen: 32}
			kv.Serve(tb.M("server").Stack, 11211)
			cl := &apps.KVClient{KeyLen: 32, ValLen: 32, SetRatio: 0.1, Seed: 93}
			cl.Start(tb.M("client").Stack, tb.Addr("server", 11211), 4)
			tb.Run(d)
			h := cl.Latency
			t.AddRow(string(server), string(client),
				f1(usOf(h.Percentile(25))), f1(usOf(h.Percentile(50))),
				f1(usOf(h.Percentile(90))), f1(usOf(h.Percentile(99))))
		}
	}
	return []*Table{t}
}

// Table5 verifies the connection-state partitioning (Table 5): the
// per-stage packed sizes of the state the data-path keeps per connection.
func Table5(Scale) []*Table {
	t := &Table{
		ID:     "Table 5",
		Title:  "Connection state partitions",
		Header: []string{"Partition", "Bytes"},
		Notes:  "paper reports 108 B from raw bit widths; byte-aligned packing gives 109",
	}
	var pre tcpseg.PreState
	var proto tcpseg.ProtoState
	var post tcpseg.PostState
	t.AddRow("Pre-processor (connection identification)", fmt.Sprintf("%d", len(pre.MarshalTable5())))
	t.AddRow("Protocol (TCP state machine)", fmt.Sprintf("%d", len(proto.MarshalTable5())))
	t.AddRow("Post-processor (ctx queue, congestion control)", fmt.Sprintf("%d", len(post.MarshalTable5())))
	t.AddRow("Total", fmt.Sprintf("%d", tcpseg.TotalTable5Bytes))
	// The multi-interval reassembly extension (Config.OOOIntervals > 1)
	// costs 8 B per extra interval actually in use, on top of the paper's
	// budget. Shown at full occupancy for the maximum configuration.
	proto.OOOCap = tcpseg.MaxOOOIntervals
	proto.OOOCnt = tcpseg.MaxOOOIntervals
	for i := range proto.OOO {
		proto.OOO[i] = tcpseg.SeqInterval{Start: uint32(100 * i), End: uint32(100*i + 50)}
	}
	t.AddRow(fmt.Sprintf("OOO extension (N=%d, full)", tcpseg.MaxOOOIntervals),
		fmt.Sprintf("+%d", len(proto.MarshalOOOExtension())))
	// The SACK scoreboard (Config.EnableSACK) likewise costs 8 B per
	// peer-held interval actually tracked, only while loss is
	// outstanding. Shown at full occupancy.
	proto.SACKCnt = tcpseg.MaxOOOIntervals
	for i := range proto.SACKScore {
		proto.SACKScore[i] = tcpseg.SeqInterval{Start: uint32(100 * i), End: uint32(100*i + 50)}
	}
	t.AddRow(fmt.Sprintf("SACK scoreboard (cap %d, full)", tcpseg.MaxOOOIntervals),
		fmt.Sprintf("+%d", len(proto.MarshalSACKExtension())))
	return []*Table{t}
}
