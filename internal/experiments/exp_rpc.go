package experiments

import (
	"fmt"

	"flextoe/internal/apps"
	"flextoe/internal/core"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// Fig10 regenerates Figure 10: RX and TX RPC throughput for a saturated
// single-application-core server at 250 and 1,000 cycles per message.
func Fig10(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 10",
		Title:  "RPC throughput for saturated server (Gbps of the sized direction)",
		Header: []string{"Dir", "Cycles", "Size", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "single-threaded server, 128 connections from pipelined clients; TAS runs its fast path on additional cores, as in the paper",
	}
	sizes := s.pick([]int{32, 512, 2048}, []int{32, 128, 512, 2048})
	d := s.dur(10*sim.Millisecond, 80*sim.Millisecond)
	for _, dir := range []string{"RX", "TX"} {
		for _, cycles := range []int64{250, 1000} {
			for _, size := range sizes {
				cells := []string{dir, fmt.Sprintf("%d", cycles), fmt.Sprintf("%d", size)}
				for _, kind := range []testbed.StackKind{testbed.Linux, testbed.Chelsio, testbed.TAS, testbed.FlexTOE} {
					cells = append(cells, f2(fig10Point(kind, dir, cycles, size, d)))
				}
				t.AddRow(cells...)
			}
		}
	}
	return []*Table{t}
}

func fig10Point(kind testbed.StackKind, dir string, cycles int64, size int, d sim.Time) float64 {
	tb := testbed.New(netsim.SwitchConfig{Seed: 10},
		serverSpec(kind, 1, true, 10),
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 16, Seed: 11},
	)
	req, resp := size, 4
	if dir == "TX" {
		req, resp = 4, size
	}
	srv := &apps.RPCServer{ReqSize: req, RespSize: resp, AppCycles: cycles}
	srv.Serve(tb.M("server").Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: req, RespSize: resp, Pipeline: 8}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 128)
	tb.Run(d)
	return gbps(cl.Completed*uint64(size), d)
}

// Fig11 regenerates Figure 11: single-connection RPC RTT (median, 99p,
// 99.99p) across message sizes.
func Fig11(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 11",
		Title:  "RPC RTT percentiles vs message size (us)",
		Header: []string{"Size", "Stack", "p50", "p99", "p99.99"},
		Notes:  "single connection ping-pong; FlexTOE trades slightly higher median for a much smaller tail (§5.2)",
	}
	sizes := s.pick([]int{32, 256, 2048}, []int{32, 64, 128, 256, 512, 1024, 2048})
	d := s.dur(40*sim.Millisecond, 2*sim.Second)
	for _, size := range sizes {
		for _, kind := range testbed.AllStacks {
			tb := testbed.New(netsim.SwitchConfig{Seed: 20},
				serverSpec(kind, 1, true, 20),
				testbed.MachineSpec{Name: "client", Kind: kind, Cores: 2, Seed: 21},
			)
			srv := &apps.RPCServer{ReqSize: size}
			srv.Serve(tb.M("server").Stack, 7777)
			cl := &apps.ClosedLoopClient{ReqSize: size, WarmupOps: 10}
			cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 1)
			tb.Run(d)
			h := cl.Latency
			t.AddRow(fmt.Sprintf("%d", size), string(kind),
				f1(usOf(h.Percentile(50))), f1(usOf(h.Percentile(99))), f1(usOf(h.Percentile(99.99))))
		}
	}
	return []*Table{t}
}

// Fig12 regenerates Figure 12: single-connection goodput for large RPCs,
// unidirectional (32 B response) and bidirectional (echo).
func Fig12(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 12",
		Title:  "Large RPC goodput, single connection (Gbps)",
		Header: []string{"Mode", "Size", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "Chelsio's 100G NIC leads unidirectional streaming; FlexTOE leads the echo case where per-connection parallelism matters (§5.2). TAS is unstable beyond 2M bidirectional in the paper.",
	}
	sizes := s.pick([]int{131072, 2097152}, []int{131072, 524288, 2097152, 8388608})
	d := s.dur(20*sim.Millisecond, 150*sim.Millisecond)
	for _, mode := range []string{"unidirectional", "bidirectional"} {
		for _, size := range sizes {
			cells := []string{mode, fmt.Sprintf("%d", size)}
			for _, kind := range []testbed.StackKind{testbed.Linux, testbed.Chelsio, testbed.TAS, testbed.FlexTOE} {
				cells = append(cells, f2(fig12Point(kind, mode, size, d)))
			}
			t.AddRow(cells...)
		}
	}
	return []*Table{t}
}

func fig12Point(kind testbed.StackKind, mode string, size int, d sim.Time) float64 {
	buf := uint32(1 << 20)
	tb := testbed.New(netsim.SwitchConfig{Seed: 30},
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 4, BufSize: buf, Seed: 30},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 4, BufSize: buf, Seed: 31},
	)
	resp := 32
	if mode == "bidirectional" {
		resp = size
	}
	sink := &apps.BulkSink{ChunkBytes: size, RespBytes: resp}
	sink.Serve(tb.M("server").Stack, 9000)
	snd := &apps.BulkSender{}
	snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
	tb.Run(d)
	return gbps(sink.Received, d)
}

// Fig13 regenerates Figure 13: throughput vs number of connections, 64 B
// echo with one RPC in flight per connection.
func Fig13(s Scale) []*Table {
	t := &Table{
		ID:     "Figure 13",
		Title:  "Connection scalability (MOps vs established connections)",
		Header: []string{"Connections", "Linux", "Chelsio", "TAS", "FlexTOE"},
		Notes:  "single 64B RPC in flight per connection; FlexTOE's knee comes from the CLS/EMEM cache hierarchy (§5.2, §4.1)",
	}
	counts := s.pick([]int{512, 2048, 4096}, []int{2048, 4096, 8192, 12288, 16384})
	d := s.dur(8*sim.Millisecond, 50*sim.Millisecond)
	for _, n := range counts {
		cells := []string{fmt.Sprintf("%d", n)}
		for _, kind := range []testbed.StackKind{testbed.Linux, testbed.Chelsio, testbed.TAS, testbed.FlexTOE} {
			tb := testbed.New(netsim.SwitchConfig{Seed: 40},
				serverSpec(kind, 8, true, 40),
				testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 16, BufSize: 2048, Seed: 41},
				testbed.MachineSpec{Name: "client2", Kind: testbed.FlexTOE, Cores: 16, BufSize: 2048, Seed: 42},
			)
			srv := &apps.RPCServer{ReqSize: 64}
			srv.Serve(tb.M("server").Stack, 7777)
			cl := &apps.ClosedLoopClient{ReqSize: 64}
			cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), n/2)
			cl2 := &apps.ClosedLoopClient{ReqSize: 64}
			cl2.Start(tb.M("client2").Stack, tb.Addr("server", 7777), n/2)
			tb.Run(d)
			cells = append(cells, f2(mops(cl.Completed+cl2.Completed, d)))
		}
		t.AddRow(cells...)
	}
	return []*Table{t}
}

// Table3 regenerates Table 3: the data-path parallelism ablation on a
// 64-connection 2 KB echo workload.
func Table3(s Scale) []*Table {
	t := &Table{
		ID:     "Table 3",
		Title:  "FlexTOE data-path parallelism breakdown (2KB echo, 64 connections)",
		Header: []string{"Design", "Tput (Mbps)", "x", "p50 (us)", "p99.99 (us)"},
		Notes:  "each level of parallelism is necessary (§5.2): pipelining, intra-FPC threads, pre/post replication, flow-group islands",
	}
	d := s.dur(15*sim.Millisecond, 100*sim.Millisecond)

	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", func() core.Config {
			c := core.AgilioCX40Config()
			c.RunToCompletion = true
			c.ThreadsPerFPC = 1
			return c
		}()},
		{"+ Pipelining", func() core.Config {
			c := core.AgilioCX40Config()
			c.FlowGroups = 1
			c.PreRepl, c.ProtoRepl, c.PostRepl = 1, 1, 1
			c.DMARepl, c.CtxRepl = 1, 1
			c.ThreadsPerFPC = 1
			return c
		}()},
		{"+ Intra-FPC parallelism", func() core.Config {
			c := core.AgilioCX40Config()
			c.FlowGroups = 1
			c.PreRepl, c.ProtoRepl, c.PostRepl = 1, 1, 1
			c.DMARepl, c.CtxRepl = 2, 1
			return c // 8 threads
		}()},
		{"+ Replicated pre/post", func() core.Config {
			c := core.AgilioCX40Config()
			c.FlowGroups = 1
			c.PreRepl, c.ProtoRepl, c.PostRepl = 2, 1, 2
			c.DMARepl, c.CtxRepl = 2, 1
			return c
		}()},
		{"+ Flow-group islands", core.AgilioCX40Config()},
	}

	var base float64
	for i, c := range configs {
		cfg := c.cfg
		tb := testbed.New(netsim.SwitchConfig{Seed: 50},
			testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, FlexCfg: &cfg, Seed: 50},
			testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 16, Seed: 51},
		)
		srv := &apps.RPCServer{ReqSize: 2048}
		srv.Serve(tb.M("server").Stack, 7777)
		cl := &apps.ClosedLoopClient{ReqSize: 2048}
		cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 64)
		tb.Run(d)
		mbps := gbps(cl.Completed*2048*2, d) * 1000
		if i == 0 {
			base = mbps
		}
		speedup := 1.0
		if base > 0 {
			speedup = mbps / base
		}
		t.AddRow(c.name, f1(mbps), fmt.Sprintf("%.0f", speedup),
			f1(usOf(cl.Latency.Percentile(50))), f1(usOf(cl.Latency.Percentile(99.99))))
	}
	return []*Table{t}
}

// Fig14 regenerates Figure 14: single-connection throughput vs MSS on the
// BlueField and x86 ports, comparing TAS, TAS-nocopy, FlexTOE-scalar and
// FlexTOE (2x pre/post).
func Fig14(s Scale) []*Table {
	var out []*Table
	msss := s.pick([]int{1448, 512, 64}, []int{1448, 1024, 512, 256, 128, 64})
	d := s.dur(15*sim.Millisecond, 100*sim.Millisecond)
	for _, platform := range []string{"BlueField", "x86"} {
		t := &Table{
			ID:     "Figure 14 (" + platform + ")",
			Title:  "Single-connection RPC sink throughput vs MSS (Gbps)",
			Header: []string{"MSS", "TAS", "TAS-nocopy", "FlexTOE-scalar", "FlexTOE"},
			Notes:  "identical pipeline as the Agilio port; FlexTOE's gain is larger on the wimpier platform (§5.2, §E)",
		}
		for _, mss := range msss {
			cells := []string{fmt.Sprintf("%d", mss)}
			for _, variant := range []string{"tas", "tas-nocopy", "flex-scalar", "flex"} {
				cells = append(cells, f2(fig14Point(platform, variant, uint32(mss), d)))
			}
			t.AddRow(cells...)
		}
		out = append(out, t)
	}
	return out
}

func fig14Point(platform, variant string, mss uint32, d sim.Time) float64 {
	var hz int64 = 2_350_000_000
	if platform == "BlueField" {
		hz = 800_000_000
	}
	buf := uint32(1 << 19)
	var server testbed.MachineSpec
	switch variant {
	case "tas", "tas-nocopy":
		// Wimpy-platform TAS: the whole stack runs on the platform's
		// cores — per-segment costs stay the same in cycles but the
		// clock is slower.
		server = testbed.MachineSpec{
			Name: "server", Kind: testbed.TAS, Cores: 1, CoreHz: hz,
			StackCores: 1, BufSize: buf, Seed: 70,
		}
	default:
		cfg := core.X86Config(variant == "flex")
		if platform == "BlueField" {
			cfg = core.BlueFieldConfig(variant == "flex")
		}
		server = testbed.MachineSpec{
			Name: "server", Kind: testbed.FlexTOE, Cores: 1, CoreHz: hz,
			FlexCfg: &cfg, BufSize: buf, Seed: 70,
		}
	}
	// The client generates segments of the selected MSS toward the sink.
	clientCfg := core.AgilioCX40Config()
	clientCfg.MSS = mss
	tb := testbed.New(netsim.SwitchConfig{Seed: 71},
		server,
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, FlexCfg: &clientCfg, BufSize: buf, Seed: 72},
	)
	if variant == "tas-nocopy" {
		tb.M("server").Base.Profile().PerByte = 0
	}
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("server").Stack, 9000)
	snd := &apps.BulkSender{}
	snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
	tb.Run(d)
	return gbps(sink.Received, d)
}
