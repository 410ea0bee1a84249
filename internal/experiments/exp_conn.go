package experiments

import (
	"fmt"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/core"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// Figure 9-style connection-scaling sweep (ROADMAP item 2): FlexTOE's
// Table 5 claim is that per-connection state is small enough to hold
// millions of flows on the NIC. This runner populates mostly-idle fleets
// up to 10^6 established connections and measures the three quantities
// that must stay flat for the claim to hold up:
//
//   - NIC bytes/connection (slab blocks + flow index + free ring),
//   - idle maintenance events/ms (the timer system's cost with nothing to
//     do — before this sweep existed, two 500 µs full-table scans made
//     this O(total connections)),
//   - goodput of a small active set riding on top of the idle fleet.
//
// Two companion tables exercise the regimes around the sweep: a
// Zipf-activity long-lived fleet (a hot subset carries the traffic) and a
// connection setup/teardown storm through ctrl.Plane (SYN flood against
// the listen backlog and accept-rate limiter, then dial/close churn
// proving state is reclaimed).

// installIdleFleet installs n established, idle connections directly on a
// FlexTOE machine's control plane (bypassing the handshake), peered with
// addresses outside the testbed so they never see traffic. One shared
// payload-buffer pair backs the whole fleet: per-connection buffers are a
// host sizing choice, not NIC state, and idle connections transfer
// nothing (see ctrl.Plane.InstallEstablished).
func installIdleFleet(m *testbed.Machine, n int) {
	tx := shm.NewPayloadBuf(4096)
	rx := shm.NewPayloadBuf(4096)
	for i := 0; i < n; i++ {
		flow := packet.Flow{
			SrcIP:   m.IP,
			DstIP:   packet.IP(172, byte(16+(i>>16)), byte(i>>8), byte(i)),
			SrcPort: 7000,
			DstPort: 443,
		}
		iss := uint32(i)*2654435761 + 1
		m.Ctrl.InstallEstablished(flow, packet.EtherAddr{}, iss, iss^0x55aa, tx, rx)
	}
}

// churnLoop drives dial-and-immediately-close waves against a listener
// that also closes on accept: every connection runs the full
// SYN/establish/FIN/linger/reclaim lifecycle. Returns the number of dials
// issued.
func churnLoop(tb *testbed.Testbed, client, server string, port uint16, waves, perWave int, gap sim.Time) int {
	cl := tb.M(client).Stack
	addr := tb.Addr(server, port)
	dials := 0
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			cl.Dial(addr, func(sock api.Socket) { sock.Close() })
			dials++
		}
		tb.Run(tb.Eng.Now() + gap)
	}
	return dials
}

// Fig9Conn regenerates the connection-scale evaluation: the idle-fleet
// sweep, the Zipf-activity fleet, and the setup/teardown storm.
func Fig9Conn(s Scale) []*Table {
	return []*Table{fig9Sweep(s), fig9Zipf(s), fig9Storm(s)}
}

// fig9Sweep is the headline sweep: N mostly-idle established connections,
// 64 active RPC connections on top.
func fig9Sweep(s Scale) *Table {
	t := &Table{
		ID:     "Figure 9-C (sweep)",
		Title:  "Connection scale: goodput, state, and timer cost vs idle fleet size",
		Header: []string{"Idle conns", "NIC B/conn", "Idle evs/ms", "Active MOps", "OOO cap"},
		Notes:  "idle maintenance events and active goodput must be independent of fleet size; B/conn within 2x the Table 5 budget (doc.go \"Connection state budget\")",
	}
	counts := s.pick([]int{1_000, 10_000, 100_000}, []int{1_000, 10_000, 100_000, 1_000_000})
	idleWin := 2 * sim.Millisecond
	d := s.dur(3*sim.Millisecond, 20*sim.Millisecond)
	for _, n := range counts {
		cfg := core.AgilioCX40Config()
		cfg.AdaptiveOOO = true
		tb := testbed.New(netsim.SwitchConfig{Seed: 90},
			testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, BufSize: 1 << 16, FlexCfg: &cfg, Seed: 90},
			testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, BufSize: 1 << 16, Seed: 91},
		)
		srv := tb.M("server")
		installIdleFleet(srv, n)

		// Idle window: nothing moves; only timer/controller maintenance
		// events run. Before the wheel-armed timers this grew O(n).
		p0 := tb.Eng.Processed()
		tb.Run(idleWin)
		idlePerMs := float64(tb.Eng.Processed()-p0) / (float64(idleWin) / float64(sim.Millisecond))

		// Active phase: a small hot set on top of the idle fleet.
		rpc := &apps.RPCServer{ReqSize: 64}
		rpc.Serve(srv.Stack, 7777)
		cl := &apps.ClosedLoopClient{ReqSize: 64}
		cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 64)
		tb.Run(idleWin + d)

		perConn := float64(srv.TOE.ConnStateBytes()) / float64(srv.TOE.NumConnections())
		t.AddRow(fmt.Sprintf("%d", n), f1(perConn), f1(idlePerMs),
			f2(mops(cl.Completed, d)), fmt.Sprintf("%d", srv.Ctrl.OOOCapNow()))
	}
	return t
}

// fig9Zipf is the long-lived-fleet workload: open-loop request/response
// (KV-style GET traffic) where the connection for each arrival is drawn
// Zipf(1.1), so a small hot set carries most of the load while the tail
// of the fleet stays nearly idle.
func fig9Zipf(s Scale) *Table {
	t := &Table{
		ID:     "Figure 9-C (zipf)",
		Title:  "Zipf-activity long-lived fleet (open-loop KV-style RPCs)",
		Header: []string{"Conns", "Offered Mops", "Achieved Mops", "p50 (us)", "p99 (us)", "Dropped"},
		Notes:  "Zipf(1.1) connection pick per arrival: the hot head stays cached while the cold tail costs only its state bytes",
	}
	conns := s.pick([]int{256}, []int{256, 1024})
	d := s.dur(6*sim.Millisecond, 40*sim.Millisecond)
	const rate = 2e6
	for _, n := range conns {
		tb := testbed.New(netsim.SwitchConfig{Seed: 93},
			testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, BufSize: 1 << 14, Seed: 93},
			testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, BufSize: 1 << 14, Seed: 94},
		)
		rpc := &apps.RPCServer{ReqSize: 32, RespSize: 64}
		rpc.Serve(tb.M("server").Stack, 11211)
		cl := &apps.OpenLoopClient{ReqSize: 32, RespSize: 64, Rate: rate, ZipfS: 1.1, Seed: 95}
		cl.Start(tb.M("client").Stack, tb.Addr("server", 11211), n)
		tb.Run(d)
		t.AddRow(fmt.Sprintf("%d", n), f2(rate/1e6), f2(mops(cl.Completed, d)),
			f1(usOf(cl.Latency.Percentile(50))), f1(usOf(cl.Latency.Percentile(99))),
			fmt.Sprintf("%d", cl.Dropped))
	}
	return t
}

// fig9Storm exercises the control plane's setup/teardown path: a SYN
// storm against a bounded listen backlog and accept-rate limiter, then
// dial/close churn that must reclaim every slot.
func fig9Storm(s Scale) *Table {
	t := &Table{
		ID:     "Figure 9-C (storm)",
		Title:  "Connection setup/teardown storm through ctrl.Plane",
		Header: []string{"Phase", "Dials", "Established", "SYN drops", "Backlog", "Rate-limited", "Live after", "NIC KB after"},
		Notes:  "drops are silent (no RST) as under a kernel SYN flood; churned slots are reclaimed after the post-close linger and reused FIFO",
	}

	// Phase 1: accept storm against backlog 16 and a 2M SYN/s rate limit.
	storm := s.pick([]int{256}, []int{2048})[0]
	{
		tb := testbed.New(netsim.SwitchConfig{Seed: 96},
			testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, BufSize: 4096,
				ListenBacklog: 16, AcceptRate: 2e6, Seed: 96},
			testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, BufSize: 4096, Seed: 97},
		)
		srv := tb.M("server")
		srv.Stack.Listen(8080, func(sock api.Socket) {})
		for i := 0; i < storm; i++ {
			tb.M("client").Stack.Dial(tb.Addr("server", 8080), func(api.Socket) {})
		}
		tb.Run(5 * sim.Millisecond)
		t.AddRow("SYN storm", fmt.Sprintf("%d", storm),
			fmt.Sprintf("%d", srv.Ctrl.Established), fmt.Sprintf("%d", srv.Ctrl.SYNDrops),
			fmt.Sprintf("%d", srv.Ctrl.BacklogOverflows), fmt.Sprintf("%d", srv.Ctrl.AcceptRateDrops),
			fmt.Sprintf("%d", srv.Ctrl.NumTracked()), f1(float64(srv.TOE.ConnStateBytes())/1024))
	}

	// Phase 2: churn — every connection dials, closes, lingers, and is
	// reclaimed; the table must end near-empty with its slab intact.
	{
		tb := testbed.New(netsim.SwitchConfig{Seed: 98},
			testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, BufSize: 4096, Seed: 98},
			testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, BufSize: 4096, Seed: 99},
		)
		srv := tb.M("server")
		srv.Stack.Listen(8081, func(sock api.Socket) { sock.Close() })
		waves, perWave := s.pick([]int{20}, []int{100})[0], 16
		dials := churnLoop(tb, "client", "server", 8081, waves, perWave, sim.Millisecond)
		tb.Run(tb.Eng.Now() + 30*sim.Millisecond) // drain lingers
		t.AddRow("Churn", fmt.Sprintf("%d", dials),
			fmt.Sprintf("%d", srv.Ctrl.Established), fmt.Sprintf("%d", srv.Ctrl.SYNDrops),
			fmt.Sprintf("%d", srv.Ctrl.BacklogOverflows), fmt.Sprintf("%d", srv.Ctrl.AcceptRateDrops),
			fmt.Sprintf("%d", srv.Ctrl.NumTracked()), f1(float64(srv.TOE.ConnStateBytes())/1024))
	}
	return t
}
