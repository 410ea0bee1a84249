package testbed

import (
	"fmt"
	"testing"

	"flextoe/internal/apps"
	"flextoe/internal/baseline"
	"flextoe/internal/ctrl"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

func runEcho(t *testing.T, kind StackKind, conns, pipeline int, msgSize int, dur sim.Time) *apps.ClosedLoopClient {
	t.Helper()
	tb := New(netsim.SwitchConfig{},
		MachineSpec{Name: "server", Kind: kind, Cores: 4, Seed: 1},
		MachineSpec{Name: "client", Kind: kind, Cores: 8, Seed: 2},
	)
	srv := &apps.RPCServer{ReqSize: msgSize}
	srv.Serve(tb.M("server").Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: msgSize, Pipeline: pipeline}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), conns)
	tb.Run(dur)
	return cl
}

func TestEchoAllStacks(t *testing.T) {
	for _, kind := range AllStacks {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cl := runEcho(t, kind, 4, 1, 64, 20*sim.Millisecond)
			if cl.Completed < 50 {
				t.Fatalf("%s completed only %d RPCs", kind, cl.Completed)
			}
			if cl.Latency.Count() == 0 {
				t.Fatal("no latency samples")
			}
			med := sim.Time(cl.Latency.Percentile(50))
			if med <= 0 || med > 5*sim.Millisecond {
				t.Fatalf("median RTT %v implausible", med)
			}
		})
	}
}

func TestStackLatencyOrdering(t *testing.T) {
	// Table 1 / Fig. 11: Linux must be the slowest per-RPC stack by a
	// clear margin; kernel-bypass and offload stacks cluster much lower.
	med := map[StackKind]sim.Time{}
	for _, kind := range AllStacks {
		cl := runEcho(t, kind, 1, 1, 64, 20*sim.Millisecond)
		if cl.Latency.Count() == 0 {
			t.Fatalf("%s: no samples", kind)
		}
		med[kind] = sim.Time(cl.Latency.Percentile(50))
	}
	t.Logf("median RTTs: %v", med)
	if med[Linux] < 2*med[TAS] {
		t.Errorf("Linux median (%v) should be >2x TAS (%v)", med[Linux], med[TAS])
	}
	if med[Linux] < 2*med[FlexTOE] {
		t.Errorf("Linux median (%v) should be >2x FlexTOE (%v)", med[Linux], med[FlexTOE])
	}
}

func TestCrossStackInterop(t *testing.T) {
	// §5.1: FlexTOE interoperates with other network stacks. Run every
	// client-stack / server-stack combination (Fig. 9's matrix).
	for _, server := range AllStacks {
		for _, client := range AllStacks {
			server, client := server, client
			t.Run(fmt.Sprintf("%s->%s", client, server), func(t *testing.T) {
				tb := New(netsim.SwitchConfig{},
					MachineSpec{Name: "server", Kind: server, Cores: 2, Seed: 3},
					MachineSpec{Name: "client", Kind: client, Cores: 2, Seed: 4},
				)
				srv := &apps.RPCServer{ReqSize: 64}
				srv.Serve(tb.M("server").Stack, 7777)
				cl := &apps.ClosedLoopClient{ReqSize: 64}
				cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 2)
				tb.Run(20 * sim.Millisecond)
				if cl.Completed < 20 {
					t.Fatalf("%s client to %s server: %d RPCs", client, server, cl.Completed)
				}
			})
		}
	}
}

func TestBulkTransferAllStacks(t *testing.T) {
	for _, kind := range AllStacks {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			tb := New(netsim.SwitchConfig{},
				MachineSpec{Name: "server", Kind: kind, Cores: 2, BufSize: 1 << 20, Seed: 5},
				MachineSpec{Name: "client", Kind: kind, Cores: 2, BufSize: 1 << 20, Seed: 6},
			)
			sink := &apps.BulkSink{}
			sink.Serve(tb.M("server").Stack, 9000)
			snd := &apps.BulkSender{}
			snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
			tb.Run(10 * sim.Millisecond)
			// At least a few MB in 10 ms on any stack.
			if sink.Received < 1<<20 {
				t.Fatalf("%s bulk: %d bytes in 10ms", kind, sink.Received)
			}
		})
	}
}

func TestBulkUnderLossAllStacks(t *testing.T) {
	// Fig. 15 mechanism check: all stacks must complete transfers under
	// 0.5% loss; relative goodput is measured by the experiment runner.
	for _, kind := range AllStacks {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			tb := New(netsim.SwitchConfig{LossProb: 0.005, Seed: 11},
				MachineSpec{Name: "server", Kind: kind, Cores: 2, BufSize: 1 << 18, Seed: 7},
				MachineSpec{Name: "client", Kind: kind, Cores: 2, BufSize: 1 << 18, Seed: 8},
			)
			sink := &apps.BulkSink{}
			sink.Serve(tb.M("server").Stack, 9000)
			snd := &apps.BulkSender{}
			snd.Start(tb.M("client").Stack, tb.Addr("server", 9000))
			tb.Run(50 * sim.Millisecond)
			if sink.Received < 100_000 {
				t.Fatalf("%s under loss: %d bytes in 50ms", kind, sink.Received)
			}
		})
	}
}

func TestKVWorkload(t *testing.T) {
	tb := New(netsim.SwitchConfig{},
		MachineSpec{Name: "server", Kind: FlexTOE, Cores: 2, Seed: 9},
		MachineSpec{Name: "client", Kind: FlexTOE, Cores: 4, Seed: 10},
	)
	kv := &apps.KVServer{AppCycles: 890, ValueLen: 32}
	kv.Serve(tb.M("server").Stack, 11211)
	cl := &apps.KVClient{KeyLen: 32, ValLen: 32, SetRatio: 0.1, Seed: 12}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 11211), 8)
	tb.Run(20 * sim.Millisecond)
	if cl.Completed < 100 {
		t.Fatalf("KV completed %d ops", cl.Completed)
	}
	// Responses can be in flight at cutoff: served >= completed, bounded
	// by outstanding pipeline depth.
	if kv.Served < cl.Completed || kv.Served > cl.Completed+8 {
		t.Fatalf("server served %d, client completed %d", kv.Served, cl.Completed)
	}
}

func TestOpenLoopClient(t *testing.T) {
	tb := New(netsim.SwitchConfig{},
		MachineSpec{Name: "server", Kind: FlexTOE, Cores: 2, Seed: 13},
		MachineSpec{Name: "client", Kind: FlexTOE, Cores: 4, Seed: 14},
	)
	srv := &apps.RPCServer{ReqSize: 128}
	srv.Serve(tb.M("server").Stack, 7777)
	ol := &apps.OpenLoopClient{ReqSize: 128, Rate: 50_000, Seed: 15}
	ol.Start(tb.M("client").Stack, tb.Addr("server", 7777), 4)
	tb.Run(20 * sim.Millisecond)
	// ~1000 requests at 50k/s over 20ms.
	if ol.Completed < 500 || ol.Completed > 1500 {
		t.Fatalf("open-loop completed %d, want ~1000", ol.Completed)
	}
}

func TestFlexTOEFasterThanLinuxThroughput(t *testing.T) {
	// The headline direction: with memcached-like per-request application
	// work, saturated RPC throughput must order FlexTOE > TAS >
	// Chelsio/Linux (Fig. 8's shape).
	tput := map[StackKind]uint64{}
	for _, kind := range AllStacks {
		tb := New(netsim.SwitchConfig{},
			MachineSpec{Name: "server", Kind: kind, Cores: 2, Seed: 1},
			MachineSpec{Name: "client", Kind: kind, Cores: 8, Seed: 2},
		)
		srv := &apps.RPCServer{ReqSize: 64, AppCycles: 890}
		srv.Serve(tb.M("server").Stack, 7777)
		cl := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 4}
		cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 16)
		tb.Run(30 * sim.Millisecond)
		tput[kind] = cl.Completed
	}
	t.Logf("completed RPCs in 30ms: %v", tput)
	if tput[FlexTOE] <= tput[Linux] {
		t.Errorf("FlexTOE (%d) should beat Linux (%d)", tput[FlexTOE], tput[Linux])
	}
	if tput[TAS] <= tput[Linux] {
		t.Errorf("TAS (%d) should beat Linux (%d)", tput[TAS], tput[Linux])
	}
	if tput[FlexTOE] <= tput[Chelsio] {
		t.Errorf("FlexTOE (%d) should beat Chelsio (%d)", tput[FlexTOE], tput[Chelsio])
	}
}

// TestRecoverySpecFields pins the one translation every recovery choice
// goes through: MachineSpec.SACK and OOOCap into a FlexTOE machine's
// core.Config, read back off an established connection's protocol state
// on both ends, and OOOCap into a baseline personality's profile.
func TestRecoverySpecFields(t *testing.T) {
	for _, c := range []struct {
		name     string
		sack     bool
		oooCap   int
		wantCap  uint8
		wantSACK bool
	}{
		{"default", false, 0, 1, false},
		{"sack", true, 0, tcpseg.MaxOOOIntervals, true},
		{"ooo-cap", false, 3, 3, false},
		{"sack+ooo-cap", true, 2, 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := New(netsim.SwitchConfig{},
				MachineSpec{Name: "server", Kind: FlexTOE, SACK: c.sack, OOOCap: c.oooCap, Seed: 1},
				MachineSpec{Name: "client", Kind: FlexTOE, SACK: c.sack, OOOCap: c.oooCap, Seed: 2},
			)
			srv, cl := tb.M("server"), tb.M("client")
			var ends [2]*ctrl.Conn
			srv.Ctrl.Listen(80, func(conn *ctrl.Conn) { ends[0] = conn })
			tb.Eng.AfterCall(0, func(any) {
				cl.Ctrl.Dial(srv.IP, srv.MAC, 80, func(conn *ctrl.Conn) { ends[1] = conn })
			}, nil)
			tb.Run(sim.Millisecond)
			for i, end := range ends {
				if end == nil {
					t.Fatalf("end %d: handshake incomplete", i)
				}
				if got := end.Core.Proto.OOOCap; got != c.wantCap {
					t.Errorf("end %d: OOOCap %d, want %d", i, got, c.wantCap)
				}
				if got := end.Core.Proto.SACKEnabled(); got != c.wantSACK {
					t.Errorf("end %d: SACK negotiated %v, want %v", i, got, c.wantSACK)
				}
			}
		})
	}
	t.Run("baseline-ooo-cap", func(t *testing.T) {
		tb := New(netsim.SwitchConfig{},
			MachineSpec{Name: "linux", Kind: Linux, OOOCap: 7, Seed: 1},
			MachineSpec{Name: "tas", Kind: TAS, Seed: 2},
		)
		if got := tb.M("linux").Base.Profile().OOOIntervals; got != 7 {
			t.Errorf("Linux OOOIntervals %d, want 7", got)
		}
		if got, want := tb.M("tas").Base.Profile().OOOIntervals, baseline.TASProfile().OOOIntervals; got != want {
			t.Errorf("TAS OOOIntervals %d, want the profile's %d", got, want)
		}
	})
}
