package fabric_test

import (
	"reflect"
	"testing"

	"flextoe/internal/apps"
	"flextoe/internal/fabric"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// fabricPair builds a two-rack fabric with one machine per rack.
func fabricPair(kind testbed.StackKind, spines int, seed uint64) *testbed.Testbed {
	return testbed.NewFabric(fabric.Config{
		Leaves: 2, Spines: spines,
		Seed: seed,
	},
		testbed.MachineSpec{Name: "a", Kind: kind, Cores: 2, Rack: 0, BufSize: 1 << 17, Seed: seed},
		testbed.MachineSpec{Name: "b", Kind: kind, Cores: 2, Rack: 1, BufSize: 1 << 17, Seed: seed + 1},
	)
}

// TestFabricCrossRackDelivery: a bulk stream between racks traverses
// host → leaf → spine → leaf → host and delivers bytes.
func TestFabricCrossRackDelivery(t *testing.T) {
	tb := fabricPair(testbed.FlexTOE, 2, 11)
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("a").Stack, 9000)
	snd := &apps.BulkSender{}
	snd.Start(tb.M("b").Stack, tb.Addr("a", 9000))
	tb.Run(4 * sim.Millisecond)

	if sink.Received == 0 {
		t.Fatal("no bytes delivered across the fabric")
	}
	spineBytes := tb.Fabric.SpineTxBytes()
	var total uint64
	for _, b := range spineBytes {
		total += b
	}
	if total == 0 {
		t.Fatal("no bytes traversed the spine tier")
	}
	// One connection direction = one flow = exactly one spine carries the
	// data (the ECMP contract); the reverse (ACK) direction hashes
	// independently and may share or use the other spine.
	for _, sw := range tb.Fabric.Spines {
		if sw.Flooded > 0 {
			t.Fatalf("spine %s flooded %d frames: MAC tables incomplete", sw.Name, sw.Flooded)
		}
	}
	for _, sw := range tb.Fabric.Leaves {
		if sw.Flooded > 0 {
			t.Fatalf("leaf %s flooded %d frames", sw.Name, sw.Flooded)
		}
		if sw.ECMPLoopDrops > 0 {
			t.Fatalf("leaf %s hit the ECMP loop guard %d times: routing error", sw.Name, sw.ECMPLoopDrops)
		}
	}
}

// TestFabricECMPSpreadsFlows: many connections from distinct ports hash
// across every spine.
func TestFabricECMPSpreadsFlows(t *testing.T) {
	tb := fabricPair(testbed.FlexTOE, 2, 23)
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("a").Stack, 9000)
	for i := 0; i < 16; i++ {
		snd := &apps.BulkSender{}
		snd.Start(tb.M("b").Stack, tb.Addr("a", 9000))
	}
	tb.Run(3 * sim.Millisecond)
	for s, b := range tb.Fabric.SpineTxBytes() {
		if b == 0 {
			t.Fatalf("spine %d carried no bytes across 16 flows: ECMP not spreading", s)
		}
	}
	if picks := tb.Fabric.Leaves[1].ECMPPicks; picks == 0 {
		t.Fatal("sender leaf resolved no forwards via ECMP")
	}
}

// TestFabricBaselineStackUnmodified: the Linux personality runs the same
// RPC workload over the fabric with zero stack changes.
func TestFabricBaselineStackUnmodified(t *testing.T) {
	tb := fabricPair(testbed.Linux, 2, 31)
	srv := &apps.RPCServer{ReqSize: 64}
	srv.Serve(tb.M("a").Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 4}
	cl.Start(tb.M("b").Stack, tb.Addr("a", 7777), 4)
	tb.Run(4 * sim.Millisecond)
	if cl.Completed == 0 {
		t.Fatal("Linux personality completed no RPCs over the fabric")
	}
}

// TestFabricQueueStats: ECN marks and the peak depth accumulate on the
// congested leaf egress port, and ResetQueueStats clears the peak.
func TestFabricQueueStats(t *testing.T) {
	fc := fabric.Config{
		Leaves: 2, Spines: 2,
		Leaf: netsim.SwitchConfig{ECNThresholdBytes: 20_000},
		Seed: 41,
	}
	tb := testbed.NewFabric(fc,
		testbed.MachineSpec{Name: "agg", Kind: testbed.FlexTOE, Cores: 2, Rack: 0, BufSize: 1 << 17, Seed: 41},
		testbed.MachineSpec{Name: "s1", Kind: testbed.FlexTOE, Cores: 2, Rack: 1, BufSize: 1 << 17, Seed: 42},
		testbed.MachineSpec{Name: "s2", Kind: testbed.FlexTOE, Cores: 2, Rack: 1, BufSize: 1 << 17, Seed: 43},
	)
	sink := &apps.BulkSink{}
	sink.Serve(tb.M("agg").Stack, 9000)
	for _, name := range []string{"s1", "s2"} {
		for i := 0; i < 4; i++ {
			snd := &apps.BulkSender{}
			snd.Start(tb.M(name).Stack, tb.Addr("agg", 9000))
		}
	}
	tb.Run(4 * sim.Millisecond)

	var port *netsim.Iface
	for _, h := range tb.Fabric.Hosts() {
		if h.Name == "agg" {
			port = h.LeafPort
		}
	}
	if port.PeakQueueBytes == 0 {
		t.Fatal("no queue ever built at the incast port")
	}
	leafMarks, _ := tb.Fabric.ECNMarks()
	if leafMarks == 0 {
		t.Fatal("2:1 fan-in above K produced no ECN marks")
	}
	if port.ECNMarks == 0 {
		t.Fatal("per-port ECN counter not maintained")
	}
	tb.Fabric.ResetQueueStats()
	if port.PeakQueueBytes != 0 {
		t.Fatal("ResetQueueStats left a peak marker")
	}
}

// TestSpineTxBytesAtEgress: a leaf books a frame on its uplink at forward
// time and credits the uplink's TxBytes at egress, so SpineTxBytes must
// commit each uplink before reading it. Read at 300 instants of a
// 16-flow cross-rack run, it equals the same run with a no-op TxTap on
// every switch port, where every frame crosses on an event and is counted
// when sent. Kills: SpineTxBytes reading TxBytes without Sync.
func TestSpineTxBytesAtEgress(t *testing.T) {
	run := func(tapped bool) [][]uint64 {
		tb := fabricPair(testbed.FlexTOE, 2, 23)
		if tapped {
			for _, sw := range append(append([]*netsim.Switch{}, tb.Fabric.Leaves...), tb.Fabric.Spines...) {
				for _, p := range sw.Ports() {
					p.TxTap = func(sim.Time, *packet.Packet) {}
				}
			}
		}
		sink := &apps.BulkSink{}
		sink.Serve(tb.M("a").Stack, 9000)
		for i := 0; i < 16; i++ {
			(&apps.BulkSender{}).Start(tb.M("b").Stack, tb.Addr("a", 9000))
		}
		var reads [][]uint64
		for i := 1; i <= 300; i++ {
			tb.Run(sim.Millisecond + sim.Time(i)*7309*sim.Nanosecond)
			reads = append(reads, tb.Fabric.SpineTxBytes())
		}
		return reads
	}
	got, want := run(false), run(true)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("read %d: SpineTxBytes %v, event path %v", i, got[i], want[i])
		}
	}
	if want[len(want)-1][0] == want[0][0] && want[len(want)-1][1] == want[0][1] {
		t.Fatal("no spine traffic between the reads")
	}
}
