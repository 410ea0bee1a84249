package core

import (
	"testing"

	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// benchPair wires two TOEs through a switch with one connection and
// applications that keep the sender's TX buffer full and drain the
// receiver immediately — a steady-state unidirectional bulk transfer
// whose per-segment cost is the data path itself, not the app.
type benchPair struct {
	eng   *sim.Engine
	toeA  *TOE
	toeB  *TOE
	connA *Conn // the sender's connection
}

func newBenchPair(cfg Config, bufSize uint32) *benchPair {
	eng := sim.New()
	n := netsim.NewNetwork(eng, netsim.SwitchConfig{})
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	rate := netsim.GbpsToBytesPerSec(40)
	ifA := n.AttachHost("a", macA, rate, 100*sim.Nanosecond)
	ifB := n.AttachHost("b", macB, rate, 100*sim.Nanosecond)
	toeA := New(eng, cfg, ifA)
	toeB := New(eng, cfg, ifB)

	flowA := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: 1000, DstPort: 2000}
	var connA, connB *Conn
	// Sender: every TxFree notification is immediately re-filled, so the
	// TX buffer never drains.
	connA = toeA.AddConnection(flowA, macB, 0, 0,
		shm.NewPayloadBuf(bufSize), shm.NewPayloadBuf(bufSize), 0xA,
		func(d shm.Desc) {
			if d.Kind == shm.DescTxFree {
				toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: connA.ID, Bytes: d.Bytes})
			}
		})
	// Receiver: every RxNotify is consumed on the spot, so the window
	// never closes.
	connB = toeB.AddConnection(flowA.Reverse(), macA, 0, 0,
		shm.NewPayloadBuf(bufSize), shm.NewPayloadBuf(bufSize), 0xB,
		func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				toeB.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: connB.ID, Bytes: d.Bytes})
			}
		})
	_ = connB
	// Prime the transfer.
	toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: connA.ID, Bytes: bufSize})
	return &benchPair{eng: eng, toeA: toeA, toeB: toeB, connA: connA}
}

// runSegments steps the engine until the receiver has consumed n more
// data segments.
func (p *benchPair) runSegments(n uint64) {
	target := p.toeB.RxSegs + n
	for p.toeB.RxSegs < target {
		if !p.eng.Step() {
			panic("core: benchmark transfer stalled")
		}
	}
}

// BenchmarkPipelineSegment measures the full simulated data path per
// transmitted segment — sender pipeline, wire, receiver pipeline, ACK
// return, host notifications — in steady state. The headline metrics are
// ns/op (wall-clock per simulated segment) and allocs/op (the
// zero-allocation contract; see TestPipelineSteadyStateAllocBudget for
// the CI gate).
func BenchmarkPipelineSegment(b *testing.B) {
	p := newBenchPair(AgilioCX40Config(), 1<<16)
	p.runSegments(2000) // warm pools, caches, wheel buckets
	b.ReportAllocs()
	b.ResetTimer()
	p.runSegments(uint64(b.N))
}

// TestPipelineSteadyStateAllocBudget is the benchmark-smoke gate: a
// steady-state simulated data segment must cost at most 0.01 heap
// allocations end to end, through the pipeline and through the
// run-to-completion ablation (pooled events, segItems, packets, frames
// and payload views make the nominal path allocation-free; both measure
// 0.000). One closure built per segment — a func literal handed to a
// *Call scheduler or submitter, or stored as an FPC's Idle hook — costs
// at least 1 and fails here: the ablation's busy pump built its Idle
// closure on every segment, 2.0 allocations per segment, until it was
// bound once. Runs under plain `go test`, so CI needs no benchmark
// plumbing to enforce it.
func TestPipelineSteadyStateAllocBudget(t *testing.T) {
	mono := AgilioCX40Config()
	mono.RunToCompletion = true
	for _, row := range []struct {
		name string
		cfg  Config
	}{{"pipeline", AgilioCX40Config()}, {"run-to-completion", mono}} {
		t.Run(row.name, func(t *testing.T) {
			p := newBenchPair(row.cfg, 1<<16)
			p.runSegments(2000)
			const segs = 500
			allocs := testing.AllocsPerRun(3, func() {
				p.runSegments(segs)
			})
			perSeg := allocs / segs
			t.Logf("steady-state allocs per simulated segment: %.3f", perSeg)
			if perSeg > 0.01 {
				t.Fatalf("allocs per segment = %.3f, budget is 0.01", perSeg)
			}
		})
	}
}

// TestMonoDeferralAllocFree: in run-to-completion mode a paced flow parks
// the TX pump on the carousel's next deadline after every segment. That
// re-arm must not allocate — pipeline and run-to-completion share the one
// package-level toeKickTX callback with the TOE as its argument.
func TestMonoDeferralAllocFree(t *testing.T) {
	cfg := AgilioCX40Config()
	cfg.RunToCompletion = true
	p := newBenchPair(cfg, 1<<16)
	p.toeA.SetRateInterval(p.connA.ID, 2*sim.Nanosecond) // 4 Gbps: every segment defers
	p.runSegments(200)
	parked := func() bool {
		dl, ok := p.toeA.schedDeadline()
		return ok && dl > p.eng.Now() && p.toeA.mono.FreeThreads() > 0
	}
	for !parked() {
		if !p.eng.Step() {
			t.Fatal("paced transfer stalled before the pump parked")
		}
	}
	pending := p.eng.Pending()
	allocs := testing.AllocsPerRun(100, p.toeA.txPump)
	if got := p.eng.Pending() - pending; got != 101 {
		t.Fatalf("pump deferred %d times in 101 calls; the scenario does not exercise the deferral", got)
	}
	if allocs != 0 {
		t.Fatalf("run-to-completion pump deferral allocates %.0f/op, want 0", allocs)
	}
}
