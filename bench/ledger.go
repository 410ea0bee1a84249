package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"flextoe/internal/scenario"
)

// exactCounts adds the per-layer figures that are counts of the measured
// window: for one seed they repeat bit for bit, so a speed-only change
// must leave every one of them (and the model.* readouts) unchanged.
func (o *outcome) exactCounts(spec *scenario.Spec, win *window) {
	a, z := &win.first, &win.last
	d := func(from, to uint64) float64 { return float64(to - from) }
	segs := win.segs()
	toeRx := d(a.toeRx, z.toeRx)
	res := win.res

	o.add("sim.events_per_seg", "count", d(a.events, z.events)/segs, 0)
	o.add("sim.pending_max", "count", float64(win.pendingMax), len(win.chunks)+1)

	o.add("core.acks_per_rx_seg", "count", ratio(d(a.acksSent, z.acksSent), toeRx), 0)
	o.add("core.hc_ops_per_seg", "count", ratio(d(a.hcOps, z.hcOps), toeRx), 0)
	o.add("core.notifies_per_seg", "count", ratio(d(a.notifies, z.notifies), toeRx), 0)
	o.add("core.conn_state_bytes_per_conn", "B", ratio(float64(z.toeStateBytes), float64(z.toeConns)), 0)

	o.add("tcpseg.retx_seg_share", "share", ratio(d(a.toeRetx, z.toeRetx), d(a.toeTx, z.toeTx)), 0)
	o.add("tcpseg.ooo_accept_share", "share", ratio(d(a.oooAccepted, z.oooAccepted), toeRx), 0)
	o.add("tcpseg.ooo_drop_share", "share", ratio(d(a.oooDropped, z.oooDropped), toeRx), 0)
	o.add("tcpseg.sack_retx_share", "share", ratio(d(a.sackRetx, z.sackRetx), d(a.fastRetx, z.fastRetx)), 0)

	o.add("ctrl.established", "count", float64(z.toeConns), 0)

	offered := d(a.forwarded, z.forwarded) + d(a.queueDrops, z.queueDrops) + d(a.otherDrops, z.otherDrops)
	o.add("netsim.forwarded_per_seg", "count", d(a.forwarded, z.forwarded)/segs, 0)
	o.add("netsim.queue_drop_share", "share", ratio(d(a.queueDrops, z.queueDrops), offered), 0)
	o.add("netsim.ecn_mark_share", "share", ratio(d(a.ecnMarks, z.ecnMarks), d(a.forwarded, z.forwarded)), 0)

	var peakLeaf, imbalance float64
	if f := res.Fabric; f != nil {
		peakLeaf = float64(f.PeakLeafQueueBytes)
		var sum, most float64
		for _, b := range f.SpineTxBytes {
			sum += float64(b)
			most = max(most, float64(b))
		}
		imbalance = ratio(most*float64(len(f.SpineTxBytes)), sum) - 1
	}
	o.add("fabric.peak_leaf_queue_bytes", "B", peakLeaf, 0)
	o.add("fabric.spine_imbalance", "share", max(0, imbalance), 0)

	o.add("packet.pool_gets_per_seg", "count", d(a.poolGets, z.poolGets)/segs, 0)
	o.add("packet.pool_outstanding", "count", float64(z.poolGets-z.poolReleases), 0)

	// The analyzers observe from attach, so both sides are whole-run.
	var tapPkts float64
	for _, f := range res.Flowmon {
		tapPkts += float64(f.Pkts)
	}
	o.add("flowmon.pkts_per_seg", "count", tapPkts/float64(z.segs), 0)

	o.add("baseline.retx_seg_share", "share", ratio(d(a.baseRetx, z.baseRetx), d(a.baseTx, z.baseTx)), 0)
	o.add("host.core_util_mean", "share", ratio(z.hostBusy-a.hostBusy, z.hostCoreTime-a.hostCoreTime), 0)
	o.add("scenario.result_bytes", "B", float64(len(win.payload)), 0)

	// Modelled readouts: what the simulated stacks delivered.
	var goodput, p50, p99 float64
	for _, w := range res.Workloads {
		goodput += w.GoodputGbps
		if p50 == 0 {
			p50, p99 = w.P50Us, w.P99Us
		}
	}
	for _, f := range res.Flowmon {
		if p50 == 0 && f.RTTSamples > 0 { // bulk reports no latency of its own: the tap's RTT
			p50, p99 = float64(f.RTTP50Us), float64(f.RTTP99Us)
		}
	}
	var ops uint64
	for _, n := range completedOps(spec, res) {
		ops += n
	}
	o.add("model.goodput_gbps", "Gb/s", goodput, 0)
	o.add("model.ops_per_sim_s", "1/s", float64(ops)/(float64(spec.DurationUs)/1e6), 0)
	o.add("model.p50_us", "us", p50, 0)
	o.add("model.p99_us", "us", p99, 0)
	o.add("model.host_cycles_per_kb", "count", ratio(z.hostBusyCycles-a.hostBusyCycles, d(a.nicRxBytes, z.nicRxBytes)/1024), 0)

	m0, m1 := &win.mem0, &win.mem1
	o.add("go.alloc_bytes_per_seg", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/segs, 0)
	o.add("go.mallocs_per_kseg", "count", 1000*float64(m1.Mallocs-m0.Mallocs)/segs, 0)
	o.add("go.gc_cycles", "count", float64(m1.NumGC-m0.NumGC), 0)
	o.add("go.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, 0)
	o.add("go.heap_live_mb", "MB", float64(m1.HeapAlloc)/(1<<20), 0)
}

// refKernel is a fixed pointer chase through 16 MB: work that no change
// to the repository can speed up or slow down, timed beside the window so
// a slow box can be told from a slow program.
type refKernel struct{ next []uint32 }

func newRefKernel() *refKernel {
	const n = 16 << 20 / 4
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every slot, fixed seed.
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &refKernel{next: next}
}

// time chases 2^18 links and returns the milliseconds it took.
func (k *refKernel) time() (float64, error) {
	start := time.Now()
	at := uint32(0)
	for i := 0; i < 1<<18; i++ {
		at = k.next[at]
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if at == 0 {
		// 2^18 steps of a 2^22-cycle cannot return to the start.
		return 0, fmt.Errorf("bench: reference kernel walked a short cycle")
	}
	return ms, nil
}

// traceRun is the second half of a --trace 1 invocation: the same spec
// set up and executed again with spans recorded and the CPU profiler
// sampling, then the layer drivers. untraced is the first execution.
func (o *outcome) traceRun(dir string, spec *scenario.Spec, specBytes []byte, work float64, untraced *window) error {
	o.exactCounts(spec, untraced)

	ref := newRefKernel()
	refBefore, err := ref.time()
	if err != nil {
		return err
	}
	runtime.GC()
	tr := newTracer(o.workload)
	root := tr.begin("run", -1)
	s, err := setUp(specBytes, tr, root)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("bench: cpu profile: %w", err)
	}
	traced, err := execute(s.built, tr, root)
	pprof.StopCPUProfile()
	tr.end(root)
	if err != nil {
		return err
	}
	refAfter, err := ref.time()
	if err != nil {
		return err
	}
	if !bytes.Equal(untraced.payload, traced.payload) {
		o.fail("traced execution's payload (sha256 %s) differs from the untraced one", sha(traced.payload))
	}

	o.add("scenario.parse_ms", "ms", tr.total("scenario.Parse"), 0)
	o.add("scenario.build_ms", "ms", tr.total("scenario.Build"), 0)
	o.add("scenario.warmup_ms", "ms", tr.total("warmup"), 0)
	o.add("scenario.window_ms", "ms", tr.total("window"), 0)
	o.add("scenario.readout_ms", "ms", tr.total("Execute.readout")+tr.total("Built.FlowRecords")+tr.total("Result.Canonical"), 0)
	perEvent := traced.nsPerEvent()
	e25, e50, e75 := quartiles(perEvent)
	o.add("sim.host_ns_per_event_p25", "ns", e25, len(perEvent))
	o.add("sim.host_ns_per_event_p50", "ns", e50, len(perEvent))
	o.add("sim.host_ns_per_event_p75", "ns", e75, len(perEvent))

	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, l := range cpuShareLayers() {
		name := l + ".cpu_share"
		if l == "go.runtime" || l == "go.gc" {
			name = l + "_cpu_share"
		}
		o.add(name, "share", shares[l], int(samples))
	}

	// Interference only adds time, so the floors of the two executions
	// compare the program with and without tracing; the whole-window means
	// would mostly compare the box with itself.
	perSeg := untraced.nsPerSeg()
	u25, _, u75 := quartiles(perSeg)
	o.add("bench.trace_overhead_share", "share", traced.floorNsPerSeg()/untraced.floorNsPerSeg()-1, len(perSeg))
	o.add("bench.chunk_spread", "ratio", u75/u25, len(perSeg))
	o.add("bench.ref_kernel_ms", "ms", (refBefore+refAfter)/2, 2)

	o.spans = &traceFile{
		Workload: o.workload, Seed: o.seed,
		Spans: tr.spans, CPUSamples: samples, CPUShares: shares,
	}

	if err := o.layerDrivers(work); err != nil {
		return err
	}
	if err := o.shardSpeedup(dir, work); err != nil {
		return err
	}
	return o.serverDriver(work)
}
