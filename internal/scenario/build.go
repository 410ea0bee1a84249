package scenario

import (
	"errors"
	"fmt"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/ctrl"
	"flextoe/internal/fabric"
	"flextoe/internal/flowmon"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/testbed"
)

// ErrCanceled is returned by Execute when the progress callback asks to
// stop; the partially-run simulation is discarded.
var ErrCanceled = errors.New("scenario: canceled")

// Progress observes a running execution: doneUs is simulated measured
// time elapsed (warmup excluded), totalUs the measured window. Return
// false to cancel. Called between run chunks only — never from inside
// the event loop — so it may block without perturbing the simulation.
type Progress func(doneUs, totalUs int64) bool

// seedMix is the odd multiplier used to derive per-machine and
// per-workload seeds from the spec seed when none is given explicitly
// (splitmix64's golden-ratio increment).
const seedMix = 0x9e3779b97f4a7c15

// tapRef is one attached analyzer labeled with its machine.
type tapRef struct {
	machine string
	mon     *flowmon.Analyzer
}

// Built is a compiled scenario: the testbed, workload runtimes, and
// analyzers, ready to Execute exactly once. All state is owned by the
// Built value — nothing is shared across scenarios, so any number may
// run concurrently in one process (the service's worker-pool isolation
// guarantee).
type Built struct {
	Spec *Spec
	TB   *testbed.Testbed

	warm, dur sim.Time

	wls       []wlRuntime
	taps      []tapRef   // Measure.Flowmon attach points, spec order
	fleetTaps [][]tapRef // per rack, host attachment order
	spines    int

	machBase []machCounters
	swBase   switchCounters
	fabBase  fabricCounters

	reports []*flowmon.Report // taps' readouts, filled by Execute
	done    bool
}

// wlRuntime is one started workload's measurement lifecycle: reset
// marks the warmup boundary, result reads the measured window.
type wlRuntime interface {
	reset()
	result(d sim.Time) WorkloadResult
}

// Build validates the spec and compiles it: topology, machines (in spec
// order — order fixes IP assignment), flowmon
// attach points, then workloads in spec order (each listener installed
// before its dialers). The construction sequence is exactly the one the
// hand-written experiment runners use, which is what makes a spec
// equivalent to its figure.
func Build(s *Spec) (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &Built{
		Spec: s,
		warm: sim.Time(s.WarmupUs) * sim.Microsecond,
		dur:  sim.Time(s.DurationUs) * sim.Microsecond,
	}
	specs := make([]testbed.MachineSpec, len(s.Machines))
	for i := range s.Machines {
		specs[i] = machineSpec(s, i)
	}
	if s.Topology.Kind == TopoFabric {
		b.spines = s.Topology.Fabric.Spines
		b.TB = testbed.NewFabric(fabricConfig(s), specs...)
	} else {
		b.TB = testbed.New(switchConfig(s.Topology.Switch, s.Seed), specs...)
	}

	for i := range s.Measure.Flowmon {
		fa := &s.Measure.Flowmon[i]
		mon := flowmon.New(flowmonConfig(fa))
		flowmon.Attach(mon, b.TB.M(fa.Machine).Iface)
		b.taps = append(b.taps, tapRef{machine: fa.Machine, mon: mon})
	}
	if s.Measure.PerRackFleets {
		b.fleetTaps = make([][]tapRef, s.Topology.Fabric.Racks)
		for _, h := range b.TB.Fabric.Hosts() {
			mon := flowmon.New(flowmon.Config{})
			flowmon.Attach(mon, h.Iface)
			b.fleetTaps[h.Rack] = append(b.fleetTaps[h.Rack], tapRef{machine: h.Name, mon: mon})
		}
	}

	for i := range s.Workloads {
		b.wls = append(b.wls, b.startWorkload(&s.Workloads[i], i))
	}
	return b, nil
}

// Run parses, builds, and executes a spec in one call.
func Run(data []byte, progress Progress) (*Result, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	b, err := Build(s)
	if err != nil {
		return nil, err
	}
	return b.Execute(progress)
}

// Execute runs warmup then the measured window and returns the Result.
// With a progress callback the measured window runs in fixed chunks
// (the callback fires between chunks and may cancel); the chunk
// schedule is the same for every execution of a given spec, so streamed
// runs stay byte-identical to each other. Execute may be called once. An
// engine that does not balance at readout (sim.Engine.Balance) fails the
// run as "invariant sim: …", and no Result is built.
func (b *Built) Execute(progress Progress) (*Result, error) {
	if b.done {
		return nil, errors.New("scenario: Built already executed")
	}
	b.done = true
	if progress != nil && !progress(0, b.Spec.DurationUs) {
		return nil, ErrCanceled
	}
	if b.warm > 0 {
		b.TB.Run(b.warm)
	}
	b.resetAtWarmBoundary()
	end := b.warm + b.dur
	if progress == nil {
		b.TB.Run(end)
	} else {
		const chunks = 32
		for c := 1; c <= chunks; c++ {
			t := b.warm + b.dur*sim.Time(c)/chunks
			if c == chunks {
				t = end
			}
			b.TB.Run(t)
			if !progress(int64((t-b.warm)/sim.Microsecond), b.Spec.DurationUs) {
				return nil, ErrCanceled
			}
		}
	}
	if err := b.TB.Eng.Balance(); err != nil {
		return nil, fmt.Errorf("invariant %w", err)
	}
	return b.readout(), nil
}

// Reports returns the Measure.Flowmon analyzers' raw readouts (spec
// order), available after Execute — the full per-flow detail behind the
// Result's FlowmonResult rows.
func (b *Built) Reports() []*flowmon.Report { return b.reports }

// ---------------------------------------------------------------------
// Spec → constructor translation.
// ---------------------------------------------------------------------

func machineSpec(s *Spec, i int) testbed.MachineSpec {
	m := &s.Machines[i]
	seed := m.Seed
	if seed == 0 {
		seed = s.Seed ^ uint64(i+1)*seedMix
	}
	var kind testbed.StackKind
	switch m.Stack {
	case StackFlexTOE:
		kind = testbed.FlexTOE
	case StackLinux:
		kind = testbed.Linux
	case StackTAS:
		kind = testbed.TAS
	case StackChelsio:
		kind = testbed.Chelsio
	}
	var cc ctrl.CCAlgo
	switch m.CC {
	case "dctcp":
		cc = ctrl.CCDCTCP
	case "timely":
		cc = ctrl.CCTimely
	}
	return testbed.MachineSpec{
		Name:          m.Name,
		Kind:          kind,
		Cores:         m.Cores,
		BufSize:       m.BufBytes,
		NICGbps:       m.NICGbps,
		CC:            cc,
		SACK:          m.SACK,
		OOOCap:        m.OOOCap,
		StackCores:    m.StackCores,
		Rack:          m.Rack,
		ListenBacklog: m.ListenBacklog,
		AcceptRate:    m.AcceptRate,
		Seed:          seed,
	}
}

func switchConfig(sw *SwitchSpec, seed uint64) netsim.SwitchConfig {
	if sw == nil {
		return netsim.SwitchConfig{Seed: seed}
	}
	return netsim.SwitchConfig{
		LossProb:          sw.LossProb,
		ECNThresholdBytes: sw.ECNThresholdBytes,
		QueueCapBytes:     sw.QueueCapBytes,
		WREDMinBytes:      sw.WREDMinBytes,
		WREDMaxBytes:      sw.WREDMaxBytes,
		WREDMaxProb:       sw.WREDMaxProb,
		DupProb:           sw.DupProb,
		ReorderProb:       sw.ReorderProb,
		ReorderDelay:      sim.Time(sw.ReorderDelayUs) * sim.Microsecond,
		Latency:           sim.Time(sw.LatencyNs) * sim.Nanosecond,
		Seed:              seed,
	}
}

func fabricConfig(s *Spec) fabric.Config {
	f := s.Topology.Fabric
	fc := fabric.Config{
		Leaves:        f.Racks,
		Spines:        f.Spines,
		LeafHostGbps:  f.LeafHostGbps,
		LeafSpineGbps: f.LeafSpineGbps,
		HostProp:      sim.Time(f.HostPropNs) * sim.Nanosecond,
		TrunkProp:     sim.Time(f.TrunkPropNs) * sim.Nanosecond,
		Seed:          s.Seed,
	}
	if f.Leaf != nil {
		fc.Leaf = switchConfig(f.Leaf, 0)
	}
	if f.Spine != nil {
		fc.Spine = switchConfig(f.Spine, 0)
	}
	return fc
}

func flowmonConfig(fa *FlowmonAttach) flowmon.Config {
	cfg := flowmon.Config{OOOCap: fa.OOOCap, RTTMaxUs: fa.RTTMaxUs}
	if fa.DupAck == "baseline" {
		cfg.DupAck = flowmon.DupAckBaseline
	}
	return cfg
}

// ---------------------------------------------------------------------
// Workload runtimes.
// ---------------------------------------------------------------------

func (b *Built) stacks(names []string) []api.Stack {
	out := make([]api.Stack, len(names))
	for i, n := range names {
		out[i] = b.TB.M(n).Stack
	}
	return out
}

func (b *Built) startWorkload(w *Workload, idx int) wlRuntime {
	s := b.Spec
	wseed := func(explicit uint64) uint64 {
		if explicit != 0 {
			return explicit
		}
		return s.Seed ^ uint64(idx+1)*seedMix ^ 0x5eed
	}
	switch w.Kind {
	case KindBulk:
		sink := &apps.BulkSink{}
		sink.Serve(b.TB.M(w.Bulk.Server).Stack, w.Bulk.Port)
		conns := w.Bulk.Conns
		if conns == 0 {
			conns = len(w.Bulk.Clients)
		}
		addr := b.TB.Addr(w.Bulk.Server, w.Bulk.Port)
		for i := 0; i < conns; i++ {
			(&apps.BulkSender{}).Start(b.TB.M(w.Bulk.Clients[i%len(w.Bulk.Clients)]).Stack, addr)
		}
		return &bulkRT{sink: sink}
	case KindRPC:
		r := w.RPC
		srv := &apps.RPCServer{ReqSize: r.ReqBytes, RespSize: r.RespBytes, AppCycles: r.AppCycles}
		srv.Serve(b.TB.M(r.Server).Stack, r.Port)
		addr := b.TB.Addr(r.Server, r.Port)
		rt := &rpcRT{}
		for _, cl := range r.Clients {
			c := &apps.ClosedLoopClient{ReqSize: r.ReqBytes, RespSize: r.RespBytes, Pipeline: r.Pipeline}
			c.Start(b.TB.M(cl).Stack, addr, r.Conns)
			rt.cls = append(rt.cls, c)
		}
		return rt
	case KindKV:
		k := w.KV
		srv := &apps.KVServer{AppCycles: k.AppCycles, ValueLen: k.ValBytes}
		srv.Serve(b.TB.M(k.Server).Stack, k.Port)
		addr := b.TB.Addr(k.Server, k.Port)
		rt := &kvRT{}
		for i, cl := range k.Clients {
			c := &apps.KVClient{
				KeyLen:   k.KeyBytes,
				ValLen:   k.ValBytes,
				SetRatio: k.SetRatio,
				Pipeline: k.Pipeline,
				Seed:     wseed(k.Seed) ^ uint64(i+1)*seedMix,
			}
			c.Start(b.TB.M(cl).Stack, addr, k.Conns)
			rt.cls = append(rt.cls, c)
		}
		return rt
	case KindFlowGen:
		g := w.FlowGen
		fg := &apps.FlowGen{
			Rate:      g.Rate,
			SizeBytes: g.SizeBytes,
			Conns:     g.Conns,
			MaxFlows:  g.MaxFlows,
			Seed:      wseed(g.Seed),
		}
		targets := make([]api.Addr, len(g.Servers))
		for i, srv := range g.Servers {
			fg.Serve(b.TB.M(srv).Stack, g.Port)
			targets[i] = b.TB.Addr(srv, g.Port)
		}
		fg.Start(b.stacks(g.Clients), targets...)
		return &flowgenRT{g: fg}
	case KindIncast:
		in := w.Incast
		g := &apps.IncastGroup{BlockBytes: in.BlockBytes, Rounds: in.Rounds}
		g.Serve(b.TB.M(in.Agg).Stack, in.Port)
		senders := make([]api.Stack, in.FanIn)
		for i := range senders {
			senders[i] = b.TB.M(in.Senders[i%len(in.Senders)]).Stack
		}
		g.Start(senders, b.TB.Addr(in.Agg, in.Port))
		return &incastRT{g: g}
	}
	panic(fmt.Sprintf("scenario: unreachable workload kind %q", w.Kind))
}

type bulkRT struct {
	sink *apps.BulkSink
}

func (rt *bulkRT) reset() { rt.sink.ResetMeasurement() }
func (rt *bulkRT) result(d sim.Time) WorkloadResult {
	return WorkloadResult{Kind: KindBulk, Bytes: rt.sink.Received, GoodputGbps: gbps(rt.sink.Received, d)}
}

type rpcRT struct {
	cls []*apps.ClosedLoopClient
}

func (rt *rpcRT) reset() {
	for _, c := range rt.cls {
		c.ResetMeasurement()
	}
}

func (rt *rpcRT) result(d sim.Time) WorkloadResult {
	var ops, byts uint64
	lat := stats.NewHistogram()
	for _, c := range rt.cls {
		ops += c.Completed
		byts += c.Bytes
		lat.Merge(c.Latency)
	}
	r := WorkloadResult{Kind: KindRPC, Ops: ops, Bytes: byts, GoodputGbps: gbps(byts, d)}
	if lat.Count() > 0 {
		r.P50Us = usOf(lat.Percentile(50))
		r.P99Us = usOf(lat.Percentile(99))
	}
	return r
}

type kvRT struct {
	cls []*apps.KVClient
}

func (rt *kvRT) reset() {
	for _, c := range rt.cls {
		c.ResetMeasurement()
	}
}

func (rt *kvRT) result(d sim.Time) WorkloadResult {
	var ops uint64
	lat := stats.NewHistogram()
	for _, c := range rt.cls {
		ops += c.Completed
		lat.Merge(c.Latency)
	}
	r := WorkloadResult{Kind: KindKV, Ops: ops}
	if lat.Count() > 0 {
		r.P50Us = usOf(lat.Percentile(50))
		r.P99Us = usOf(lat.Percentile(99))
	}
	return r
}

type flowgenRT struct {
	g *apps.FlowGen
}

func (rt *flowgenRT) reset() { rt.g.ResetMeasurement() }
func (rt *flowgenRT) result(d sim.Time) WorkloadResult {
	r := WorkloadResult{
		Kind:      KindFlowGen,
		Started:   rt.g.Started(),
		Completed: rt.g.Completed(),
		Bytes:     rt.g.BytesCompleted(),
	}
	if fct := rt.g.FCT(); fct.Count() > 0 {
		r.P50Us = usOf(fct.Percentile(50))
		r.P99Us = usOf(fct.Percentile(99))
	}
	return r
}

type incastRT struct {
	g *apps.IncastGroup
}

func (rt *incastRT) reset() { rt.g.ResetMeasurement() }
func (rt *incastRT) result(d sim.Time) WorkloadResult {
	r := WorkloadResult{
		Kind:        KindIncast,
		Bytes:       rt.g.BytesReceived,
		GoodputGbps: gbps(rt.g.BytesReceived, d),
		Rounds:      rt.g.RoundsDone,
	}
	if rt.g.RoundFCT.Count() > 0 {
		r.P50Us = usOf(rt.g.RoundFCT.Percentile(50))
		r.P99Us = usOf(rt.g.RoundFCT.Percentile(99))
	}
	return r
}

// ---------------------------------------------------------------------
// Counter snapshots and readout.
// ---------------------------------------------------------------------

type machCounters struct {
	rxSegs, txSegs, retxSegs, retxBytes, dupAcks, oooAcc, oooDrop uint64
}

func machineCounters(m *testbed.Machine) machCounters {
	if m.TOE != nil {
		c := m.TOE.Counters
		return machCounters{c.RxSegs, c.TxSegs, c.RetxSegs, c.RetxBytes, c.DupAcks, c.OOOAccepted, c.OOODropped}
	}
	s := m.Base
	return machCounters{s.RxSegs, s.TxSegs, s.RetxSegs, s.RetxBytes, s.DupAcks, s.OOOAccepted, s.OOODropped}
}

type switchCounters struct {
	forwarded, lossDrops, queueDrops, wredDrops, ecnMarks, dupInjected, reordered uint64
}

func switchCountersOf(sw *netsim.Switch) switchCounters {
	return switchCounters{sw.Forwarded, sw.LossDrops, sw.QueueDrops, sw.WREDDrops, sw.ECNMarks, sw.DupInjected, sw.Reordered}
}

type fabricCounters struct {
	leafMarks, spineMarks, drops uint64
	spineTx                      []uint64
}

func fabricCountersOf(f *fabric.Fabric) fabricCounters {
	leaf, spine := f.ECNMarks()
	return fabricCounters{leafMarks: leaf, spineMarks: spine, drops: f.Drops(), spineTx: f.SpineTxBytes()}
}

// resetAtWarmBoundary marks the warmup boundary: queue statistics
// reset, workload measurement resets, and counter baselines snapshot —
// the same sequence the figure runners perform between their warm and
// measured runs. With zero warmup it runs at t=0 and every baseline is
// zero, so deltas equal cumulative counters.
func (b *Built) resetAtWarmBoundary() {
	if b.TB.Fabric != nil {
		b.TB.Fabric.ResetQueueStats()
		b.fabBase = fabricCountersOf(b.TB.Fabric)
	} else {
		b.swBase = switchCountersOf(b.TB.Net.Switch)
	}
	for _, rt := range b.wls {
		rt.reset()
	}
	b.machBase = make([]machCounters, len(b.Spec.Machines))
	for i := range b.Spec.Machines {
		b.machBase[i] = machineCounters(b.TB.M(b.Spec.Machines[i].Name))
	}
}

func (b *Built) readout() *Result {
	s := b.Spec
	cores := s.Cores
	if cores < 1 {
		cores = 1
	}
	r := &Result{
		Name:       s.Name,
		Seed:       s.Seed,
		Cores:      cores,
		DurationUs: s.DurationUs,
		WarmupUs:   s.WarmupUs,
	}
	for i := range s.Machines {
		m := &s.Machines[i]
		cur := machineCounters(b.TB.M(m.Name))
		base := b.machBase[i]
		r.Machines = append(r.Machines, MachineResult{
			Name:        m.Name,
			Stack:       m.Stack,
			RxSegs:      cur.rxSegs - base.rxSegs,
			TxSegs:      cur.txSegs - base.txSegs,
			RetxSegs:    cur.retxSegs - base.retxSegs,
			RetxBytes:   cur.retxBytes - base.retxBytes,
			DupAcks:     cur.dupAcks - base.dupAcks,
			OOOAccepted: cur.oooAcc - base.oooAcc,
			OOODropped:  cur.oooDrop - base.oooDrop,
		})
	}
	if b.TB.Fabric != nil {
		cur := fabricCountersOf(b.TB.Fabric)
		fr := &FabricResult{
			LeafECNMarks:         cur.leafMarks - b.fabBase.leafMarks,
			SpineECNMarks:        cur.spineMarks - b.fabBase.spineMarks,
			Drops:                cur.drops - b.fabBase.drops,
			PeakLeafQueueBytes:   b.TB.Fabric.PeakLeafQueueBytes(),
			PeakUplinkQueueBytes: b.TB.Fabric.PeakUplinkQueueBytes(),
			SpineTxBytes:         make([]uint64, len(cur.spineTx)),
		}
		for i, v := range cur.spineTx {
			fr.SpineTxBytes[i] = v - b.fabBase.spineTx[i]
		}
		r.Fabric = fr
	} else {
		cur := switchCountersOf(b.TB.Net.Switch)
		r.Switch = &SwitchResult{
			Forwarded:   cur.forwarded - b.swBase.forwarded,
			LossDrops:   cur.lossDrops - b.swBase.lossDrops,
			QueueDrops:  cur.queueDrops - b.swBase.queueDrops,
			WREDDrops:   cur.wredDrops - b.swBase.wredDrops,
			ECNMarks:    cur.ecnMarks - b.swBase.ecnMarks,
			DupInjected: cur.dupInjected - b.swBase.dupInjected,
			Reordered:   cur.reordered - b.swBase.reordered,
		}
	}
	for _, rt := range b.wls {
		r.Workloads = append(r.Workloads, rt.result(b.dur))
	}
	for _, t := range b.taps {
		rep := t.mon.Report()
		b.reports = append(b.reports, rep)
		r.Flowmon = append(r.Flowmon, flowmonResult(t.machine, rep))
	}
	for rack, taps := range b.fleetTaps {
		fl := &flowmon.Fleet{}
		for _, t := range taps {
			fl.Add(t.mon)
		}
		r.Racks = append(r.Racks, rackResult(rack, b.spines, fl.Report()))
	}
	if s.Measure.PerFlow {
		r.Flows = b.FlowRecords()
	}
	return r
}

func flowmonResult(machine string, rep *flowmon.Report) FlowmonResult {
	t := rep.Totals()
	fr := FlowmonResult{
		Machine:      machine,
		Flows:        t.Flows,
		Pkts:         rep.Pkts,
		AckedBytes:   t.AckedBytes,
		RetxSegs:     t.RetxSegs,
		RetxBytes:    t.RetxBytes,
		RetxGBNBytes: t.RetxGBNBytes,
		RetxSelBytes: t.RetxSelBytes,
		DupAcks:      t.DupAcks,
		OOOAccepts:   t.OOOAccepts,
		OOODrops:     t.OOODrops,
		CEPkts:       t.CEPkts,
		RTTSamples:   rep.RTTHist.Count(),
	}
	if fr.RTTSamples > 0 {
		fr.RTTP50Us = rep.RTTHist.Quantile(0.5)
		fr.RTTP99Us = rep.RTTHist.Quantile(0.99)
		fr.RTTMaxUs = rep.RTTHist.MaxSeen()
	}
	return fr
}

func rackResult(rack, spines int, rep *flowmon.Report) RackResult {
	t := rep.Totals()
	rr := RackResult{
		Rack:         rack,
		Flows:        t.Flows,
		Pkts:         rep.Pkts,
		AckedBytes:   t.AckedBytes,
		RetxBytes:    t.RetxBytes,
		RetxSelBytes: t.RetxSelBytes,
		DupAcks:      t.DupAcks,
		RTTSamples:   rep.RTTHist.Count(),
	}
	if rr.RTTSamples > 0 {
		rr.RTTP50Us = rep.RTTHist.Quantile(0.5)
		rr.RTTP99Us = rep.RTTHist.Quantile(0.99)
	}
	for spine, gt := range rep.GroupTotals(spines, func(f *flowmon.FlowReport) int {
		return int(f.Flow.Hash() % uint32(spines))
	}) {
		rr.Spines = append(rr.Spines, SpineSplit{
			Spine:      spine,
			Flows:      gt.Flows,
			RetxSegs:   gt.RetxSegs,
			RetxBytes:  gt.RetxBytes,
			DupAcks:    gt.DupAcks,
			RTTSamples: gt.RTTN,
			RTTMeanUs:  gt.RTTMeanUs(),
		})
	}
	return rr
}

// FlowRecords flattens every analyzer's per-flow snapshots into labeled
// records (Measure.Flowmon taps in spec order, then rack fleets in rack
// then host attachment order) — the stream the job service emits.
func (b *Built) FlowRecords() []FlowRecord {
	var out []FlowRecord
	appendTap := func(t tapRef) {
		rep := t.mon.Report()
		for i := range rep.Flows {
			out = append(out, flowRecord(t.machine, &rep.Flows[i]))
		}
	}
	for _, t := range b.taps {
		appendTap(t)
	}
	for _, taps := range b.fleetTaps {
		for _, t := range taps {
			appendTap(t)
		}
	}
	return out
}

func flowRecord(machine string, f *flowmon.FlowReport) FlowRecord {
	return FlowRecord{
		Machine:     machine,
		Src:         fmt.Sprintf("%v:%d", f.Flow.SrcIP, f.Flow.SrcPort),
		Dst:         fmt.Sprintf("%v:%d", f.Flow.DstIP, f.Flow.DstPort),
		Pkts:        f.Pkts,
		AckedBytes:  f.AckedBytes,
		RetxSegs:    f.RetxSegs,
		RetxBytes:   f.RetxBytes,
		DupAcks:     f.DupAcks,
		OOOAccepts:  f.OOOAccepts,
		OOODrops:    f.OOODrops,
		RTTSamples:  f.RTTN,
		RTTMeanUs:   f.RTTMeanUs(),
		GoodputGbps: f.GoodputBps() / 1e9,
	}
}

// gbps and usOf mirror the experiment runners' formulas exactly — the
// equivalence tests compare float64 values for equality.
func gbps(bytes uint64, d sim.Time) float64 {
	return float64(bytes) * 8 / d.Seconds() / 1e9
}

func usOf(ps int64) float64 { return float64(ps) / 1e6 }
