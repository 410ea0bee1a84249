package flowmon

import (
	"fmt"
	"strings"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// FlowReport is the readout snapshot of one directed flow.
type FlowReport struct {
	Flow    packet.Flow
	FirstAt sim.Time
	LastAt  sim.Time

	Pkts     uint64
	DataSegs uint64

	// Sender-side inference (data this flow carries).
	AckedBytes   uint64
	RetxSegs     uint64
	RetxBytes    uint64
	RetxGBNSegs  uint64
	RetxGBNBytes uint64
	RetxSelSegs  uint64
	RetxSelBytes uint64
	DupAcks      uint64
	DupAckRunMax uint32

	// RTT at the tap (microseconds). RTTN == 0 means no samples.
	RTTN     uint64
	RTTMinUs uint32
	RTTMaxUs uint32
	RTTSumUs uint64

	// Receiver-side emulation.
	OOOAccepts uint64
	OOODrops   uint64
	OOOMerges  uint64

	ZeroWinEvents uint64
	ZeroWinStall  sim.Time
	CEPkts        uint64
	ECEPkts       uint64
}

// RTTMeanUs returns the mean RTT sample in microseconds (0 when none).
func (f *FlowReport) RTTMeanUs() float64 {
	if f.RTTN == 0 {
		return 0
	}
	return float64(f.RTTSumUs) / float64(f.RTTN)
}

// GoodputBps returns acked payload bits per second over the flow's
// observed lifetime (0 when the flow spans no time).
func (f *FlowReport) GoodputBps() float64 {
	d := f.LastAt - f.FirstAt
	if d <= 0 {
		return 0
	}
	return float64(f.AckedBytes) * 8 / d.Seconds()
}

// Report is an analyzer (or fleet) readout: per-flow snapshots in
// first-seen order plus merged fleet-wide statistics.
//
// Inference tolerances — asserted by the xval harness, documented here
// for consumers comparing against stack ground truth:
//
//   - Retransmitted segments/bytes are exact at a sender-side tap: every
//     transmitted byte crosses it, and the SendNext criterion is the
//     same high-water rule the stacks count with.
//   - OOO accepts/drops are exact at a receiver-side tap while the
//     receive window never forces a trim: the emulation replays the
//     stack's interval-set logic but cannot see buffer occupancy.
//   - Duplicate-ACK counts can diverge by a bounded amount around
//     recovery episodes: the stack's in-flight accounting (TxSent,
//     SND.NXT rewinds) resets where the wire-level SendNext model does
//     not, and acks landing between a tap and the stack's deferred
//     processing race new transmissions. Spurious RTOs are invisible to
//     a passive observer by nature.
type Report struct {
	Flows []FlowReport

	Pkts         uint64
	NonTCP       uint64
	FlowsDropped uint64

	RTTHist  *stats.LinearHist // microsecond buckets
	OOODepth *stats.LinearHist // interval-set size per reassembly event
}

// Report snapshots the analyzer in establishment (first-seen) order.
func (a *Analyzer) Report() *Report {
	r := &Report{
		Flows:        make([]FlowReport, 0, len(a.order)),
		Pkts:         a.Pkts,
		NonTCP:       a.NonTCP,
		FlowsDropped: a.FlowsDropped,
		RTTHist:      stats.NewLinearHist(a.cfg.RTTMaxUs),
		OOODepth:     stats.NewLinearHist(oooMax),
	}
	r.RTTHist.Add(a.rttHist)
	r.OOODepth.Add(a.oooDepth)
	for _, slot := range a.order {
		fs := a.at(slot)
		fr := FlowReport{
			Flow:          fs.flow,
			FirstAt:       fs.firstAt,
			LastAt:        fs.lastAt,
			Pkts:          fs.pkts,
			DataSegs:      fs.dataSegs,
			AckedBytes:    fs.ackedBytes,
			RetxSegs:      fs.retxSegs,
			RetxBytes:     fs.retxBytes,
			RetxGBNSegs:   fs.retxGBNSegs,
			RetxGBNBytes:  fs.retxGBNBytes,
			RetxSelSegs:   fs.retxSelSegs,
			RetxSelBytes:  fs.retxSelBytes,
			DupAcks:       fs.dupAcks,
			DupAckRunMax:  fs.dupRunMax,
			RTTN:          fs.rttN,
			RTTMaxUs:      fs.rttMaxUs,
			RTTSumUs:      fs.rttSumUs,
			OOOAccepts:    fs.oooAccepts,
			OOODrops:      fs.oooDrops,
			OOOMerges:     fs.oooMerges,
			ZeroWinEvents: fs.zeroWinEvents,
			ZeroWinStall:  fs.zeroWinStall,
			CEPkts:        fs.cePkts,
			ECEPkts:       fs.ecePkts,
		}
		if fs.rttN > 0 {
			fr.RTTMinUs = fs.rttMinUs
		}
		if fs.flags&fsZeroWin != 0 {
			// Still stalled at readout: charge the open-ended stall.
			fr.ZeroWinStall += fs.lastAt - fs.zeroSince
		}
		r.Flows = append(r.Flows, fr)
	}
	return r
}

// Totals sums the sender-side inference counters across every flow in
// the report — the numbers cross-validated against stack counters.
type Totals struct {
	Flows         uint64
	Pkts          uint64
	DataSegs      uint64
	AckedBytes    uint64
	RetxSegs      uint64
	RetxBytes     uint64
	RetxGBNBytes  uint64
	RetxSelBytes  uint64
	DupAcks       uint64
	OOOAccepts    uint64
	OOODrops      uint64
	ZeroWinEvents uint64
	CEPkts        uint64

	// RTT samples merged across flows (microseconds at the tap).
	RTTN     uint64
	RTTSumUs uint64
	RTTMaxUs uint32
}

// add accumulates one flow snapshot.
func (t *Totals) add(f *FlowReport) {
	t.Flows++
	t.Pkts += f.Pkts
	t.DataSegs += f.DataSegs
	t.AckedBytes += f.AckedBytes
	t.RetxSegs += f.RetxSegs
	t.RetxBytes += f.RetxBytes
	t.RetxGBNBytes += f.RetxGBNBytes
	t.RetxSelBytes += f.RetxSelBytes
	t.DupAcks += f.DupAcks
	t.OOOAccepts += f.OOOAccepts
	t.OOODrops += f.OOODrops
	t.ZeroWinEvents += f.ZeroWinEvents
	t.CEPkts += f.CEPkts
	t.RTTN += f.RTTN
	t.RTTSumUs += f.RTTSumUs
	if f.RTTMaxUs > t.RTTMaxUs {
		t.RTTMaxUs = f.RTTMaxUs
	}
}

// RTTMeanUs returns the mean of the merged RTT samples (0 when none).
func (t *Totals) RTTMeanUs() float64 {
	if t.RTTN == 0 {
		return 0
	}
	return float64(t.RTTSumUs) / float64(t.RTTN)
}

// Totals aggregates the report's flows.
func (r *Report) Totals() Totals {
	var t Totals
	for i := range r.Flows {
		t.add(&r.Flows[i])
	}
	return t
}

// GroupTotals partitions the report's flows into n groups by key and
// returns per-group totals: out[k] sums every flow whose key(f) == k.
// Flows keyed outside [0,n) are skipped. The canonical grouping is the
// per-spine split: key = Flow.Hash() % spines, the same CRC-32 the
// fabric's ECMP stage uses to pick an uplink, so group k holds exactly
// the directed flows whose data crossed spine k.
func (r *Report) GroupTotals(n int, key func(*FlowReport) int) []Totals {
	out := make([]Totals, n)
	for i := range r.Flows {
		f := &r.Flows[i]
		k := key(f)
		if k < 0 || k >= n {
			continue
		}
		out[k].add(f)
	}
	return out
}

// Format renders the report as aligned text, one flow per line plus the
// fleet summary — byte-identical across reruns by construction.
func (r *Report) Format() string {
	var b strings.Builder
	t := r.Totals()
	fmt.Fprintf(&b, "flows %d  pkts %d  non-tcp %d  dropped-flows %d\n",
		len(r.Flows), r.Pkts, r.NonTCP, r.FlowsDropped)
	fmt.Fprintf(&b, "data-segs %d  acked %d B  retx %d segs / %d B (gbn %d B, sel %d B)\n",
		t.DataSegs, t.AckedBytes, t.RetxSegs, t.RetxBytes, t.RetxGBNBytes, t.RetxSelBytes)
	fmt.Fprintf(&b, "dupacks %d  ooo-accepts %d  ooo-drops %d  zero-win %d  ce %d\n",
		t.DupAcks, t.OOOAccepts, t.OOODrops, t.ZeroWinEvents, t.CEPkts)
	if n := r.RTTHist.Count(); n > 0 {
		fmt.Fprintf(&b, "rtt samples %d  min/p50/p99/max %d/%d/%d/%d us\n",
			n, r.RTTHist.Quantile(0), r.RTTHist.Quantile(0.5),
			r.RTTHist.Quantile(0.99), r.RTTHist.MaxSeen())
	}
	for i := range r.Flows {
		f := &r.Flows[i]
		fmt.Fprintf(&b, "  %v:%d > %v:%d  pkts %d  acked %d  retx %d/%dB  dup %d  ooo %d/%d  rtt(n=%d mean=%.1fus)\n",
			f.Flow.SrcIP, f.Flow.SrcPort, f.Flow.DstIP, f.Flow.DstPort,
			f.Pkts, f.AckedBytes, f.RetxSegs, f.RetxBytes, f.DupAcks,
			f.OOOAccepts, f.OOODrops, f.RTTN, f.RTTMeanUs())
	}
	return b.String()
}

// Fleet merges its analyzers' reports at readout, in attach order, so the
// merged report does not depend on how taps were split over analyzers.
// The fleet never touches an analyzer during a run.
type Fleet struct {
	mons []*Analyzer
}

// Add appends an analyzer to the fleet.
func (fl *Fleet) Add(a *Analyzer) { fl.mons = append(fl.mons, a) }

// Report merges every analyzer's readout in attach order: flow lists
// concatenate (each in its own establishment order), histograms and
// counters sum. Flows observed by two taps (e.g. both endpoints' NICs)
// appear once per tap — vantage points are kept, not fused.
func (fl *Fleet) Report() *Report {
	if len(fl.mons) == 0 {
		return &Report{RTTHist: stats.NewLinearHist(0), OOODepth: stats.NewLinearHist(0)}
	}
	r := fl.mons[0].Report()
	for _, a := range fl.mons[1:] {
		o := a.Report()
		r.Flows = append(r.Flows, o.Flows...)
		r.Pkts += o.Pkts
		r.NonTCP += o.NonTCP
		r.FlowsDropped += o.FlowsDropped
		r.RTTHist.Add(o.RTTHist)
		r.OOODepth.Add(o.OOODepth)
	}
	return r
}
