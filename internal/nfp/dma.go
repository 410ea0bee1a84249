package nfp

import (
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// DMAEngine models the PCIe island's DMA engine: up to DMAMaxInflight
// asynchronous transactions sharing the PCIe link's bandwidth, each paying
// the link's round-trip latency (§2.3, [41]). FPCs issue transactions and
// continue; completion fires as a simulation event.
type DMAEngine struct {
	link     *sim.Resource
	lat      sim.Time
	max      int
	inflight int
	waiting  []dmaReq // FIFO of transactions beyond the slot limit, from waitHead
	waitHead int
	free     shm.Freelist[dmaTxn] // recycled transaction records

	// Statistics.
	Transactions uint64
	Bytes        uint64
	PeakInflight int
}

type dmaReq struct {
	bytes int
	cb    func(any)
	arg   any
}

// dmaTxn is one in-flight transaction's completion record, recycled
// through the engine's freelist so issuing allocates nothing.
type dmaTxn struct {
	d   *DMAEngine
	cb  func(any)
	arg any
}

func dmaDone(a any) { a.(*dmaTxn).complete() }

// NewDMAEngine builds the engine from the chip config.
func NewDMAEngine(eng *sim.Engine, cfg *Config) *DMAEngine {
	return &DMAEngine{
		link: sim.NewResource(eng, "pcie", cfg.PCIeBytesPerSec),
		lat:  cfg.PCIeLatency,
		max:  cfg.DMAMaxInflight,
	}
}

// IssueCall starts a DMA of the given size; cb(arg) runs when the data
// has landed (nil cb: nothing runs; see sim.Engine.AtCall for the
// contract). Transactions beyond the in-flight limit queue inside the
// engine (the paper's descriptor-pool flow control keeps this bounded in
// practice).
func (d *DMAEngine) IssueCall(bytes int, cb func(any), arg any) {
	if d.inflight >= d.max {
		d.waiting = append(d.waiting, dmaReq{bytes, cb, arg})
		return
	}
	d.start(bytes, cb, arg)
}

func (d *DMAEngine) start(bytes int, cb func(any), arg any) {
	d.inflight++
	if d.inflight > d.PeakInflight {
		d.PeakInflight = d.inflight
	}
	d.Transactions++
	d.Bytes += uint64(bytes)
	t := d.getTxn()
	t.cb, t.arg = cb, arg
	d.link.AcquireCall(int64(bytes), d.lat, dmaDone, t)
}

func (t *dmaTxn) complete() {
	d := t.d
	cb, arg := t.cb, t.arg
	t.cb, t.arg = nil, nil
	d.free.Put(t)
	d.inflight--
	if cb != nil {
		cb(arg)
	}
	if d.waitHead < len(d.waiting) && d.inflight < d.max {
		req := d.waiting[d.waitHead]
		d.waiting, d.waitHead = shm.PopRing(d.waiting, d.waitHead)
		d.start(req.bytes, req.cb, req.arg)
	}
}

func (d *DMAEngine) getTxn() *dmaTxn {
	if t := d.free.Get(); t != nil {
		return t
	}
	return &dmaTxn{d: d}
}

// Inflight returns the number of active transactions.
func (d *DMAEngine) Inflight() int { return d.inflight }

// Utilization returns the PCIe link busy fraction.
func (d *DMAEngine) Utilization() float64 { return d.link.Utilization() }
