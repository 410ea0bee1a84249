package flowmon

import (
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// Attach wires the analyzer to both directions of a netsim interface:
// TxTap sees what the host sends (at send time), RxTap what it receives
// (at delivery). The taps are zero simulated cost and take no ownership;
// each packet crosses the NIC exactly once, so nothing double-counts.
func Attach(a *Analyzer, ifc *netsim.Iface) {
	ifc.TxTap = a.Observe
	ifc.RxTap = a.Observe
}

// toeTap adapts the analyzer to core.TOE.PacketTap without a per-packet
// closure: the carrier pins the engine whose clock stamps observations.
type toeTap struct {
	a   *Analyzer
	eng *sim.Engine
}

func (t *toeTap) observe(dir string, pkt *packet.Packet) {
	t.a.Observe(t.eng.Now(), pkt)
}

// TOETap returns a function with the core.TOE.PacketTap signature that
// feeds the analyzer. Unlike the netsim taps, a TOE tap models an
// on-NIC capture: the TOE charges PacketTapCost cycles per packet when
// any tap is installed.
func TOETap(eng *sim.Engine, a *Analyzer) func(dir string, pkt *packet.Packet) {
	t := &toeTap{a: a, eng: eng}
	return t.observe
}
