package main

import (
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/scenario"
	"flextoe/internal/testbed"
)

// counters is one reading of the public counters of a built testbed,
// summed over machines, switches and engines. Every field is cumulative
// since t = 0, so a window's figure is the difference of two readings.
// Nothing here is instrumentation inside the program: the ledger reads
// what the machines already export.
type counters struct {
	// sim
	events  uint64 // events executed, all shard engines
	pending int    // events scheduled and not yet run

	// all stacks
	segs       uint64 // TCP segments received by every machine: the unit of work
	nicRxBytes uint64 // wire bytes delivered to every host NIC

	// core / tcpseg / ctrl: FlexTOE machines
	toeRx, toeTx, acksSent, hcOps, notifies     uint64
	toeRetx, oooAccepted, oooDropped            uint64
	fastRetx, sackRetx                          uint64
	toeConns, toeStateBytes                     int
	baseTx, baseRetx                            uint64 // baseline machines
	forwarded, queueDrops, ecnMarks, otherDrops uint64 // every switch
	poolGets, poolReleases                      uint64 // packet pools

	hostBusy       float64 // simulated seconds host cores spent busy, summed
	hostBusyCycles float64 // the same in core cycles
	hostCoreTime   float64 // host cores x simulated seconds elapsed
}

// machines returns the testbed's machines in spec order (the Machines map
// has no order, and sums of floats should not depend on one).
func machines(b *scenario.Built) []*testbed.Machine {
	ms := make([]*testbed.Machine, len(b.Spec.Machines))
	for i := range b.Spec.Machines {
		ms[i] = b.TB.M(b.Spec.Machines[i].Name)
	}
	return ms
}

// switches returns every switch between the NICs.
func switches(tb *testbed.Testbed) []*netsim.Switch {
	if tb.Fabric != nil {
		return append(append([]*netsim.Switch{}, tb.Fabric.Leaves...), tb.Fabric.Spines...)
	}
	return []*netsim.Switch{tb.Net.Switch}
}

func readCounters(b *scenario.Built) counters {
	var c counters
	for _, e := range b.TB.Group.Engines() {
		c.events += e.Processed()
		c.pending += e.Pending()
	}
	for _, m := range machines(b) {
		c.nicRxBytes += m.Iface.RxBytes
		if m.TOE != nil {
			k := &m.TOE.Counters
			c.segs += k.RxSegs
			c.toeRx += k.RxSegs
			c.toeTx += k.TxSegs
			c.acksSent += k.AcksSent
			c.hcOps += k.HCOps
			c.notifies += k.Notifies
			c.toeRetx += k.RetxSegs
			c.oooAccepted += k.OOOAccepted
			c.oooDropped += k.OOODropped
			c.fastRetx += k.FastRetx
			c.sackRetx += k.SACKRetx
			c.toeConns += m.TOE.NumConnections()
			c.toeStateBytes += m.TOE.ConnStateBytes()
		} else {
			c.segs += m.Base.RxSegs
			c.baseTx += m.Base.TxSegs
			c.baseRetx += m.Base.RetxSegs
		}
		now := m.Eng.Now().Seconds()
		for _, core := range m.Stack.Machine().Cores {
			busy := core.Utilization() * now
			c.hostBusy += busy
			c.hostBusyCycles += busy * float64(core.Hz())
			c.hostCoreTime += now
		}
	}
	for _, sw := range switches(b.TB) {
		c.forwarded += sw.Forwarded
		c.queueDrops += sw.QueueDrops
		c.ecnMarks += sw.ECNMarks
		c.otherDrops += sw.LossDrops + sw.WREDDrops + sw.Flooded + sw.ECMPLoopDrops
	}
	c.poolGets, c.poolReleases = b.TB.PoolStats()
	return c
}

// endpoints counts connection-table entries over all machines. A FlexTOE
// entry exists only once the handshake completed; a baseline entry exists
// from the SYN on, so on baseline machines this counts connections whose
// SYN arrived and was admitted (synDrops reports the rest).
func endpoints(b *scenario.Built) (n int, synDrops uint64) {
	for _, m := range machines(b) {
		if m.TOE != nil {
			n += m.TOE.NumConnections()
		} else {
			n += m.Base.NumConns()
			synDrops += m.Base.SYNDrops
		}
	}
	return n, synDrops
}

// connKey names a connection independent of which endpoint reports it.
func connKey(f packet.Flow) packet.Flow {
	if f.SrcIP > f.DstIP || f.SrcIP == f.DstIP && f.SrcPort > f.DstPort {
		return f.Reverse()
	}
	return f
}

// connProgress reads, for every connection with a FlexTOE endpoint, a
// number that moves whenever the connection delivers a byte in either
// direction (RCV.NXT plus SND.UNA, summed over its FlexTOE endpoints).
// Baseline stacks export no per-connection state; machineProgress covers
// them at machine granularity.
func connProgress(b *scenario.Built) map[packet.Flow]uint32 {
	prog := make(map[packet.Flow]uint32)
	for _, m := range machines(b) {
		if m.TOE == nil {
			continue
		}
		// Slot ids are dense from 0 while nothing closes, which holds
		// for the benchmark's persistent connections.
		for id, found := uint32(0), 0; found < m.TOE.NumConnections() && id < 1<<22; id++ {
			c := m.TOE.Connection(id)
			if c == nil {
				continue
			}
			found++
			prog[connKey(c.Flow)] += c.Proto.Ack + c.Proto.Seq - c.Proto.TxSent
		}
	}
	return prog
}

// machineProgress is each machine's received-segment count, spec order.
func machineProgress(b *scenario.Built) []uint64 {
	ms := machines(b)
	segs := make([]uint64, len(ms))
	for i, m := range ms {
		if m.TOE != nil {
			segs[i] = m.TOE.Counters.RxSegs
		} else {
			segs[i] = m.Base.RxSegs
		}
	}
	return segs
}
