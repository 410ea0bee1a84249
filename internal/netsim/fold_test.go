package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// foldFrame is one frame of a fold scenario: sent by host src to host dst
// at instant at, its flow told apart by port (ECMP hashes on it).
type foldFrame struct {
	at       sim.Time
	src, dst int
	payload  int
	port     uint16
	ect      bool
}

// foldSpec is a scenario for the crossbar fold: one switch with hosts on
// ports of the given rates, or a leaf-spine fabric (two leaves, two
// spines, hosts alternating between the leaves, ECMP over the uplinks),
// every switch configured with cfg; traffic; and probe instants.
type foldSpec struct {
	cfg    SwitchConfig
	fabric bool
	rates  []float64 // Gb/s, one per host
	frames []foldFrame
	probes []sim.Time
}

// foldRun is what one run of a foldSpec shows: every link delivery
// (instant, receiver, the receiver's delivery ordinal — the sending
// port's txSeq — frame id, ECN codepoint) and every probe of every switch
// port's queue depth and transmit counters, in execution order, then each
// switch's and port's counters at the end.
type foldRun struct {
	log       []string
	processed uint64 // engine events
	forwarded uint64 // frames forwarded, over all switches
	reordered uint64
	inWindow  int // probes that found a booked frame short of egress
}

// runFold runs spec. tapped puts a no-op TxTap on every switch port, which
// keeps every frame on the crossbar event: the reference.
func runFold(spec *foldSpec, tapped bool) foldRun {
	eng := sim.New()
	var r foldRun
	var switches []*Switch
	newSwitch := func() *Switch {
		cfg := spec.cfg
		cfg.Seed += uint64(len(switches))
		sw := NewSwitch(eng, cfg)
		switches = append(switches, sw)
		return sw
	}
	const prop = 100 * sim.Nanosecond
	var leaves []*Switch
	if spec.fabric {
		leaves = []*Switch{newSwitch(), newSwitch()}
	} else {
		leaves = []*Switch{newSwitch()}
	}
	var spines []*Switch
	var downs [][]*Iface // downs[spine][leaf]: the spine's port toward a leaf
	if spec.fabric {
		for s := 0; s < 2; s++ {
			sp := newSwitch()
			spines = append(spines, sp)
			var d []*Iface
			for l, lf := range leaves {
				up := lf.AddUplink(fmt.Sprintf("l%d-up%d", l, s), GbpsToBytesPerSec(40))
				down := sp.AddPort(fmt.Sprintf("s%d-down%d", s, l), GbpsToBytesPerSec(40))
				Connect(up, down, prop)
				d = append(d, down)
			}
			downs = append(downs, d)
		}
	}
	hosts := make([]*Iface, len(spec.rates))
	for h, gbps := range spec.rates {
		l := h % len(leaves)
		mac := packet.MAC(2, 0, 0, 0, 1, byte(h))
		hosts[h] = NewIface(eng, fmt.Sprintf("h%d", h), mac, GbpsToBytesPerSec(gbps))
		port := leaves[l].AddPort(fmt.Sprintf("h%d", h), GbpsToBytesPerSec(gbps))
		Connect(hosts[h], port, prop)
		leaves[l].Learn(mac, port)
		for s, sp := range spines {
			sp.Learn(mac, downs[s][l])
		}
	}
	// Probes rank behind every switch: at an egress instant they see the
	// frame as sent, as a forwarding decision at that instant does.
	probe := eng.NewOwner()

	record := func(ifc *Iface, n *int, f *Frame) {
		*n++
		r.log = append(r.log, fmt.Sprintf("%d %s#%d seq=%d ecn=%d", eng.Now(), ifc.Name, *n, f.Pkt.TCP.Seq, f.Pkt.IP.ECN()))
	}
	for _, h := range hosts {
		n := 0
		h.Recv = func(f *Frame) {
			record(h, &n, f)
			packet.Release(f.Pkt)
			ReleaseFrame(f)
		}
	}
	for _, sw := range switches {
		for _, p := range sw.Ports() {
			n, fwd := 0, p.Recv
			p.Recv = func(f *Frame) { record(p, &n, f); fwd(f) }
			if tapped {
				p.TxTap = func(sim.Time, *packet.Packet) {}
			}
		}
	}
	readPorts := func(what string) {
		var b strings.Builder
		fmt.Fprintf(&b, "%d %s", eng.Now(), what)
		for _, sw := range switches {
			for _, p := range sw.Ports() {
				q := p.QueueBytes()
				if p.xbarHead < len(p.xbar) {
					r.inWindow++
				}
				p.Sync()
				fmt.Fprintf(&b, " %s:%d/%d/%d", p.Name, q, p.TxFrames, p.TxBytes)
			}
		}
		r.log = append(r.log, b.String())
	}
	for _, at := range spec.probes {
		probe.AtCall(at, func(any) { readPorts("probe") }, nil)
	}
	for i, fr := range spec.frames {
		eng.AfterCall(fr.at, func(any) {
			src, dst := hosts[fr.src], hosts[fr.dst]
			pkt := testPacket(src.MAC, dst.MAC, fr.payload)
			pkt.TCP.Seq = uint32(i)
			pkt.TCP.SrcPort = fr.port
			if !fr.ect {
				pkt.IP.SetECN(packet.ECNNotECT)
			}
			src.Send(FramesOf(eng).NewFrame(pkt, eng.Now()))
		}, nil)
	}
	eng.Run()
	readPorts("end")
	for i, sw := range switches {
		r.forwarded += sw.Forwarded
		r.reordered += sw.Reordered
		r.log = append(r.log, fmt.Sprintf("switch %d: fwd %d loss %d queue %d wred %d ecn %d dup %d reord %d ecmp %d loop %d flood %d",
			i, sw.Forwarded, sw.LossDrops, sw.QueueDrops, sw.WREDDrops, sw.ECNMarks, sw.DupInjected, sw.Reordered,
			sw.ECMPPicks, sw.ECMPLoopDrops, sw.Flooded))
		for _, p := range sw.Ports() {
			r.log = append(r.log, fmt.Sprintf("  %s: peak %d tail %d wred %d ecn %d rx %d/%d",
				p.Name, p.PeakQueueBytes, p.TailDrops, p.WREDDrops, p.ECNMarks, p.RxFrames, p.RxBytes))
		}
	}
	r.processed = eng.Processed()
	return r
}

// diffFold compares a folded run with its tapped reference.
func diffFold(t *testing.T, got, want foldRun) {
	t.Helper()
	for i := range want.log {
		if i >= len(got.log) || got.log[i] != want.log[i] {
			lo := max(0, i-2)
			t.Fatalf("runs diverge at entry %d:\nfolded %q\nevents %q", i,
				got.log[lo:min(len(got.log), i+2)], want.log[lo:i+1])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("folded run logged %d entries, event path %d", len(got.log), len(want.log))
	}
}

// foldTraffic draws n frames among hosts, in bursts, and probes that land
// inside the crossbar windows they open.
func foldTraffic(seed int64, hosts, n int) ([]foldFrame, []sim.Time) {
	rng := rand.New(rand.NewSource(seed))
	var frames []foldFrame
	var probes []sim.Time
	at := sim.Time(0)
	gaps := []sim.Time{0, 0, 0, 50 * sim.Nanosecond, 300 * sim.Nanosecond, sim.Microsecond, 5 * sim.Microsecond}
	for i := 0; i < n; i++ {
		at += gaps[rng.Intn(len(gaps))]
		src := rng.Intn(hosts)
		dst := (src + 1 + rng.Intn(hosts-1)) % hosts
		frames = append(frames, foldFrame{at, src, dst, []int{0, 64, 512, 1400}[rng.Intn(4)],
			uint16(rng.Intn(1 << 16)), rng.Intn(4) != 0})
		if rng.Intn(2) == 0 {
			probes = append(probes, at+sim.Time(rng.Intn(4000))*sim.Nanosecond+sim.Time(rng.Intn(1000)))
		}
	}
	return frames, probes
}

// TestSwitchFoldMatchesEventPath: a switch books a forwarded frame on its
// egress serializer at forward time instead of on a crossbar event 600 ns
// later. The reference is the same traffic with a no-op TxTap on every
// switch port, which keeps the event. Nobody may tell the two apart: every
// delivery at the same instant, in the same order, with the same delivery
// key (the receiver's ordinal is the sending link's txSeq) and ECN bits;
// every drop, mark and duplicate; PeakQueueBytes; and each port's
// QueueBytes, TxFrames and TxBytes read at instants inside crossbar
// windows and at the end. The folded run executes exactly one event fewer
// per forwarded frame when nothing is delayed. Rows cover reorder
// injection (a delayed frame and the frames behind it keep the event),
// duplication, the queue cap, WRED, ECN, ECMP uplinks and a three-hop
// fabric with all of them. Kills, each applied and seen failing: booking
// from now instead of from the egress instant (delivery instants);
// crediting TxFrames/TxBytes/queue depth at forward time (probes, marks,
// drops); folding while a delayed frame is in the port's crossbar
// (delivery order); committing only egress instants before now, not at now
// (probes and forwarding decisions at an egress instant); never folding
// (the event count).
func TestSwitchFoldMatchesEventPath(t *testing.T) {
	rows := []struct {
		name   string
		cfg    SwitchConfig
		fabric bool
		rates  []float64
	}{
		{"plain, one slow port", SwitchConfig{}, false, []float64{40, 40, 1, 10}},
		{"reorder", SwitchConfig{ReorderProb: 0.3, ReorderDelay: 2 * sim.Microsecond}, false, []float64{40, 10, 1, 40}},
		{"duplication", SwitchConfig{DupProb: 0.2}, false, []float64{40, 10, 1, 40}},
		{"queue cap", SwitchConfig{QueueCapBytes: 6000}, false, []float64{40, 40, 1, 10}},
		{"WRED", SwitchConfig{WREDMinBytes: 2000, WREDMaxBytes: 12000, WREDMaxProb: 0.5}, false, []float64{40, 40, 1, 10}},
		{"ECN", SwitchConfig{ECNThresholdBytes: 3000}, false, []float64{40, 40, 1, 10}},
		{"ECMP uplinks", SwitchConfig{}, true, []float64{40, 40, 10, 10, 1, 40}},
		{"three-hop fabric, every impairment", SwitchConfig{
			LossProb: 0.02, DupProb: 0.05, ReorderProb: 0.1, ReorderDelay: sim.Microsecond,
			QueueCapBytes: 20000, WREDMinBytes: 8000, WREDMaxBytes: 16000, WREDMaxProb: 0.3,
			ECNThresholdBytes: 4000,
		}, true, []float64{40, 10, 40, 1, 10, 40}},
	}
	for _, row := range rows {
		for seed := int64(1); seed <= 3; seed++ {
			spec := &foldSpec{cfg: row.cfg, fabric: row.fabric, rates: row.rates}
			spec.cfg.Seed = uint64(seed)
			spec.frames, spec.probes = foldTraffic(seed, len(row.rates), 400)
			got, want := runFold(spec, false), runFold(spec, true)
			t.Run(fmt.Sprintf("%s/seed%d", row.name, seed), func(t *testing.T) {
				diffFold(t, got, want)
				saved := want.processed - got.processed
				if row.cfg.ReorderProb == 0 && saved != want.forwarded {
					t.Errorf("folded run saved %d events over %d forwarded frames: a crossbar event is left", saved, want.forwarded)
				}
				if row.cfg.ReorderProb > 0 && (saved == 0 || saved > want.forwarded-want.reordered) {
					t.Errorf("folded run saved %d events; %d frames forwarded, %d delayed", saved, want.forwarded, want.reordered)
				}
				if got.inWindow < 20 {
					t.Errorf("only %d probes fell inside a crossbar window", got.inWindow)
				}
			})
		}
	}
}

// FuzzSwitchFold: whatever the traffic and impairments, the folded switch
// and the event path (every port tapped) cannot be told apart.
func FuzzSwitchFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0, 1, 3, 5, 0, 2, 3, 5, 0, 1, 3, 5})
	f.Add([]byte{0x01, 0, 0x12, 3, 9, 1, 0x21, 2, 4, 0, 0x12, 3, 9, 2, 0x12, 0, 7})
	f.Add([]byte{0x7f, 0, 0x15, 3, 1, 0, 0x51, 3, 2, 4, 0x15, 0, 3, 0, 0x24, 1, 4, 1, 0x42, 3, 5})
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{64, 512} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := foldSpecOf(data)
		diffFold(t, runFold(spec, false), runFold(spec, true))
	})
}

// foldSpecOf reads a fold scenario from bytes: one byte of impairment
// bits (loss, duplication, reorder, queue cap, WRED, ECN, fabric), then
// five bytes per frame — the gap class, source and destination, payload
// class, flow port, and whether a probe follows and how far behind.
func foldSpecOf(data []byte) *foldSpec {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	bits := next()
	spec := &foldSpec{fabric: bits&0x40 != 0, rates: []float64{40, 10, 1, 40}}
	if spec.fabric {
		spec.rates = []float64{40, 10, 1, 40, 10, 40}
	}
	c := &spec.cfg
	if bits&0x01 != 0 {
		c.LossProb = 0.05
	}
	if bits&0x02 != 0 {
		c.DupProb = 0.1
	}
	if bits&0x04 != 0 {
		c.ReorderProb, c.ReorderDelay = 0.2, 1500*sim.Nanosecond
	}
	if bits&0x08 != 0 {
		c.QueueCapBytes = 5000
	}
	if bits&0x10 != 0 {
		c.WREDMinBytes, c.WREDMaxBytes, c.WREDMaxProb = 1500, 9000, 0.5
	}
	if bits&0x20 != 0 {
		c.ECNThresholdBytes = 2000
	}
	c.Seed = uint64(bits)
	hosts := len(spec.rates)
	at := sim.Time(0)
	for len(data) > 0 && len(spec.frames) < 256 {
		gap, ends, size, port, pr := next(), next(), next(), next(), next()
		at += []sim.Time{0, 0, 7, 50 * sim.Nanosecond, 300 * sim.Nanosecond, 600 * sim.Nanosecond,
			sim.Microsecond, 5 * sim.Microsecond}[gap%8]
		src := int(ends>>4) % hosts
		dst := (src + 1 + int(ends&0xf)%(hosts-1)) % hosts
		spec.frames = append(spec.frames, foldFrame{at, src, dst, []int{0, 64, 512, 1400}[size%4],
			uint16(port) << 8, size&4 == 0})
		if pr&1 != 0 {
			spec.probes = append(spec.probes, at+sim.Time(pr>>1)*25*sim.Nanosecond+sim.Time(port))
		}
	}
	return spec
}

// TestShapingMidCrossbarPanics: a port rate applies from the next frame
// booked on it, and a frame in the crossbar was booked at forward time, so
// shaping a port while one is short of egress is refused, naming the port.
// Once the frame has left the crossbar, shaping is allowed again: what is
// on the wire keeps its instants on both paths.
func TestShapingMidCrossbarPanics(t *testing.T) {
	eng, n, a, b := buildNet(t, SwitchConfig{})
	b.Recv = func(f *Frame) { ReleaseFrame(f) }
	eng.AfterCall(0, func(any) { a.Send(FramesOf(eng).NewFrame(testPacket(a.MAC, b.MAC, 1400), 0)) }, nil)
	// Forwarded at ~392 ns (292 ns serialization + 100 ns link), egress
	// 600 ns later.
	eng.RunUntil(700 * sim.Nanosecond)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "sw/b") || !strings.Contains(msg, "crossbar") {
				t.Fatalf("shaping mid-crossbar: recovered %q, want a panic naming sw/b's crossbar", msg)
			}
		}()
		n.ShapePort("b", GbpsToBytesPerSec(1))
	}()
	eng.RunUntil(1100 * sim.Nanosecond)
	n.ShapePort("b", GbpsToBytesPerSec(1)) // on the wire now: allowed
	eng.Run()
	if b.RxFrames != 1 {
		t.Fatalf("delivered %d frames, want 1", b.RxFrames)
	}
}
