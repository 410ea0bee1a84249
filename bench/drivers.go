package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"flextoe/internal/conntab"
	"flextoe/internal/ebpf"
	"flextoe/internal/fabric"
	"flextoe/internal/flowmon"
	"flextoe/internal/host"
	"flextoe/internal/netsim"
	"flextoe/internal/nfp"
	"flextoe/internal/packet"
	"flextoe/internal/scenario"
	"flextoe/internal/sched"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// A layer driver exercises one package through its public functions with
// seeded inputs and a fixed iteration count, sized to run for at least
// 0.3 s on the reference box, and reports host time per operation. It
// isolates a layer whose share of a whole workload is too small to show
// end to end; it is not a regression gate.
//
// The iterations run in driverBatches equal batches and the fastest batch
// is reported: interference only adds time, and a batch of 40 ms is short
// enough for some of them to escape it. run prepares its inputs, then
// times only the operations.
type driver struct {
	name  string
	unit  string  // of the reported value
	scale float64 // reported value = nanoseconds per operation x scale
	iters int     // over all batches, at --seconds = run_seconds
	run   func(iters int) (ops int, elapsed time.Duration, err error)
}

const driverBatches = 8

func drivers() []driver {
	return []driver{
		{"sim.ns_per_event.pending64", "ns", 1, 6_000_000, func(n int) (int, time.Duration, error) {
			return simEvents(n, 64, 100*sim.Nanosecond, 20*sim.Microsecond)
		}},
		{"sim.ns_per_event.pending64k", "ns", 1, 3_000_000, func(n int) (int, time.Duration, error) {
			return simEvents(n, 64<<10, 10*sim.Microsecond, 5*sim.Millisecond)
		}},
		{"packet.serialize_ns.64b", "ns", 1, 5_000_000, func(n int) (int, time.Duration, error) { return packetSerialize(n, 64) }},
		{"packet.serialize_ns.1448b", "ns", 1, 700_000, func(n int) (int, time.Duration, error) { return packetSerialize(n, 1448) }},
		{"packet.decode_ns.64b", "ns", 1, 25_000_000, func(n int) (int, time.Duration, error) { return packetDecode(n, 64) }},
		{"packet.decode_ns.1448b", "ns", 1, 25_000_000, func(n int) (int, time.Duration, error) { return packetDecode(n, 1448) }},
		{"packet.flow_hash_ns", "ns", 1, 9_000_000, flowHash},
		{"tcpseg.rx_inorder_ns", "ns", 1, 12_000_000, func(n int) (int, time.Duration, error) { return tcpsegRX(n, 0) }},
		{"tcpseg.rx_ooo_ns", "ns", 1, 11_000_000, func(n int) (int, time.Duration, error) { return tcpsegRX(n, 8) }},
		{"tcpseg.tx_ns", "ns", 1, 17_000_000, tcpsegTX},
		{"conntab.lookup_ns.n512", "ns", 1, 7_000_000, func(n int) (int, time.Duration, error) { return conntabLookup(n, 512) }},
		{"conntab.lookup_ns.n64k", "ns", 1, 4_500_000, func(n int) (int, time.Duration, error) { return conntabLookup(n, 64<<10) }},
		{"conntab.churn_ns", "ns", 1, 1_500_000, conntabChurn},
		{"netsim.forward_ns", "ns", 1, 2_000_000, netsimForward},
		{"fabric.forward_ns", "ns", 1, 1_000_000, fabricForward},
		{"nfp.fpc_task_ns", "ns", 1, 2_400_000, fpcTasks},
		{"nfp.dma_issue_ns", "ns", 1, 7_500_000, dmaIssues},
		{"host.core_task_ns", "ns", 1, 6_500_000, coreTasks},
		{"sched.carousel_ns", "ns", 1, 11_000_000, carousel},
		{"flowmon.observe_ns.inorder", "ns", 1, 3_000_000, func(n int) (int, time.Duration, error) { return flowmonObserve(n, false) }},
		{"flowmon.observe_ns.lossy", "ns", 1, 3_000_000, func(n int) (int, time.Duration, error) { return flowmonObserve(n, true) }},
		{"ebpf.vm_run_ns", "ns", 1, 240_000, ebpfRun},
		{"scenario.parse_us", "us", 1e-3, 35_000, scenarioParse},
		{"scenario.canonical_us", "us", 1e-3, 11_000, scenarioCanonical},
	}
}

// layerDrivers runs every driver at the given share of its iteration
// count and adds its metric.
func (o *outcome) layerDrivers(work float64) error {
	// A run so short that preparing a batch's inputs would outlast timing
	// it (the smoke test's) times a single batch.
	batches := driverBatches
	if work < 0.1 {
		batches = 1
	}
	for _, d := range drivers() {
		best := math.Inf(1)
		for b := 0; b < batches; b++ {
			ops, elapsed, err := d.run(max(500, int(float64(d.iters)*work)/batches))
			if err != nil {
				return fmt.Errorf("bench: driver %s: %w", d.name, err)
			}
			if ops == 0 {
				return fmt.Errorf("bench: driver %s performed no operation", d.name)
			}
			best = min(best, float64(elapsed.Nanoseconds())/float64(ops))
		}
		o.add(d.name, d.unit, best*d.scale, batches)
	}
	// Memory per tracked directed flow, from the analyzer's own account.
	mon := flowmon.New(flowmon.Config{})
	p := driverPacket(64)
	const flows = 4096
	for i := 0; i < flows/2; i++ { // each packet creates its flow and the reverse one
		p.TCP.SrcPort = uint16(1024 + i)
		mon.Observe(sim.Time(i), p)
	}
	o.add("flowmon.mem_bytes_per_flow", "B", float64(mon.MemBytes())/float64(mon.NumFlows()), 0)
	return nil
}

// driverRand is the drivers' input source: fixed seed, so every run and
// both sides of a comparison see the same inputs.
func driverRand() *rand.Rand { return rand.New(rand.NewSource(20220404)) }

func driverPacket(payload int) *packet.Packet {
	return &packet.Packet{
		Eth: packet.Ethernet{Src: packet.MAC(2, 0, 0, 0, 0, 1), Dst: packet.MAC(2, 0, 0, 0, 0, 2), EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{
			TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(10, 0, 0, 2),
		},
		TCP: packet.TCP{
			SrcPort: 40000, DstPort: 9000, Seq: 1, Ack: 1, Flags: packet.FlagACK | packet.FlagPSH,
			Window: 4096, HasTimestamp: true, TSVal: 100, TSEcr: 99, WScale: -1,
		},
		Payload: make([]byte, payload),
	}
}

// ---------------------------------------------------------------------
// sim: the engine alone, holding a fixed number of pending events whose
// deadlines are drawn from a seeded table. pending64 keeps deadlines
// within 20 us (the dense data-path regime, all inside the wheel);
// pending64k spreads 65 536 timers over 5 ms (the RTO-scale regime).
// ---------------------------------------------------------------------

type simLoad struct {
	eng    *sim.Engine
	delays []sim.Time
	at     int
	left   int
}

func simLoadFire(a any) {
	l := a.(*simLoad)
	if l.left == 0 {
		return
	}
	l.left--
	l.eng.AfterCall(l.delays[l.at], simLoadFire, l)
	l.at = (l.at + 1) % len(l.delays)
}

func simEvents(iters, pending int, lo, hi sim.Time) (int, time.Duration, error) {
	rng := driverRand()
	l := &simLoad{eng: sim.New(), delays: make([]sim.Time, 8192), left: iters}
	for i := range l.delays {
		l.delays[i] = lo + sim.Time(rng.Int63n(int64(hi-lo)))
	}
	for i := 0; i < pending; i++ {
		l.eng.AfterCall(l.delays[i%len(l.delays)], simLoadFire, l)
	}
	start := time.Now()
	l.eng.Run()
	return int(l.eng.Processed()), time.Since(start), nil
}

// ---------------------------------------------------------------------
// packet
// ---------------------------------------------------------------------

func packetSerialize(iters, payload int) (int, time.Duration, error) {
	p := driverPacket(payload)
	buf := make([]byte, p.WireLen())
	opts := packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}
	start := time.Now()
	for i := 0; i < iters; i++ {
		p.TCP.Seq += uint32(payload)
		p.SerializeTo(buf, opts)
	}
	return iters, time.Since(start), packet.VerifyChecksums(buf)
}

func packetDecode(iters, payload int) (int, time.Duration, error) {
	frame := driverPacket(payload).Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
	var p packet.Packet
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := p.DecodeInto(frame); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	if len(p.Payload) != payload {
		return 0, 0, fmt.Errorf("decoded %d payload bytes, want %d", len(p.Payload), payload)
	}
	return iters, elapsed, nil
}

func flowHash(iters int) (int, time.Duration, error) {
	f := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: 40000, DstPort: 9000}
	var acc uint32
	start := time.Now()
	for i := 0; i < iters; i++ {
		f.SrcPort = uint16(i)
		acc ^= f.Hash()
	}
	elapsed := time.Since(start)
	if acc == 1 { // keeps the loop's result live
		return 0, 0, fmt.Errorf("improbable hash fold")
	}
	return iters, elapsed, nil
}

// ---------------------------------------------------------------------
// tcpseg: one 32 KB window of 512 B segments per round. skipEvery > 0
// withholds every skipEvery-th segment on the first pass and delivers it
// afterwards, so the receiver reassembles through four intervals.
// ---------------------------------------------------------------------

func tcpsegRX(iters, skipEvery int) (int, time.Duration, error) {
	const segN, segSz, winSz = 64, 512, 64 * 512
	ops := 0
	start := time.Now()
	for ops < iters {
		st := &tcpseg.ProtoState{RxAvail: winSz, RemoteWin: winSz >> tcpseg.WindowScale, OOOCap: 4}
		post := &tcpseg.PostState{RxSize: winSz, TxSize: winSz}
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < segN; s++ {
				held := skipEvery > 0 && s%skipEvery == 0
				if held != (pass == 1) {
					continue
				}
				info := tcpseg.SegInfo{Seq: uint32(s * segSz), PayloadLen: segSz, Flags: packet.FlagACK}
				tcpseg.ProcessRX(st, post, &info, 0)
				ops++
			}
		}
		// Whatever a full interval set turned away arrives again in order.
		for st.Ack < winSz {
			info := tcpseg.SegInfo{Seq: st.Ack, PayloadLen: segSz, Flags: packet.FlagACK}
			tcpseg.ProcessRX(st, post, &info, 0)
			ops++
		}
		if st.OOOCnt != 0 {
			return 0, 0, fmt.Errorf("window not reassembled: %d intervals left", st.OOOCnt)
		}
	}
	return ops, time.Since(start), nil
}

func tcpsegTX(iters int) (int, time.Duration, error) {
	const segSz, winSz = 512, 64 * 512
	ops := 0
	start := time.Now()
	for ops < iters {
		st := &tcpseg.ProtoState{RxAvail: winSz, RemoteWin: winSz >> tcpseg.WindowScale}
		post := &tcpseg.PostState{RxSize: winSz, TxSize: winSz}
		tcpseg.ProcessHC(st, post, tcpseg.HCOp{Kind: tcpseg.HCTx, Bytes: winSz})
		for {
			if _, ok := tcpseg.ProcessTX(st, post, segSz, 0); !ok {
				break
			}
			ops++
		}
		if st.TxSent != winSz {
			return 0, 0, fmt.Errorf("sent %d of %d bytes", st.TxSent, winSz)
		}
	}
	return ops, time.Since(start), nil
}

// ---------------------------------------------------------------------
// conntab
// ---------------------------------------------------------------------

func conntabFlows(n int) []packet.Flow {
	rng := driverRand()
	flows := make([]packet.Flow, n)
	for i := range flows {
		flows[i] = packet.Flow{
			SrcIP: packet.IPv4Addr(rng.Uint32()), DstIP: packet.IP(10, 0, 0, 1),
			SrcPort: uint16(i), DstPort: uint16(i >> 16),
		}
	}
	return flows
}

func conntabLookup(iters, n int) (int, time.Duration, error) {
	flows := conntabFlows(n)
	ix := conntab.New(func(slot uint32) packet.Flow { return flows[slot] })
	for i, f := range flows {
		ix.Insert(f, uint32(i))
	}
	order := driverRand().Perm(n) // lookups arrive in no table order
	start := time.Now()
	for i := 0; i < iters; i++ {
		want := order[i%n]
		if slot, ok := ix.Lookup(flows[want]); !ok || int(slot) != want {
			return 0, 0, fmt.Errorf("lookup of flow %d returned %d, %v", want, slot, ok)
		}
	}
	return iters, time.Since(start), nil
}

// conntabChurn deletes and re-inserts entries of a half-full 8192-flow
// table: one operation is one Delete plus one Insert.
func conntabChurn(iters int) (int, time.Duration, error) {
	const n = 8192
	flows := conntabFlows(n)
	ix := conntab.New(func(slot uint32) packet.Flow { return flows[slot] })
	for i := 0; i < n/2; i++ {
		ix.Insert(flows[i], uint32(i))
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		out, in := i%n, (i+n/2)%n
		ix.Delete(flows[out])
		ix.Insert(flows[in], uint32(in))
	}
	elapsed := time.Since(start)
	if ix.Len() != n/2 {
		return 0, 0, fmt.Errorf("table holds %d flows, want %d", ix.Len(), n/2)
	}
	return iters, elapsed, nil
}

// ---------------------------------------------------------------------
// netsim / fabric: frames of one MSS forwarded host to host, a fixed
// number kept in flight; one operation is one frame delivered, with all
// the events its journey takes.
// ---------------------------------------------------------------------

type fwdLoad struct {
	eng    *sim.Engine
	src    *netsim.Iface
	dstMAC packet.EtherAddr
	left   int
	got    int
}

func (l *fwdLoad) send() {
	p := packet.PoolOf(l.eng).Get()
	p.Eth = packet.Ethernet{Src: l.src.MAC, Dst: l.dstMAC, EtherType: packet.EtherTypeIPv4}
	p.IP = packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(10, 0, 0, 2)}
	// The source port walks so a fabric's ECMP stage spreads the frames.
	p.TCP = packet.TCP{SrcPort: uint16(l.left), DstPort: 9000, Flags: packet.FlagACK, WScale: -1}
	p.GrowPayload(1448)
	l.src.Send(netsim.FramesOf(l.eng).NewFrame(p, l.eng.Now()))
}

func (l *fwdLoad) recv(f *netsim.Frame) {
	packet.Release(f.Pkt)
	netsim.ReleaseFrame(f)
	l.got++
	if l.left > 0 {
		l.left--
		l.send()
	}
}

func (l *fwdLoad) run(dst *netsim.Iface, iters int) (int, time.Duration, error) {
	const inflight = 16
	dst.Recv = l.recv
	l.dstMAC = dst.MAC
	l.left = iters - inflight
	start := time.Now()
	for i := 0; i < inflight; i++ {
		l.send()
	}
	l.eng.Run()
	elapsed := time.Since(start)
	if l.got != iters {
		return 0, 0, fmt.Errorf("delivered %d of %d frames", l.got, iters)
	}
	return l.got, elapsed, nil
}

func netsimForward(iters int) (int, time.Duration, error) {
	eng := sim.New()
	n := netsim.NewNetwork(eng, netsim.SwitchConfig{Seed: 1})
	rate := netsim.GbpsToBytesPerSec(40)
	a := n.AttachHost("a", packet.MAC(2, 0, 0, 0, 0, 1), rate, 150*sim.Nanosecond)
	b := n.AttachHost("b", packet.MAC(2, 0, 0, 0, 0, 2), rate, 150*sim.Nanosecond)
	return (&fwdLoad{eng: eng, src: a}).run(b, iters)
}

func fabricForward(iters int) (int, time.Duration, error) {
	eng := sim.New()
	f := fabric.New(eng, fabric.Config{Leaves: 3, Spines: 2, Seed: 1})
	rate := netsim.GbpsToBytesPerSec(40)
	a := f.AttachHost(1, "a", packet.MAC(2, 0, 0, 0, 0, 1), rate, 0)
	b := f.AttachHost(2, "b", packet.MAC(2, 0, 0, 0, 0, 2), rate, 0)
	return (&fwdLoad{eng: eng, src: a}).run(b, iters)
}

// ---------------------------------------------------------------------
// nfp / host / sched: the processor models under a closed loop of tasks.
// ---------------------------------------------------------------------

// procLoad resubmits a task each time one completes.
type procLoad struct {
	submit func()
	left   int
	done   int
}

func procLoadDone(a any) {
	l := a.(*procLoad)
	l.done++
	if l.left > 0 {
		l.left--
		l.submit()
	}
}

func (l *procLoad) run(eng *sim.Engine, inflight, iters int) (int, time.Duration, error) {
	l.left = iters - inflight
	start := time.Now()
	for i := 0; i < inflight; i++ {
		l.submit()
	}
	eng.Run()
	elapsed := time.Since(start)
	if l.done != iters {
		return 0, 0, fmt.Errorf("completed %d of %d tasks", l.done, iters)
	}
	return l.done, elapsed, nil
}

func fpcTasks(iters int) (int, time.Duration, error) {
	eng := sim.New()
	cfg := nfp.AgilioCX40()
	fpc := nfp.NewFPC(eng, "fpc", &cfg)
	// A protocol-stage shape: compute, a memory stall, compute.
	task := sim.TaskC(60).Add(40, 100*sim.Nanosecond).Add(20, 0)
	l := &procLoad{}
	l.submit = func() { fpc.SubmitCall(task, procLoadDone, l) }
	return l.run(eng, 8, iters)
}

func dmaIssues(iters int) (int, time.Duration, error) {
	eng := sim.New()
	cfg := nfp.AgilioCX40()
	dma := nfp.NewDMAEngine(eng, &cfg)
	l := &procLoad{}
	l.submit = func() { dma.IssueCall(1448, procLoadDone, l) }
	return l.run(eng, 32, iters)
}

func coreTasks(iters int) (int, time.Duration, error) {
	eng := sim.New()
	core := host.NewCore(eng, "cpu0", 2e9)
	task := sim.TaskC(250).Add(100, 50*sim.Nanosecond)
	l := &procLoad{}
	l.submit = func() { core.SubmitCall(task, procLoadDone, l) }
	return l.run(eng, 4, iters)
}

// carouselLoad drives the flow scheduler the way the transmit pump does:
// every tick it makes a few flows eligible and drains whatever is due.
// Half of the 256 flows are paced; one operation is one flow popped.
type carouselLoad struct {
	eng    *sim.Engine
	c      *sched.Carousel
	next   uint32
	popped int
	want   int
}

func carouselTick(a any) {
	l := a.(*carouselLoad)
	for i := 0; i < 4; i++ {
		l.c.Submit(l.next % 256)
		l.next++
	}
	for {
		if _, ok := l.c.Next(1448); !ok {
			break
		}
		l.popped++
	}
	if l.popped < l.want {
		l.eng.AfterCall(200*sim.Nanosecond, carouselTick, l)
	}
}

func carousel(iters int) (int, time.Duration, error) {
	eng := sim.New()
	l := &carouselLoad{eng: eng, c: sched.New(eng, 100*sim.Nanosecond, 4096), want: iters}
	for id := uint32(0); id < 256; id += 2 {
		l.c.SetInterval(id, 300) // ps per byte: one MSS every 434 ns
	}
	eng.AfterCall(0, carouselTick, l)
	start := time.Now()
	eng.Run()
	return l.popped, time.Since(start), nil
}

// ---------------------------------------------------------------------
// flowmon: a sender-side tap's view of eight bulk flows. lossy re-sends
// every 16th segment and answers it with a duplicate ACK carrying a SACK
// block, so the retransmit classifier and scoreboard run.
// ---------------------------------------------------------------------

func flowmonObserve(iters int, lossy bool) (int, time.Duration, error) {
	const flows, mss = 8, 1448
	mon := flowmon.New(flowmon.Config{})
	data, ack := driverPacket(mss), driverPacket(0)
	ack.IP.Src, ack.IP.Dst = data.IP.Dst, data.IP.Src
	ack.TCP.Flags = packet.FlagACK
	seq := make([]uint32, flows)
	ops := 0
	start := time.Now()
	for i := 0; ops < iters; i++ {
		fl := i % flows
		at := sim.Time(i) * sim.Microsecond
		data.TCP.SrcPort, data.TCP.DstPort = uint16(40000+fl), 9000
		ack.TCP.SrcPort, ack.TCP.DstPort = 9000, uint16(40000+fl)
		data.TCP.Seq, data.TCP.TSVal = seq[fl]+1, uint32(i)
		mon.Observe(at, data)
		ops++
		ack.TCP.NumSACK = 0
		if lossy && (i/flows)%16 == 15 {
			// The segment is "lost": a duplicate ACK names the next one as
			// received out of order, then the retransmission goes out.
			ack.TCP.Ack = seq[fl] + 1
			ack.TCP.AddSACK(packet.SACKBlock{Start: seq[fl] + 1 + mss, End: seq[fl] + 1 + 2*mss})
			mon.Observe(at+100*sim.Nanosecond, ack)
			mon.Observe(at+200*sim.Nanosecond, data)
			ack.TCP.NumSACK = 0
			ops += 2
		}
		seq[fl] += mss
		ack.TCP.Ack, ack.TCP.TSEcr = seq[fl]+1, uint32(i)
		mon.Observe(at+300*sim.Nanosecond, ack)
		ops++
	}
	elapsed := time.Since(start)
	t := mon.Report().Totals()
	if lossy == (t.RetxSegs == 0) {
		return 0, 0, fmt.Errorf("analyzer counted %d retransmitted segments with lossy=%v", t.RetxSegs, lossy)
	}
	return ops, elapsed, nil
}

// ---------------------------------------------------------------------
// ebpf: the connection-splicing XDP program (Table 2) on a table hit.
// ---------------------------------------------------------------------

func ebpfRun(iters int) (int, time.Duration, error) {
	vm := ebpf.NewVM()
	tbl := ebpf.NewSpliceTable()
	prog, err := ebpf.SpliceProgram(vm, tbl)
	if err != nil {
		return 0, 0, err
	}
	p := driverPacket(64)
	key := ebpf.SpliceKey(uint32(p.IP.Src), uint32(p.IP.Dst), p.TCP.SrcPort, p.TCP.DstPort)
	val := ebpf.SpliceValue([6]byte{2, 0, 0, 0, 0, 3}, uint32(packet.IP(10, 0, 0, 3)), 6000, 8080, 111, 222)
	if err := tbl.Update(key, val); err != nil {
		return 0, 0, err
	}
	pristine := p.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
	frame := make([]byte, len(pristine))
	start := time.Now()
	for i := 0; i < iters; i++ {
		copy(frame, pristine) // the program rewrites the headers in place
		if _, err := vm.Run(prog, frame); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	if bytes.Equal(frame, pristine) {
		return 0, 0, fmt.Errorf("splice program left the frame untouched (table miss)")
	}
	return iters, elapsed, nil
}

// ---------------------------------------------------------------------
// scenario: spec in, payload out.
// ---------------------------------------------------------------------

// driverSpec is the spec the scenario and server drivers use: small
// enough to run in tens of milliseconds, with a tap and per-flow records
// so the readout and the NDJSON stream have something to carry.
const driverSpec = `{
  "name": "bench-driver",
  "seed": 155,
  "duration_us": 1500,
  "topology": {"kind": "testbed", "switch": {"loss_prob": 0.001}},
  "machines": [
    {"name": "server", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true},
    {"name": "client", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true}
  ],
  "workloads": [
    {"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 4}}
  ],
  "measure": {"flowmon": [{"machine": "client"}], "per_flow": true}
}`

func scenarioParse(iters int) (int, time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := scenario.Parse([]byte(driverSpec)); err != nil {
			return 0, 0, err
		}
	}
	return iters, time.Since(start), nil
}

func scenarioCanonical(iters int) (int, time.Duration, error) {
	res, err := scenario.Run([]byte(driverSpec), nil)
	if err != nil {
		return 0, 0, err
	}
	n := 0
	start := time.Now()
	for i := 0; i < iters; i++ {
		n += len(res.Canonical())
	}
	elapsed := time.Since(start)
	if n == 0 {
		return 0, 0, fmt.Errorf("empty canonical payload")
	}
	return iters, elapsed, nil
}
