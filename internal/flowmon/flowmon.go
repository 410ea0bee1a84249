// Package flowmon is a streaming per-flow TCP analyzer: it reconstructs
// flow state passively from raw packets observed at any tap point — a
// netsim interface tap, a core.TOE packet tap, or a pcap capture — the
// way operators debug offload stacks they cannot instrument (§5.1's
// observability story, productionized in the style of m-lab/etl's
// tcp.Tracker).
//
// The analyzer computes, online and in one pass, per directed flow and
// fleet-wide: RTT samples (timestamp echoes and SEQ/ACK matching),
// retransmitted segments and bytes split into go-back-N rewinds versus
// selective repairs by SACK-scoreboard inference (the m-lab SendNext
// model), out-of-order arrivals and reassembly-hole depth via exact
// re-execution of the stack's interval-set machinery, duplicate-ACK runs,
// zero-window stalls, ECN mark rates, and acknowledged-byte goodput.
//
// Contracts (doc.go "Passive flow analysis"):
//
//   - Observation only: the analyzer never takes ownership of frames or
//     packets and charges zero simulated cost; the packet is valid only
//     for the duration of the Observe call.
//   - Zero allocations per packet in steady state (CI-gated at <= 2):
//     flow state lives in fixed 64-entry blocks behind a conntab flow
//     index — the PR-8 slab idiom — with first-seen-order readout, and
//     every per-flow structure is fixed-size.
//   - Deterministic: same packet stream, same report, bit for bit; one
//     analyzer per tap keeps state unshared, and Fleet merges analyzer
//     reports at readout in attach order.
//
// Inference tolerances — what a passive observer provably cannot see —
// are documented on Report and asserted by the xval cross-validation
// harness (internal/flowmon/xval).
package flowmon

import (
	"unsafe"

	"flextoe/internal/conntab"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
	"flextoe/internal/tcpseg"
)

// DupAckRule selects which stack's duplicate-ACK definition the analyzer
// reproduces. Both require a pure ACK (no payload) repeating the highest
// cumulative ack with data outstanding; they differ in the guards around
// it.
type DupAckRule int

const (
	// DupAckFlexTOE mirrors tcpseg.ProcessRX: the advertised window must
	// be unchanged from the previous segment of the same direction (a
	// changed window is a window update, not a dupack) and FIN-flagged
	// segments never count.
	DupAckFlexTOE DupAckRule = iota
	// DupAckBaseline mirrors the baseline host stacks, which count every
	// pure repeated ACK while data is outstanding, window and FIN
	// notwithstanding.
	DupAckBaseline
)

// Analyzer sizing constants.
const (
	blockSize = 64 // flow states per slab block (conntab idiom)
	oooMax    = 32 // interval backing capacity (Linux's reassembly cap)
	ringN     = 8  // in-flight RTT probes tracked per flow
)

// Config parameterizes an Analyzer. The zero value is usable: defaults
// are applied by New.
type Config struct {
	// MaxFlows bounds the directed-flow table (default 8192). Packets of
	// flows beyond the budget are counted in FlowsDropped and otherwise
	// ignored — fixed memory no matter the fleet size.
	MaxFlows int
	// OOOCap is the reassembly interval-set capacity of the observed
	// receiver (FlexTOE: the connection's OOOCap; Linux: 32; TAS: 1),
	// driving the exact re-execution of its accept/drop decisions.
	// Negative means no reassembly at all — every out-of-order arrival
	// drops (the Chelsio discard profile). Default
	// tcpseg.MaxOOOIntervals; capped at 32.
	OOOCap int
	// DupAck selects the observed stack's duplicate-ACK definition.
	DupAck DupAckRule
	// RTTMaxUs is the top bucket of the RTT histograms in microseconds
	// (default 4096; larger samples clamp).
	RTTMaxUs int
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.MaxFlows <= 0 {
		d.MaxFlows = 8192
	}
	if d.OOOCap == 0 {
		d.OOOCap = tcpseg.MaxOOOIntervals
	}
	if d.OOOCap > oooMax {
		d.OOOCap = oooMax
	}
	if d.RTTMaxUs <= 0 {
		d.RTTMaxUs = 4096
	}
	return d
}

// seqProbe is one in-flight RTT probe: a segment end (or timestamp
// value) mapped to its observation time.
type seqProbe struct {
	key uint32 // segment end sequence, or TSVal
	at  sim.Time
}

// flowState flags.
const (
	fsSndInit = 1 << iota // sndHigh valid
	fsRcvInit             // rcvNxt valid
	fsHaveAck             // una valid (first ack from peer seen)
	fsHaveWin             // lastWin valid
	fsZeroWin             // currently advertising a zero window
)

// flowState is the fixed-size per-directed-flow record. The "sender
// role" fields describe data this flow carries (flow.Src -> flow.Dst);
// ack-borne updates to them arrive on packets of the reverse flow.
type flowState struct {
	flow    packet.Flow
	flags   uint8
	lastWin uint16 // last raw advertised window (dupack window check)

	firstAt, lastAt sim.Time

	// Sender role: SendNext model.
	sndHigh uint32 // highest payload end ever on the wire (SND.MAX)
	una     uint32 // highest cumulative ack seen for this flow's data

	dupAcks   uint64
	dupRun    uint32
	dupRunMax uint32

	retxSegs, retxBytes       uint64
	retxGBNSegs, retxGBNBytes uint64
	retxSelSegs, retxSelBytes uint64

	// Peer-held ranges of this flow's data, fed by SACK blocks on
	// reverse-direction packets (the classification scoreboard).
	sack    [oooMax]tcpseg.SeqInterval
	sackCnt uint8
	// peer is the reverse flow's slot+1 (0 = not linked yet), set the
	// first time a packet finds both records, so a tap probes the index
	// once per packet. Records are never deleted, so the link never goes
	// stale. It sits in sackCnt's padding: the record does not grow.
	peer uint32

	// RTT probes: unretransmitted segment ends, and timestamp values.
	seqRing   [ringN]seqProbe
	seqLen    uint8
	tsRing    [ringN]seqProbe
	tsLen     uint8
	lastTSVal uint32

	rttMinUs uint32
	rttMaxUs uint32
	rttSumUs uint64
	rttN     uint64

	ackedBytes uint64

	// Receiver role: exact re-execution of the observed receiver's
	// reassembly decisions for this flow's data.
	rcvNxt     uint32
	ooo        [oooMax]tcpseg.SeqInterval
	oooCnt     uint8
	oooAccepts uint64
	oooDrops   uint64
	oooMerges  uint64

	// Events.
	pkts, dataSegs  uint64
	cePkts, ecePkts uint64
	zeroWinEvents   uint64
	zeroWinStall    sim.Time
	zeroSince       sim.Time
}

// Analyzer is one streaming tap analyzer. Not safe for concurrent use:
// attach one analyzer per tap point, merge with a Fleet.
type Analyzer struct {
	cfg Config

	idx    *conntab.Index
	blocks [][]flowState
	n      uint32 // flows tracked; slots are handed out in first-seen order, never freed

	// Fleet-wide statistics.
	Pkts         uint64 // packets observed
	NonTCP       uint64 // non-TCP packets skipped
	FlowsDropped uint64 // packets ignored because the flow table was full

	rttHist  *stats.LinearHist // all RTT samples, microseconds
	oooDepth *stats.LinearHist // interval-set size at each reassembly event
}

// New builds an analyzer.
func New(cfg Config) *Analyzer {
	a := &Analyzer{cfg: cfg.withDefaults()}
	a.idx = conntab.New(func(slot uint32) packet.Flow { return a.at(slot).flow })
	a.rttHist = stats.NewLinearHist(a.cfg.RTTMaxUs)
	a.oooDepth = stats.NewLinearHist(oooMax)
	return a
}

// at returns the flow state in a slot (which must be live).
func (a *Analyzer) at(slot uint32) *flowState {
	return &a.blocks[slot/blockSize][slot%blockSize]
}

// NumFlows returns the number of directed flows tracked.
func (a *Analyzer) NumFlows() int { return int(a.n) }

// MemBytes reports the flow-table footprint: slab blocks plus the
// flow-hash index — the fixed budget a million-flow fleet analyzes in.
func (a *Analyzer) MemBytes() int {
	stateSize := int(unsafe.Sizeof(flowState{}))
	return len(a.blocks)*blockSize*stateSize + a.idx.MemBytes()
}

// state looks up or creates the directed-flow record of f, whose hash h
// the caller read off the packet. Returns the record's slot and nil when
// the flow table is at its budget.
func (a *Analyzer) state(f packet.Flow, h uint32, at sim.Time) (uint32, *flowState) {
	if slot, ok := a.idx.LookupHash(f, h); ok {
		return slot, a.at(slot)
	}
	if int(a.n) >= a.cfg.MaxFlows {
		return 0, nil
	}
	slot := a.n
	if int(slot)/blockSize >= len(a.blocks) {
		a.blocks = append(a.blocks, make([]flowState, blockSize))
	}
	fs := a.at(slot)
	*fs = flowState{flow: f, firstAt: at, rttMinUs: ^uint32(0)}
	a.idx.Insert(f, slot)
	a.n++
	return slot, fs
}

// Observe analyzes one packet. It never retains pkt or any slice of it.
func (a *Analyzer) Observe(at sim.Time, pkt *packet.Packet) {
	a.Pkts++
	if pkt.IP.Protocol != packet.ProtoTCP {
		a.NonTCP++
		return
	}
	flow := pkt.Flow()
	slot, fs := a.state(flow, pkt.FlowHash(), at)
	var rs *flowState
	switch {
	case fs == nil:
		// At the budget nothing is created, so there is no reverse
		// record to look up for a packet that is dropped anyway.
	case fs.peer != 0:
		rs = a.at(fs.peer - 1)
	default:
		var rslot uint32
		if rslot, rs = a.state(flow.Reverse(), pkt.RevFlowHash(), at); rs != nil {
			fs.peer, rs.peer = rslot+1, slot+1
		}
	}
	if rs == nil {
		a.FlowsDropped++
		return
	}
	tcp := &pkt.TCP
	payLen := uint32(len(pkt.Payload))

	fs.pkts++
	fs.lastAt = at
	if pkt.IP.ECN() == packet.ECNCE {
		fs.cePkts++
	}
	if tcp.Flags&packet.FlagECE != 0 {
		fs.ecePkts++
	}
	if tcp.Flags&packet.FlagRST != 0 {
		return
	}
	syn := tcp.Flags&packet.FlagSYN != 0
	if syn {
		// SYN / SYN-ACK: establish both roles' sequence base. Data (and
		// the peer's expected sequence) starts one past the SYN. A
		// SYN-ACK also anchors the reverse flow's cumulative-ack point so
		// the first data ack registers as an advance, not a baseline.
		fs.sndHigh = tcp.Seq + 1
		fs.rcvNxt = tcp.Seq + 1
		fs.flags |= fsSndInit | fsRcvInit
		if tcp.Flags&packet.FlagACK != 0 && rs.flags&fsHaveAck == 0 {
			rs.una = tcp.Ack
			rs.flags |= fsHaveAck
		}
		return
	}

	if tcp.HasTimestamp && tcp.TSVal != fs.lastTSVal {
		fs.lastTSVal = tcp.TSVal
		pushProbe(fs.tsRing[:], &fs.tsLen, tcp.TSVal, at)
	}

	// Zero-window tracking for the window this packet advertises.
	if tcp.Window == 0 {
		if fs.flags&fsZeroWin == 0 {
			fs.flags |= fsZeroWin
			fs.zeroWinEvents++
			fs.zeroSince = at
		}
	} else if fs.flags&fsZeroWin != 0 {
		fs.flags &^= fsZeroWin
		fs.zeroWinStall += at - fs.zeroSince
	}

	if tcp.Flags&packet.FlagACK != 0 {
		a.observeAck(at, fs, rs, tcp, payLen)
	}

	if payLen > 0 {
		a.observeData(at, fs, tcp, payLen)
	}

	fs.lastWin = tcp.Window
	fs.flags |= fsHaveWin
}

// observeAck applies the ACK-borne fields of a packet in direction fs to
// the reverse flow rs — the sender of the data being acknowledged.
func (a *Analyzer) observeAck(at sim.Time, fs, rs *flowState, tcp *packet.TCP, payLen uint32) {
	ack := tcp.Ack
	sampled := false
	switch {
	case rs.flags&fsHaveAck == 0:
		rs.una = ack
		rs.flags |= fsHaveAck
	case tcpseg.SeqGT(ack, rs.una):
		// Cumulative advance: credit goodput and harvest RTT probes.
		if rs.flags&fsSndInit != 0 {
			acked := tcpseg.SeqDiff(tcpseg.SeqMin(ack, rs.sndHigh), rs.una)
			if acked > 0 {
				rs.ackedBytes += uint64(acked)
			}
		}
		sampled = a.harvestSeqProbes(rs, ack, at)
		rs.una = ack
		rs.dupRun = 0
		rs.trimSACK()
	case ack == rs.una && payLen == 0 && rs.outstanding() && a.dupAckGuards(fs, tcp):
		rs.dupAcks++
		rs.dupRun++
		if rs.dupRun > rs.dupRunMax {
			rs.dupRunMax = rs.dupRun
		}
	}

	// SACK blocks describe data of the reverse flow: scoreboard them.
	for i := uint8(0); i < tcp.NumSACK; i++ {
		b := tcp.SACKBlocks[i]
		if rs.flags&fsSndInit != 0 {
			if tcpseg.SeqLT(b.Start, rs.una) {
				b.Start = rs.una
			}
			if tcpseg.SeqGT(b.End, rs.sndHigh) {
				b.End = rs.sndHigh
			}
		}
		if tcpseg.SeqGEQ(b.Start, b.End) {
			continue
		}
		ivs, _ := tcpseg.InsertSeqInterval(rs.sack[:rs.sackCnt],
			tcpseg.SeqInterval{Start: b.Start, End: b.End}, oooMax)
		rs.sackCnt = uint8(copy(rs.sack[:], ivs))
	}

	// Timestamp-echo RTT, when SEQ/ACK matching yielded nothing (Karn
	// invalidation, ring overflow): the echo names the send instance.
	if !sampled && tcp.HasTimestamp && tcp.TSEcr != 0 {
		if probeAt, ok := takeProbe(rs.tsRing[:], &rs.tsLen, tcp.TSEcr); ok {
			a.recordRTT(rs, at-probeAt)
		}
	}
}

// dupAckGuards applies the configured stack's extra duplicate-ACK
// conditions to the packet (direction fs) carrying the candidate ack.
func (a *Analyzer) dupAckGuards(fs *flowState, tcp *packet.TCP) bool {
	if a.cfg.DupAck == DupAckBaseline {
		return true
	}
	// FlexTOE: window unchanged from this direction's previous segment,
	// and never on a FIN.
	return fs.flags&fsHaveWin != 0 && tcp.Window == fs.lastWin &&
		tcp.Flags&packet.FlagFIN == 0
}

// outstanding reports whether the flow has sent data not yet
// cumulatively acknowledged.
func (fs *flowState) outstanding() bool {
	return fs.flags&fsSndInit != 0 && tcpseg.SeqGT(fs.sndHigh, fs.una)
}

// trimSACK drops scoreboard coverage at or below the cumulative ack.
func (fs *flowState) trimSACK() {
	ivs := fs.sack[:fs.sackCnt]
	for len(ivs) > 0 && tcpseg.SeqLEQ(ivs[0].End, fs.una) {
		ivs = ivs[1:]
	}
	if len(ivs) > 0 && tcpseg.SeqLT(ivs[0].Start, fs.una) {
		ivs[0].Start = fs.una
	}
	fs.sackCnt = uint8(copy(fs.sack[:], ivs))
}

// observeData applies a payload-bearing segment to its own flow's sender
// role (retransmit inference) and receiver role (reassembly emulation).
func (a *Analyzer) observeData(at sim.Time, fs *flowState, tcp *packet.TCP, payLen uint32) {
	s := tcp.Seq
	e := s + payLen
	fs.dataSegs++

	if fs.flags&fsSndInit == 0 {
		// Mid-stream attach (no SYN observed): the first data segment
		// defines the base; it cannot be classified as a retransmit.
		fs.sndHigh = s
		fs.flags |= fsSndInit
	}

	// SendNext retransmit criterion: any payload byte below the sent
	// high-water mark has been on the wire before.
	if tcpseg.SeqLT(s, fs.sndHigh) {
		over := uint32(tcpseg.SeqDiff(fs.sndHigh, s))
		if over > payLen {
			over = payLen
		}
		fs.retxSegs++
		fs.retxBytes += uint64(over)
		if fs.classifySelective(s, e) {
			fs.retxSelSegs++
			fs.retxSelBytes += uint64(over)
		} else {
			fs.retxGBNSegs++
			fs.retxGBNBytes += uint64(over)
		}
		// Karn: retransmission makes every in-flight SEQ probe
		// ambiguous, and the re-sent range's timestamp too. Earlier
		// timestamp probes stay valid — echoes name the send instance.
		fs.seqLen = 0
		dropProbe(fs.tsRing[:], &fs.tsLen, tcp.TSVal)
	} else {
		pushProbe(fs.seqRing[:], &fs.seqLen, e, at)
	}
	if tcpseg.SeqGT(e, fs.sndHigh) {
		fs.sndHigh = e
	}

	a.emulateReceiver(fs, s, e)
}

// classifySelective infers whether a retransmitted range [s, e) is a
// selective repair — it fills a reported hole without re-covering data
// the peer already holds — or a go-back-N-style rewind (timeout, head
// blast, or recovery without scoreboard knowledge). The m-lab SendNext
// model: with no SACK evidence every retransmit is a rewind.
func (fs *flowState) classifySelective(s, e uint32) bool {
	if fs.sackCnt == 0 {
		return false
	}
	for i := uint8(0); i < fs.sackCnt; i++ {
		iv := fs.sack[i]
		if tcpseg.SeqLT(s, iv.End) && tcpseg.SeqGT(e, iv.Start) {
			return false // re-sending data the peer reported holding
		}
	}
	// Repairs only count below the highest reported block: beyond it the
	// sender is not filling a known hole.
	return tcpseg.SeqLT(s, fs.sack[fs.sackCnt-1].End)
}

// emulateReceiver re-executes the observed receiver's reassembly
// decision for [s, e) with the configured interval capacity — exactly
// the tcpseg.ProcessRX / baseline receivePayload logic minus the
// receive-window trim (a passive observer cannot see buffer occupancy;
// see the Report tolerance notes).
func (a *Analyzer) emulateReceiver(fs *flowState, s, e uint32) {
	if fs.flags&fsRcvInit == 0 {
		fs.rcvNxt = s
		fs.flags |= fsRcvInit
	}
	if tcpseg.SeqLT(s, fs.rcvNxt) {
		if tcpseg.SeqLEQ(e, fs.rcvNxt) {
			return // stale duplicate: nothing accepted
		}
		s = fs.rcvNxt
	}
	if s == fs.rcvNxt {
		ivs, newAck, merged := tcpseg.MergeAdvance(fs.ooo[:fs.oooCnt], e)
		fs.rcvNxt = newAck
		fs.oooCnt = uint8(copy(fs.ooo[:], ivs))
		if merged > 0 {
			fs.oooMerges += uint64(merged)
			a.oooDepth.Record(int(fs.oooCnt))
		}
		return
	}
	ivs, ir := tcpseg.InsertSeqInterval(fs.ooo[:fs.oooCnt],
		tcpseg.SeqInterval{Start: s, End: e}, a.cfg.OOOCap)
	fs.oooCnt = uint8(copy(fs.ooo[:], ivs))
	if ir.Accepted {
		fs.oooAccepts++
		fs.oooMerges += uint64(ir.Merged)
	} else {
		fs.oooDrops++
	}
	a.oooDepth.Record(int(fs.oooCnt))
}

// harvestSeqProbes samples RTT for every in-flight probe the cumulative
// ack covers, reporting whether any sample was taken.
func (a *Analyzer) harvestSeqProbes(fs *flowState, ack uint32, at sim.Time) bool {
	sampled := false
	n := fs.seqLen
	var keep uint8
	for i := uint8(0); i < n; i++ {
		p := fs.seqRing[i]
		if tcpseg.SeqLEQ(p.key, ack) {
			a.recordRTT(fs, at-p.at)
			sampled = true
			continue
		}
		fs.seqRing[keep] = p
		keep++
	}
	fs.seqLen = keep
	return sampled
}

// recordRTT folds one sample into the flow and fleet statistics.
func (a *Analyzer) recordRTT(fs *flowState, d sim.Time) {
	if d < 0 {
		return
	}
	us := uint64(d / sim.Microsecond)
	fs.rttN++
	fs.rttSumUs += us
	u := uint32(us)
	if us > uint64(^uint32(0)) {
		u = ^uint32(0)
	}
	if u < fs.rttMinUs {
		fs.rttMinUs = u
	}
	if u > fs.rttMaxUs {
		fs.rttMaxUs = u
	}
	a.rttHist.Record(int(us))
}

// pushProbe appends to a fixed probe ring, evicting the oldest entry
// when full (a lost sample, never a wrong one).
func pushProbe(ring []seqProbe, n *uint8, key uint32, at sim.Time) {
	if int(*n) == len(ring) {
		copy(ring, ring[1:])
		*n--
	}
	ring[*n] = seqProbe{key: key, at: at}
	*n++
}

// dropProbe removes the probe matching key, if any, keeping every other
// entry (invalidation, not harvesting).
func dropProbe(ring []seqProbe, n *uint8, key uint32) {
	for i := uint8(0); i < *n; i++ {
		if ring[i].key == key {
			copy(ring[i:], ring[i+1:int(*n)])
			*n--
			return
		}
	}
}

// takeProbe removes and returns the probe matching key, discarding
// older entries (first-echo semantics).
func takeProbe(ring []seqProbe, n *uint8, key uint32) (sim.Time, bool) {
	for i := uint8(0); i < *n; i++ {
		if ring[i].key == key {
			at := ring[i].at
			k := copy(ring, ring[i+1:int(*n)])
			*n = uint8(k)
			return at, true
		}
	}
	return 0, false
}
