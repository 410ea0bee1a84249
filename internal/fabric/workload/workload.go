// Package workload drives datacenter traffic patterns over any api.Stack:
// an open-loop flow generator with Poisson arrivals and pluggable flow
// size distributions (fixed, web-search and data-mining heavy tails),
// and N-to-1 incast groups with barrier-synchronized rounds. Workloads
// speak only api.Stack/api.Socket, so FlexTOE, Linux-, TAS- and
// Chelsio-personality machines run them unmodified over the
// single-switch testbed or the leaf–spine fabric.
//
// Every piece of mutable workload state belongs to exactly one machine.
// The generator keeps per-connection arrival streams on each sender, flow
// metadata travels inside the flow header
// (12 bytes: [arrival:8][size:4]) so the sink computes FCT from its own
// clock, and measurement accumulates per sink/per connection, merged
// deterministically at readout (the accessor methods). The incast
// aggregator owns all round state and triggers each round by writing one
// byte down every sender connection — the reply blocks are what incasts.
//
// Flows are multiplexed over a pool of persistent connections (datacenter
// RPC style, and the regime FlexTOE's Table 5 state budget targets); FCT
// runs from the flow's *arrival* at the generator — queueing for a busy
// connection counts against FCT, as in slowdown-style evaluations.
package workload

import (
	"encoding/binary"
	"math"

	"flextoe/internal/api"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// ---------------------------------------------------------------------
// Flow-size distributions.
// ---------------------------------------------------------------------

// SizeDist samples flow sizes in bytes. Implementations are immutable, so
// one distribution may be shared by every per-connection sampler.
type SizeDist interface {
	Name() string
	Sample(r *stats.RNG) int
}

// fixedDist is a degenerate point mass.
type fixedDist int

func (d fixedDist) Name() string          { return "fixed" }
func (d fixedDist) Sample(*stats.RNG) int { return int(d) }
func Fixed(bytes int) SizeDist            { return fixedDist(bytes) }

type cdfPoint struct {
	bytes float64
	cum   float64
}

// cdfDist samples from an empirical CDF with log-linear interpolation
// between the tabulated points (sizes span five orders of magnitude, so
// linear interpolation would put nearly all mass at the segment tops).
type cdfDist struct {
	name string
	pts  []cdfPoint
}

func (d *cdfDist) Name() string { return d.name }

func (d *cdfDist) Sample(r *stats.RNG) int {
	u := r.Float64()
	prev := cdfPoint{bytes: d.pts[0].bytes, cum: 0}
	for _, p := range d.pts {
		if u <= p.cum {
			if p.cum == prev.cum || p.bytes == prev.bytes {
				return int(p.bytes)
			}
			frac := (u - prev.cum) / (p.cum - prev.cum)
			return int(prev.bytes * math.Pow(p.bytes/prev.bytes, frac))
		}
		prev = p
	}
	return int(d.pts[len(d.pts)-1].bytes)
}

// WebSearch approximates the DCTCP web-search workload: query/short-
// message dominated by count, with a heavy tail of multi-megabyte
// responses carrying most of the bytes.
func WebSearch() SizeDist {
	return &cdfDist{name: "websearch", pts: []cdfPoint{
		{6e3, 0.15}, {13e3, 0.20}, {19e3, 0.30}, {33e3, 0.40},
		{53e3, 0.53}, {133e3, 0.60}, {667e3, 0.70}, {1.3e6, 0.80},
		{3.3e6, 0.90}, {6.7e6, 0.95}, {20e6, 0.98}, {30e6, 1.0},
	}}
}

// DataMining approximates the VL2 data-mining workload: ~80% of flows
// under 10 KB, with a far heavier tail than web-search.
func DataMining() SizeDist {
	return &cdfDist{name: "datamining", pts: []cdfPoint{
		{180, 0.10}, {216, 0.20}, {560, 0.30}, {900, 0.40},
		{1.1e3, 0.50}, {1.87e3, 0.60}, {3.16e3, 0.70}, {1e4, 0.80},
		{4e5, 0.90}, {3.16e6, 0.95}, {1e8, 0.98}, {1e9, 1.0},
	}}
}

// flowHdrLen is the per-flow wire header: the flow's arrival instant (8)
// and its payload size (4). Carrying the arrival timestamp on the wire is
// what lets the sink compute FCT from its own clock without reaching into
// generator state.
const flowHdrLen = 12

// ---------------------------------------------------------------------
// Open-loop flow generator.
// ---------------------------------------------------------------------

// FlowGen issues flows open-loop: Poisson arrivals at Rate flows/second
// in aggregate, each flow Size.Sample bytes, over a pool of persistent
// connections. Serve installs the sink side (callable on several
// machines); Start opens the connections and begins arrivals.
//
// Each connection runs an independent Poisson stream at Rate/Conns with
// its own RNG — a superposition distributionally identical to one
// round-robin Poisson process, but with every arrival event confined to
// the sending machine. Measurement state is per connection and
// per sink; the accessor methods (Started, Completed, FCT, ...) merge it
// in deterministic construction order, so call them only between runs.
type FlowGen struct {
	Rate     float64  // aggregate flow arrivals per second
	Size     SizeDist // flow size distribution
	Conns    int      // connection pool size (default: one per sender)
	MaxFlows int      // stop generating after this many arrivals (0 = never)
	Seed     uint64

	conns []*genConn
	sinks []*flowSink
}

type pendingFlow struct {
	start     sim.Time
	remaining int
	hdrLeft   int
}

// genConn is one sender connection: its machine's engine, its own RNG,
// arrival stream, and flow queue. All fields are touched only by events on eng.
type genConn struct {
	g        *FlowGen
	eng      *sim.Engine
	rng      *stats.RNG
	rate     float64 // this connection's arrival rate
	maxFlows int     // this connection's share of MaxFlows (0 = unlimited)
	started  uint64
	sock     api.Socket
	pending  []pendingFlow
	head     int
	hdr      [flowHdrLen]byte
}

// flowSink accumulates one Serve call's measurement on that machine.
type flowSink struct {
	eng            *sim.Engine
	fct            *stats.Histogram
	completed      uint64
	bytesCompleted uint64
}

// Serve installs the flow sink on a stack port. Call before Start; may be
// called on multiple machines (the generator spreads connections over all
// targets passed to Start).
func (g *FlowGen) Serve(stack api.Stack, port uint16) {
	sk := &flowSink{eng: stack.Engine(), fct: stats.NewHistogram()}
	g.sinks = append(g.sinks, sk)
	stack.Listen(port, func(sock api.Socket) {
		sc := &sinkConn{sk: sk, sock: sock}
		sock.OnReadable(sc.drain)
	})
}

// Start opens the connection pool (connection i: senders[i%len] →
// targets[i%len]) and starts each connection's arrival stream.
func (g *FlowGen) Start(senders []api.Stack, targets ...api.Addr) {
	if g.Conns <= 0 {
		g.Conns = len(senders)
	}
	for i := 0; i < g.Conns; i++ {
		stack := senders[i%len(senders)]
		gc := &genConn{
			g:    g,
			eng:  stack.Engine(),
			rng:  stats.NewRNG(g.Seed ^ 0xf10a6e ^ uint64(i+1)*0x9e3779b97f4a7c15),
			rate: g.Rate / float64(g.Conns),
		}
		if g.MaxFlows > 0 {
			// Split MaxFlows evenly, remainder to the first connections.
			gc.maxFlows = g.MaxFlows / g.Conns
			if i < g.MaxFlows%g.Conns {
				gc.maxFlows++
			}
		}
		g.conns = append(g.conns, gc)
		target := targets[i%len(targets)]
		stack.Dial(target, func(sock api.Socket) {
			gc.sock = sock
			sock.OnWritable(gc.pump)
			gc.pump()
		})
		gc.scheduleArrival()
	}
}

func (gc *genConn) scheduleArrival() {
	if gc.maxFlows > 0 && int(gc.started) >= gc.maxFlows {
		return
	}
	if gc.g.MaxFlows > 0 && gc.maxFlows == 0 {
		return // this connection has no share of the bounded flow budget
	}
	gap := sim.Time(gc.rng.Exp(1e12 / gc.rate))
	//flexvet:unowned a workload generator's arrival process stands outside the modelled machines
	gc.eng.AfterCall(gap, genConnArrive, gc)
}

// genConnArrive fires one Poisson arrival on this connection and rearms
// (allocation-free per arrival; see sim.Engine.AfterCall).
func genConnArrive(a any) {
	gc := a.(*genConn)
	gc.arrive()
	gc.scheduleArrival()
}

// arrive admits one flow: sample a size, stamp the arrival, enqueue.
func (gc *genConn) arrive() {
	size := gc.g.Size.Sample(gc.rng)
	if size < 1 {
		size = 1
	}
	gc.started++
	gc.pending = append(gc.pending, pendingFlow{
		start:     gc.eng.Now(),
		remaining: size,
		hdrLeft:   flowHdrLen,
	})
	gc.pump()
}

// pump pushes the head flow's header and payload into the socket until
// the buffer fills or the queue drains. The 12-byte header is staged
// directly in the transmit ring via Reserve/Commit; the payload is
// content-ignored padding, committed without staging.
func (gc *genConn) pump() {
	if gc.sock == nil {
		return
	}
	for gc.head < len(gc.pending) {
		f := &gc.pending[gc.head]
		if f.hdrLeft > 0 {
			binary.BigEndian.PutUint64(gc.hdr[0:8], uint64(f.start))
			binary.BigEndian.PutUint32(gc.hdr[8:12], uint32(f.remaining))
			a, b := gc.sock.Reserve(f.hdrLeft)
			w := api.ViewLen(a, b)
			if w == 0 {
				return
			}
			api.ViewCopyIn(a, b, 0, gc.hdr[flowHdrLen-f.hdrLeft:flowHdrLen-f.hdrLeft+w])
			gc.sock.Commit(w)
			f.hdrLeft -= w
			if f.hdrLeft > 0 {
				return
			}
		}
		for f.remaining > 0 {
			w := gc.sock.TxSpace()
			if w == 0 {
				return
			}
			if w > f.remaining {
				w = f.remaining
			}
			gc.sock.Commit(w)
			f.remaining -= w
		}
		gc.pending[gc.head] = pendingFlow{}
		gc.head++
		if gc.head == len(gc.pending) {
			gc.pending = gc.pending[:0]
			gc.head = 0
		}
	}
}

// sinkConn parses one connection's flow stream in place.
type sinkConn struct {
	sk        *flowSink
	sock      api.Socket
	hdr       [flowHdrLen]byte
	start     sim.Time
	size      int
	remaining int
}

func (sc *sinkConn) drain() {
	sk := sc.sk
	a, b := sc.sock.Peek()
	total := api.ViewLen(a, b)
	pos := 0
	for pos < total {
		if sc.remaining == 0 {
			if total-pos < flowHdrLen {
				// A split header stays unconsumed in the ring until the
				// rest arrives.
				break
			}
			api.ViewCopyOut(sc.hdr[:], a, b, pos)
			sc.start = sim.Time(binary.BigEndian.Uint64(sc.hdr[0:8]))
			sc.size = int(binary.BigEndian.Uint32(sc.hdr[8:12]))
			sc.remaining = sc.size
			pos += flowHdrLen
			continue
		}
		k := total - pos
		if k > sc.remaining {
			k = sc.remaining
		}
		sc.remaining -= k
		pos += k
		if sc.remaining == 0 {
			now := sk.eng.Now()
			sk.completed++
			sk.bytesCompleted += uint64(sc.size)
			sk.fct.Record(int64(now - sc.start))
		}
	}
	if pos > 0 {
		sc.sock.Consume(pos)
	}
}

// ResetMeasurement clears the generator's measurement state — admitted
// and completed counts, byte totals, and the per-sink FCT histograms —
// without touching the arrival streams. Call it only while the
// simulation is quiescent (the warmup boundary); in-flight flows then
// count toward the post-reset window.
func (g *FlowGen) ResetMeasurement() {
	for _, gc := range g.conns {
		gc.started = 0
	}
	for _, sk := range g.sinks {
		sk.fct = stats.NewHistogram()
		sk.completed = 0
		sk.bytesCompleted = 0
	}
}

// Started returns the number of flows admitted, merged across
// connections. Readout methods merge per-connection and per-sink state in
// construction order; call them only while the simulation is quiescent.
func (g *FlowGen) Started() uint64 {
	var n uint64
	for _, gc := range g.conns {
		n += gc.started
	}
	return n
}

// Completed returns the number of flows fully received, merged across
// sinks.
func (g *FlowGen) Completed() uint64 {
	var n uint64
	for _, sk := range g.sinks {
		n += sk.completed
	}
	return n
}

// BytesCompleted returns the payload bytes of completed flows.
func (g *FlowGen) BytesCompleted() uint64 {
	var n uint64
	for _, sk := range g.sinks {
		n += sk.bytesCompleted
	}
	return n
}

// FCT returns the flow-completion-time histogram (picoseconds, arrival →
// last byte at sink), merged across sinks in construction order.
func (g *FlowGen) FCT() *stats.Histogram {
	h := stats.NewHistogram()
	for _, sk := range g.sinks {
		h.Merge(sk.fct)
	}
	return h
}

// Done reports whether every generated flow has completed (meaningful
// once MaxFlows bounded the arrival process).
func (g *FlowGen) Done() bool {
	return g.MaxFlows > 0 && int(g.Completed()) >= g.MaxFlows
}

// ---------------------------------------------------------------------
// N-to-1 incast.
// ---------------------------------------------------------------------

// IncastGroup drives barrier-synchronized incast: each round the
// aggregator writes one trigger byte down every sender connection (in
// accept order); each sender answers with BlockBytes; the round completes
// when the aggregator holds all N×BlockBytes, and the next round starts
// immediately (the classic partition/aggregate request → responses
// pattern). Round FCT is the trigger-to-last-byte time, so it includes
// the request's one-way latency.
//
// All round and measurement state lives on the aggregator; the
// only sender-side state is each connection's outstanding byte count, fed
// by the trigger bytes. BlockBytes and Rounds are immutable once Start is
// called.
type IncastGroup struct {
	BlockBytes int // per-sender bytes per round
	Rounds     int // stop after this many rounds (0 = run until sim end)

	// Measurement — owned by the aggregator; read between runs.
	RoundsDone    uint64
	BytesReceived uint64
	RoundFCT      *stats.Histogram // picoseconds
	LastDone      sim.Time

	eng        *sim.Engine // aggregator's engine (set by Serve)
	conns      []*incastConn
	want       int
	pending    int
	roundStart sim.Time
	running    bool
}

// incastConn is one accepted sender connection at the aggregator.
type incastConn struct {
	g    *IncastGroup
	sock api.Socket
	owed int // trigger bytes not yet committed
}

// incastSender is the sender half: it answers each trigger byte with a
// BlockBytes blast. It reads only immutable group config (BlockBytes).
type incastSender struct {
	g         *IncastGroup
	sock      api.Socket
	remaining int
}

// Serve installs the aggregator on a stack port.
func (g *IncastGroup) Serve(stack api.Stack, port uint16) {
	g.eng = stack.Engine()
	if g.RoundFCT == nil {
		g.RoundFCT = stats.NewHistogram()
	}
	stack.Listen(port, func(sock api.Socket) {
		ic := &incastConn{g: g, sock: sock}
		g.conns = append(g.conns, ic)
		sock.OnReadable(ic.drain)
		sock.OnWritable(ic.push)
		if len(g.conns) == g.want && !g.running && g.RoundsDone == 0 {
			g.startRound()
		}
	})
}

// Start opens one connection per sender entry (pass a stack several times
// for several connections from one host). Round 1 begins once the
// aggregator has accepted every connection.
func (g *IncastGroup) Start(senders []api.Stack, agg api.Addr) {
	g.want = len(senders)
	for _, stack := range senders {
		is := &incastSender{g: g}
		stack.Dial(agg, func(sock api.Socket) {
			is.sock = sock
			sock.OnWritable(is.pump)
			sock.OnReadable(is.trigger)
		})
	}
}

// drain consumes arrived block bytes and completes the round when all
// N×BlockBytes are in.
func (ic *incastConn) drain() {
	g := ic.g
	a, b := ic.sock.Peek()
	n := api.ViewLen(a, b)
	if n == 0 {
		return
	}
	ic.sock.Consume(n)
	g.BytesReceived += uint64(n)
	g.pending -= n
	if g.running && g.pending <= 0 {
		g.roundDone()
	}
}

// push commits any trigger bytes that didn't fit earlier.
func (ic *incastConn) push() {
	if ic.owed == 0 {
		return
	}
	w := ic.sock.TxSpace()
	if w > ic.owed {
		w = ic.owed
	}
	if w == 0 {
		return
	}
	ic.sock.Commit(w)
	ic.owed -= w
}

func (g *IncastGroup) startRound() {
	g.running = true
	g.roundStart = g.eng.Now()
	g.pending = g.want * g.BlockBytes
	for _, ic := range g.conns {
		ic.owed++
		ic.push()
	}
}

func (g *IncastGroup) roundDone() {
	g.running = false
	now := g.eng.Now()
	g.RoundFCT.Record(int64(now - g.roundStart))
	g.RoundsDone++
	g.LastDone = now
	if g.Rounds == 0 || int(g.RoundsDone) < g.Rounds {
		//flexvet:unowned the incast barrier is the workload generator's, not a machine's
		g.eng.ImmediatelyCall(incastStartRound, g)
	}
}

// incastStartRound launches the next barrier round (see Engine.AtCall).
func incastStartRound(a any) { a.(*IncastGroup).startRound() }

// ResetMeasurement clears the group's round measurement — counts, byte
// total, and the round-FCT histogram — without disturbing the round in
// flight. Call it only while the simulation is quiescent (the warmup
// boundary). Callers needing deltas against the pre-reset counts should
// snapshot instead; this reset is the fig17-style fresh-histogram
// boundary.
func (g *IncastGroup) ResetMeasurement() {
	g.RoundFCT = stats.NewHistogram()
}

// trigger consumes arrived trigger bytes — one per round — and owes the
// sender one block per byte (coalesced triggers queue further blocks).
func (is *incastSender) trigger() {
	a, b := is.sock.Peek()
	n := api.ViewLen(a, b)
	if n == 0 {
		return
	}
	is.sock.Consume(n)
	is.remaining += n * is.g.BlockBytes
	is.pump()
}

// pump commits the round's remaining block bytes as padding — incast
// blocks carry no examined content, so nothing is staged or copied.
func (is *incastSender) pump() {
	if is.sock == nil {
		return
	}
	for is.remaining > 0 {
		w := is.sock.TxSpace()
		if w == 0 {
			return
		}
		if w > is.remaining {
			w = is.remaining
		}
		is.sock.Commit(w)
		is.remaining -= w
	}
}
