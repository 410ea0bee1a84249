// Package apps implements the evaluation workloads: a memcached-like
// key-value server driven by a memtier-like load generator (§2.1, §5.1),
// echo/RPC servers with configurable application processing cost (§5.2),
// closed- and open-loop clients with pipelining, bulk-transfer senders
// (§5.2, §5.3), and the datacenter traffic patterns: an open-loop flow
// generator with Poisson arrivals of fixed-size flows and N-to-1 incast
// groups with barrier-synchronized rounds (flows.go). Applications use
// only the api.Stack interface, so identical "binaries" run over every
// stack, on the single-switch testbed or the leaf–spine fabric.
//
// Every workload drives the zero-copy view API (Peek/Consume on receive,
// Reserve/Commit on transmit): frames are parsed and staged directly in
// the per-socket payload rings, so the steady-state request path
// allocates nothing at the application layer (gated in CI by
// TestAppSteadyStateAllocBudget). Fixed-size benchmark payloads whose
// content is never examined (RPC requests/responses, bulk streams) are
// committed without staging — the ring bytes go out as-is, exactly the
// liberty a padding payload grants a zero-copy application. Such a stream
// has one send step, commitOwed, and one receive step, consumeAll.
//
// Every load object opens its measured window the same way:
// ResetMeasurement, called while the simulation is quiescent (the warm-up
// boundary), zeroes exactly what the object measures and never a counter
// that drives load, so a caller reads the window's counts as they stand,
// with no snapshot of its own.
//
// The key-value server's store charges its work as application cycles,
// so what it costs the simulator is memory, and it costs what it holds:
// records sit back to back in 64 KiB byte blocks that are never rewritten,
// found through an open-addressed index of 32-bit record locations, each
// beside a control byte that lets a GET miss skip the records. A 32 B/32 B
// record costs its 67 bytes plus 5.7 to 11.4 of index, with no Go map, no
// allocation per SET and no pointer per record for the collector to scan
// (TestKVStoreBytesPerRecord, TestKVSteadyStateAllocBudget). A GET
// response is a view into its record's block and stays valid until it is
// sent, however the key is overwritten or the store compacted meanwhile.
package apps

import (
	"encoding/binary"

	"flextoe/internal/api"
	"flextoe/internal/host"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// ---------------------------------------------------------------------
// Fixed-size RPC framing: every request and response is a fixed number of
// bytes agreed upon out of band (the paper's RPC benchmarks fix request
// and response sizes per run).
// ---------------------------------------------------------------------

// RPCServer serves fixed-size requests with fixed-size responses after a
// configurable application-processing delay (Fig. 10's 250/1,000 cycles).
type RPCServer struct {
	ReqSize   int
	RespSize  int // 0 = echo the request size
	AppCycles int64
}

// rpcSession is one accepted connection's parse/respond state.
type rpcSession struct {
	srv  *RPCServer
	sock api.Socket
	core *host.Core

	buffered int // request bytes received short of a full request
	owed     int // response bytes ready to transmit
}

// Serve installs the server on a stack port.
func (srv *RPCServer) Serve(stack api.Stack, port uint16) {
	stack.Listen(port, func(sock api.Socket) {
		sess := &rpcSession{srv: srv, sock: sock, core: coreFor(stack, sock)}
		sock.OnReadable(sess.onReadable)
		sock.OnWritable(sess.push)
	})
}

func (sess *rpcSession) onReadable() {
	// Requests are content-ignored fixed-size frames: count and release
	// the bytes in place.
	n := consumeAll(sess.sock)
	if n == 0 {
		return
	}
	sess.buffered += n
	for sess.buffered >= sess.srv.ReqSize {
		sess.buffered -= sess.srv.ReqSize
		if sess.srv.AppCycles > 0 {
			sess.core.SubmitStepCall(sim.Step{Compute: sess.srv.AppCycles}, rpcRespond, sess)
		} else {
			sess.owed += sess.respSize()
		}
	}
	sess.push()
}

func (sess *rpcSession) respSize() int {
	if sess.srv.RespSize > 0 {
		return sess.srv.RespSize
	}
	return sess.srv.ReqSize
}

// rpcRespond releases one response after its application-processing cost
// has been paid (see host.Core.SubmitStepCall).
func rpcRespond(a any) {
	sess := a.(*rpcSession)
	sess.owed += sess.respSize()
	sess.push()
}

// push commits owed response padding as transmit space allows; the
// OnWritable callback resumes it when acknowledgments free buffer.
func (sess *rpcSession) push() { commitOwed(sess.sock, &sess.owed) }

// commitOwed commits up to *owed bytes of padding as transmit space
// allows — the shared send step of every content-ignored stream (RPC
// responses, closed-loop requests, bulk echoes, flow payloads, incast
// triggers and blocks).
func commitOwed(sock api.Socket, owed *int) {
	if *owed == 0 {
		return
	}
	w := sock.TxSpace()
	if w > *owed {
		w = *owed
	}
	if w == 0 {
		return
	}
	sock.Commit(w)
	*owed -= w
}

// consumeAll releases every received byte in place and returns how many
// there were — the shared receive step of every content-ignored stream.
func consumeAll(sock api.Socket) int {
	a, b := sock.Peek()
	n := api.ViewLen(a, b)
	if n > 0 {
		sock.Consume(n)
	}
	return n
}

// coreFor picks the application core serving a socket.
func coreFor(stack api.Stack, sock api.Socket) *host.Core {
	cores := stack.Machine().Cores
	idx := int(sock.RemoteAddr().Port) % len(cores)
	return cores[idx]
}

// ---------------------------------------------------------------------
// Closed-loop client (memtier-style): each connection keeps a fixed
// number of requests pipelined and issues a new one per response.
// ---------------------------------------------------------------------

// ClosedLoopClient drives closed-loop fixed-size RPCs.
type ClosedLoopClient struct {
	ReqSize  int
	RespSize int // expected; 0 = ReqSize
	Pipeline int // requests in flight per connection (>=1)

	// Measurement.
	Completed uint64
	Bytes     uint64
	Latency   *stats.Histogram // picoseconds
	WarmupOps uint64           // skip the window's first N ops in the histogram

	perConn []uint64 // completions per connection (fairness)
	eng     *sim.Engine
	stopped bool
}

// Stop ends the load: requests in flight still complete, but none issues
// another, so the run drains to quiescence.
func (c *ClosedLoopClient) Stop() { c.stopped = true }

// ResetMeasurement opens the measured window: completions, bytes, the
// latency histogram and the per-connection counts start again from zero.
func (c *ClosedLoopClient) ResetMeasurement() {
	c.Completed, c.Bytes = 0, 0
	c.Latency = stats.NewHistogram()
	clear(c.perConn)
}

// ConnJFI returns Jain's fairness index over per-connection completion
// counts.
func (c *ClosedLoopClient) ConnJFI() float64 {
	xs := make([]float64, len(c.perConn))
	for i, v := range c.perConn {
		xs[i] = float64(v)
	}
	return stats.JainFairness(xs)
}

type clientConn struct {
	c          *ClosedLoopClient
	sock       api.Socket
	idx        int        // per-connection index for fairness accounting
	issued     []sim.Time // send timestamps, FIFO ring per pipelined request
	issuedHead int
	received   int
	txOwed     int // request bytes stamped but not yet committed
}

// Start opens conns connections from the stack to the server and begins
// issuing load.
func (c *ClosedLoopClient) Start(stack api.Stack, server api.Addr, conns int) {
	c.eng = stack.Engine()
	if c.Latency == nil {
		c.Latency = stats.NewHistogram()
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	for i := 0; i < conns; i++ {
		stack.Dial(server, func(sock api.Socket) {
			idx := len(c.perConn)
			c.perConn = append(c.perConn, 0)
			cc := &clientConn{c: c, sock: sock, idx: idx}
			sock.OnReadable(cc.onReadable)
			sock.OnWritable(cc.pushTx)
			for p := 0; p < c.Pipeline; p++ {
				cc.issue()
			}
		})
	}
}

func (cc *clientConn) issue() {
	cc.issued = append(cc.issued, cc.c.eng.Now())
	cc.txOwed += cc.c.ReqSize
	cc.pushTx()
}

// pushTx commits request padding as transmit space allows (requests are
// fixed-size and content-ignored).
func (cc *clientConn) pushTx() { commitOwed(cc.sock, &cc.txOwed) }

func (cc *clientConn) onReadable() {
	resp := cc.c.RespSize
	if resp == 0 {
		resp = cc.c.ReqSize
	}
	cc.received += consumeAll(cc.sock)
	for cc.received >= resp && cc.issuedHead < len(cc.issued) {
		cc.received -= resp
		start := cc.issued[cc.issuedHead]
		cc.issued, cc.issuedHead = shm.PopRing(cc.issued, cc.issuedHead)
		cc.c.Completed++
		cc.c.Bytes += uint64(resp + cc.c.ReqSize)
		if cc.idx < len(cc.c.perConn) {
			cc.c.perConn[cc.idx]++
		}
		if cc.c.Completed > cc.c.WarmupOps {
			cc.c.Latency.Record(int64(cc.c.eng.Now() - start))
		}
		if !cc.c.stopped {
			cc.issue()
		}
	}
}

// ---------------------------------------------------------------------
// Open-loop client: Poisson arrivals at a fixed rate spread over the
// connections (Fig. 10's open-loop producers).
// ---------------------------------------------------------------------

// OpenLoopClient issues fixed-size requests at a target rate.
type OpenLoopClient struct {
	ReqSize  int
	RespSize int
	Rate     float64 // requests/second
	Seed     uint64
	// ZipfS > 0 picks the connection per arrival from a Zipf(s)
	// distribution over the fleet instead of round-robin: a small hot set
	// carries most of the traffic while the tail stays nearly idle — the
	// activity pattern of large long-lived connection fleets (Fig. 9
	// scaling sweeps).
	ZipfS float64

	Completed uint64
	Dropped   uint64 // requests skipped because the socket buffer was full
	Latency   *stats.Histogram

	eng   *sim.Engine
	rng   *stats.RNG
	zipf  *stats.Zipf
	conns []*clientConn
	next  int
}

// Start opens conns connections and schedules Poisson arrivals.
func (c *OpenLoopClient) Start(stack api.Stack, server api.Addr, conns int) {
	c.eng = stack.Engine()
	c.rng = stats.NewRNG(c.Seed + 7)
	if c.ZipfS > 0 && conns > 0 {
		c.zipf = stats.NewZipf(conns, c.ZipfS)
	}
	if c.Latency == nil {
		c.Latency = stats.NewHistogram()
	}
	// The hidden closed-loop client is stopped from the start: a response
	// completes its request and issues no other.
	cl := &ClosedLoopClient{ReqSize: c.ReqSize, RespSize: c.RespSize, Latency: c.Latency, eng: c.eng, stopped: true}
	for i := 0; i < conns; i++ {
		stack.Dial(server, func(sock api.Socket) {
			cc := &clientConn{c: cl, sock: sock}
			sock.OnReadable(func() {
				cc.onReadable()
				c.Completed = cl.Completed
			})
			sock.OnWritable(cc.pushTx)
			c.conns = append(c.conns, cc)
			if len(c.conns) == 1 {
				c.scheduleNext()
			}
		})
	}
}

func (c *OpenLoopClient) scheduleNext() {
	gap := sim.Time(c.rng.Exp(1e12 / c.Rate))
	sim.Unowned(c.eng, "an application's arrival process stands outside the modelled machines").AfterCall(gap, openLoopArrive, c)
}

// openLoopArrive fires one Poisson arrival and rearms (allocation-free
// per arrival; see sim.Engine.AfterCall).
func openLoopArrive(a any) {
	c := a.(*OpenLoopClient)
	if len(c.conns) > 0 {
		idx := c.next % len(c.conns)
		c.next++
		if c.zipf != nil {
			idx = c.zipf.Pick(c.rng) % len(c.conns)
		}
		cc := c.conns[idx]
		if cc.txOwed == 0 && cc.sock.TxSpace() >= c.ReqSize {
			cc.issue()
		} else {
			c.Dropped++
		}
	}
	c.scheduleNext()
}

// ---------------------------------------------------------------------
// Bulk transfer: one-directional stream, measuring delivered goodput.
// ---------------------------------------------------------------------

// BulkSink counts received bytes on a port, in total and per accepted
// connection (the Fig. 16 fairness measurement).
type BulkSink struct {
	Received uint64
	// Echo reflects RespBytes back per ChunkBytes received (the Fig. 12
	// bidirectional case echoes everything: RespBytes == ChunkBytes).
	ChunkBytes int
	RespBytes  int
	buffered   int
	counts     []uint64 // bytes received per connection, in accept order
}

// bulkSession is one accepted bulk connection.
type bulkSession struct {
	b    *BulkSink
	sock api.Socket
	idx  int // the connection's entry in b.counts
	owed int // echo bytes awaiting transmit space
}

// Serve installs the sink.
func (b *BulkSink) Serve(stack api.Stack, port uint16) {
	stack.Listen(port, func(sock api.Socket) {
		bs := &bulkSession{b: b, sock: sock, idx: len(b.counts)}
		b.counts = append(b.counts, 0)
		sock.OnReadable(bs.onReadable)
		sock.OnWritable(bs.push)
	})
}

func (bs *bulkSession) onReadable() {
	b := bs.b
	if n := consumeAll(bs.sock); n > 0 {
		b.Received += uint64(n)
		b.counts[bs.idx] += uint64(n)
		b.buffered += n
	}
	for b.ChunkBytes > 0 && b.buffered >= b.ChunkBytes {
		b.buffered -= b.ChunkBytes
		bs.owed += b.RespBytes
	}
	bs.push()
}

func (bs *bulkSession) push() { commitOwed(bs.sock, &bs.owed) }

// ResetMeasurement opens the measured window: the received bytes, in
// total and per connection, start again from zero. Echo bytes owed stay
// owed.
func (b *BulkSink) ResetMeasurement() {
	b.Received = 0
	clear(b.counts)
}

// Shares returns the per-connection byte counts as float64s.
func (b *BulkSink) Shares() []float64 {
	out := make([]float64, len(b.counts))
	for i, v := range b.counts {
		out[i] = float64(v)
	}
	return out
}

// BulkSender streams as fast as the socket accepts.
type BulkSender struct {
	sock    api.Socket
	stopped bool
}

// Stop ends the stream: no further bytes are committed, letting the
// connection quiesce (in-flight data still delivers and recovers).
func (b *BulkSender) Stop() { b.stopped = true }

// Start opens a connection and saturates it.
func (b *BulkSender) Start(stack api.Stack, server api.Addr) {
	stack.Dial(server, func(sock api.Socket) {
		b.sock = sock
		sock.OnWritable(b.push)
		b.push()
	})
}

// push commits every free transmit byte as padding: the saturating
// bulk stream stages nothing and copies nothing.
func (b *BulkSender) push() {
	if b.stopped {
		return
	}
	w := b.sock.TxSpace()
	if w == 0 {
		return
	}
	b.sock.Commit(w)
}

// ---------------------------------------------------------------------
// Memcached-like key-value store (§2.1's workload): binary framing with
// GET/SET over 32 B keys and values, a record arena behind an
// open-addressed index (kvstore.go), and per-request application cycles.
// ---------------------------------------------------------------------

// KV op codes.
const (
	KVGet byte = 1
	KVSet byte = 2
)

// KVServer is the memcached-like store. Its work is charged as AppCycles;
// its memory is the records it holds. A SET copies the key and value into
// an append-only record arena (kvStore: 64 KiB byte blocks and an
// open-addressed index of record locations, no Go map and no allocation
// per SET). A GET hit answers with a view into the record's block, queued
// until the transmit ring takes it: blocks are never rewritten, so an
// overwrite or a compaction never changes bytes a queued response views,
// and a block the store has dropped lives until its last such view is sent.
type KVServer struct {
	AppCycles int64 // per-request application work (hash + LRU, §2.1)
	ValueLen  int   // response value size for GET

	store   *kvStore
	missVal []byte // shared zero value returned on GET misses
	Served  uint64
	Hits    uint64
}

// kvSession parses one connection's request stream in place and stages
// responses directly into the transmit ring.
type kvSession struct {
	kv   *KVServer
	sock api.Socket
	core *host.Core

	scratch []byte // copy-on-straddle frame staging (reused)

	// Response FIFO: each entry is the value of a completed request
	// (nil for SET acknowledgments); the wire response is the 4-byte
	// status header followed by the value. ready gates how many may
	// transmit (their AppCycles cost has been paid).
	respQ    [][]byte
	respHead int
	ready    int

	// Response currently in flight (partially committed).
	cur     []byte
	curOff  int
	sending bool
}

// Serve installs the KV server.
func (kv *KVServer) Serve(stack api.Stack, port uint16) {
	kv.store = newKVStore(kvBlockSize)
	kv.missVal = make([]byte, kv.ValueLen)
	stack.Listen(port, func(sock api.Socket) {
		sess := &kvSession{kv: kv, sock: sock, core: coreFor(stack, sock)}
		sock.OnReadable(sess.onReadable)
		sock.OnWritable(sess.push)
	})
}

func (sess *kvSession) onReadable() {
	a, b := sess.sock.Peek()
	total := api.ViewLen(a, b)
	pos := 0
	for total-pos >= 4 {
		op := api.ViewByte(a, b, pos)
		keyLen := int(api.ViewByte(a, b, pos+1))
		valLen := int(api.ViewByte(a, b, pos+2))<<8 | int(api.ViewByte(a, b, pos+3))
		need := 4 + keyLen
		if op == KVSet {
			need += valLen
		}
		if total-pos < need {
			break
		}
		// The frame body is parsed in place; only a frame straddling the
		// ring wrap is staged through the reusable scratch buffer.
		frame := api.ViewBytes(a, b, pos+4, need-4, &sess.scratch)
		sess.handle(op, frame[:keyLen], frame[keyLen:])
		pos += need
	}
	if pos > 0 {
		sess.sock.Consume(pos)
	}
	sess.push()
}

// handle performs the store operation synchronously (the key and value
// views are only valid now, before Consume) and queues the response
// behind the request's application-processing cost.
func (sess *kvSession) handle(op byte, key, val []byte) {
	kv := sess.kv
	kv.Served++
	var resp []byte // response value: a store view, which outlives the ring view
	switch op {
	case KVSet:
		kv.store.set(key, val)
	default: // GET
		v, ok := kv.store.get(key)
		if ok {
			kv.Hits++
			resp = v
		} else {
			resp = kv.missVal
		}
	}
	sess.respQ = append(sess.respQ, resp)
	if kv.AppCycles > 0 {
		sess.core.SubmitStepCall(sim.Step{Compute: kv.AppCycles}, kvRespond, sess)
	} else {
		sess.ready++
	}
}

// kvRespond releases one response after its application cost (see
// host.Core.SubmitStepCall).
func kvRespond(a any) {
	sess := a.(*kvSession)
	sess.ready++
	sess.push()
}

// push stages ready responses directly into the transmit ring:
// [1,0,len:2][value], resuming partially committed responses when
// acknowledgments free space.
func (sess *kvSession) push() {
	for {
		if !sess.sending {
			if sess.ready == 0 || sess.respHead >= len(sess.respQ) {
				return
			}
			sess.cur = sess.respQ[sess.respHead]
			sess.respQ, sess.respHead = shm.PopRing(sess.respQ, sess.respHead)
			sess.ready--
			sess.curOff = 0
			sess.sending = true
		}
		respLen := 4 + len(sess.cur)
		a, b := sess.sock.Reserve(respLen - sess.curOff)
		w := api.ViewLen(a, b)
		if w == 0 {
			return
		}
		var hdr [4]byte
		hdr[0] = 1
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(sess.cur)))
		vo := 0
		if sess.curOff < 4 {
			h := hdr[sess.curOff:]
			if len(h) > w {
				h = h[:w]
			}
			api.ViewCopyIn(a, b, 0, h)
			vo = len(h)
		}
		if vo < w {
			vs := sess.cur[sess.curOff+vo-4:]
			api.ViewCopyIn(a, b, vo, vs[:w-vo])
		}
		sess.sock.Commit(w)
		sess.curOff += w
		if sess.curOff == respLen {
			sess.cur = nil
			sess.sending = false
		}
	}
}

// KVClient is the memtier-like generator: closed-loop GET/SET mix over
// persistent connections with 32 B keys and values.
type KVClient struct {
	KeyLen   int
	ValLen   int
	SetRatio float64 // fraction of SETs
	Pipeline int
	Seed     uint64

	Completed uint64
	Latency   *stats.Histogram

	eng *sim.Engine
	rng *stats.RNG
}

// ResetMeasurement opens the measured window: completions and the latency
// histogram start again from zero.
func (c *KVClient) ResetMeasurement() {
	c.Completed = 0
	c.Latency = stats.NewHistogram()
}

// Start opens conns connections and drives the closed loop.
func (c *KVClient) Start(stack api.Stack, server api.Addr, conns int) {
	c.eng = stack.Engine()
	c.rng = stats.NewRNG(c.Seed + 99)
	if c.Latency == nil {
		c.Latency = stats.NewHistogram()
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.KeyLen == 0 {
		c.KeyLen = 32
	}
	if c.ValLen == 0 {
		c.ValLen = 32
	}
	for i := 0; i < conns; i++ {
		stack.Dial(server, func(sock api.Socket) {
			kc := &kvConn{c: c, sock: sock, key: make([]byte, c.KeyLen)}
			sock.OnReadable(kc.onReadable)
			sock.OnWritable(kc.onWritable)
			for p := 0; p < c.Pipeline; p++ {
				kc.issue()
			}
		})
	}
}

type kvConn struct {
	c          *KVClient
	sock       api.Socket
	issued     []sim.Time // FIFO ring
	issuedHead int
	expect     []int // response size per outstanding op, FIFO ring
	expectHead int
	acc        int
	key        []byte // reusable key staging
	deferred   int    // issues awaiting transmit space
}

// issue stages one request frame directly in the transmit ring. A
// request that does not fit is deferred until space frees (the SET frame
// is the larger of the two, so the gate is conservative).
func (kc *kvConn) issue() {
	c := kc.c
	if kc.sock.TxSpace() < 4+c.KeyLen+c.ValLen {
		kc.deferred++
		return
	}
	c.rng.Uint64() // churn
	for i := range kc.key {
		kc.key[i] = byte('a' + c.rng.Intn(26))
	}
	var hdr [4]byte
	var need, respSize int
	if c.rng.Bool(c.SetRatio) {
		hdr[0] = KVSet
		hdr[1] = byte(c.KeyLen)
		binary.BigEndian.PutUint16(hdr[2:4], uint16(c.ValLen))
		need = 4 + c.KeyLen + c.ValLen
		respSize = 4
	} else {
		hdr[0] = KVGet
		hdr[1] = byte(c.KeyLen)
		need = 4 + c.KeyLen
		respSize = 4 + c.ValLen
	}
	a, b := kc.sock.Reserve(need)
	api.ViewCopyIn(a, b, 0, hdr[:])
	api.ViewCopyIn(a, b, 4, kc.key)
	// A SET's value bytes are padding: committed from the ring as-is.
	kc.sock.Commit(need)
	kc.issued = append(kc.issued, c.eng.Now())
	kc.expect = append(kc.expect, respSize)
}

func (kc *kvConn) onWritable() {
	for kc.deferred > 0 && kc.sock.TxSpace() >= 4+kc.c.KeyLen+kc.c.ValLen {
		kc.deferred--
		kc.issue()
	}
}

func (kc *kvConn) onReadable() {
	kc.acc += consumeAll(kc.sock)
	for kc.expectHead < len(kc.expect) && kc.acc >= kc.expect[kc.expectHead] {
		kc.acc -= kc.expect[kc.expectHead]
		kc.expect, kc.expectHead = shm.PopRing(kc.expect, kc.expectHead)
		start := kc.issued[kc.issuedHead]
		kc.issued, kc.issuedHead = shm.PopRing(kc.issued, kc.issuedHead)
		kc.c.Completed++
		kc.c.Latency.Record(int64(kc.c.eng.Now() - start))
		kc.issue()
	}
}
