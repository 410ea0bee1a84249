package core

import (
	"unsafe"

	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
	"flextoe/internal/trace"
)

// Connection slots live in fixed 256-entry value blocks: pointers into a
// block stay valid forever (blocks are never reallocated), slot id →
// (block, offset) is two shifts, and the per-connection footprint is the
// struct itself — no per-conn heap object, no map entry (doc.go
// "Connection state budget").
const (
	connBlockShift = 8
	connBlockLen   = 1 << connBlockShift
	connBlockMask  = connBlockLen - 1
)

// Conn is one established connection offloaded to the data-path. The
// control plane creates it (after completing the handshake) and tears it
// down; pipeline stages touch only their own state partition. Conns are
// slab slots, reset in place on reuse.
type Conn struct {
	ID   uint32
	Flow packet.Flow // from the local endpoint's perspective (src = local)

	Pre   tcpseg.PreState
	Proto tcpseg.ProtoState
	Post  tcpseg.PostState

	// Host-memory payload buffers (PAYLOAD-BUFs, Fig. 2).
	TxBuf *shm.PayloadBuf
	RxBuf *shm.PayloadBuf

	// Congestion control programming (MMIO from the control plane).
	CWnd uint32 // congestion window in bytes; 0 = unlimited

	// Notify delivers NIC->host context-queue descriptors to libTOE.
	Notify func(shm.Desc)

	// Flow.Hash() and Flow.Reverse().Hash(), computed once at
	// AddConnection and stamped on every segment the connection builds
	// (packet.SeedFlowHashes): the switches, taps and the peer's
	// pre-processor reuse them instead of hashing again.
	flowHash uint32
	revHash  uint32

	fg        uint8
	live      bool
	timerHint bool // control plane has a timer armed for this conn
}

// ConnStats is the control plane's periodic congestion-control poll
// (§D): counters accumulate in post-processor state and are cleared on
// read.
type ConnStats struct {
	AckedBytes uint32
	ECNBytes   uint32
	FastRetx   uint8
	RTTMicros  uint32
	TxPending  uint32 // bytes buffered or in flight (for RTO decisions)
	TxSent     uint32 // in-flight bytes
}

// connAt returns the slot without a liveness check (slab addressing; the
// caller guarantees the slot was installed).
func (t *TOE) connAt(id uint32) *Conn {
	return &t.connBlks[id>>connBlockShift][id&connBlockMask]
}

// AddConnection installs an established connection in the data-path. The
// flow must be unique. Buffers must be power-of-two sized. Slots of
// removed connections are reused FIFO (oldest-freed first), so a
// just-torn-down id stays quarantined while any straggling in-flight
// work drains.
func (t *TOE) AddConnection(flow packet.Flow, peerMAC packet.EtherAddr, iss, irs uint32,
	txBuf, rxBuf *shm.PayloadBuf, opaque uint64, notify func(shm.Desc)) *Conn {

	var id uint32
	if t.connFreeHead < len(t.connFree) {
		id = t.connFree[t.connFreeHead]
		t.connFree, t.connFreeHead = shm.PopRing(t.connFree, t.connFreeHead)
	} else {
		id = t.connTop
		t.connTop++
		if int(id>>connBlockShift) == len(t.connBlks) {
			t.connBlks = append(t.connBlks, make([]Conn, connBlockLen))
		}
	}
	flowHash := flow.Hash()
	fg := packet.HashGroup(flowHash, t.cfg.FlowGroups)
	c := t.connAt(id)
	// Full in-place reset: no state survives slot reuse.
	*c = Conn{
		ID:   id,
		Flow: flow,
		Pre: tcpseg.PreState{
			PeerMAC:    peerMAC,
			PeerIP:     flow.DstIP,
			LocalIP:    flow.SrcIP,
			LocalPort:  flow.SrcPort,
			RemotePort: flow.DstPort,
			FlowGroup:  uint8(fg),
		},
		Proto: tcpseg.ProtoState{
			Seq:     iss,
			TxMax:   iss,
			Ack:     irs,
			RxAvail: rxBuf.Size(),
			OOOCap:  uint8(t.cfg.OOOIntervals),
		},
		Post: tcpseg.PostState{
			Opaque: opaque,
			RxSize: rxBuf.Size(),
			TxSize: txBuf.Size(),
		},
		TxBuf:    txBuf,
		RxBuf:    rxBuf,
		Notify:   notify,
		flowHash: flowHash,
		revHash:  flow.Reverse().Hash(),
		fg:       uint8(fg),
		live:     true,
	}
	// Peers start with a sane default window until the first segment
	// arrives (the handshake's window, here one full buffer).
	c.Proto.RemoteWin = uint16(rxBuf.Size() >> tcpseg.WindowScale)
	if c.Proto.RemoteWin == 0 {
		c.Proto.RemoteWin = 1
	}
	t.flowIdx.Insert(flow, id)
	t.nLive++
	t.trace.Hit(trace.TPConnEstablished)
	return c
}

// RemoveConnection tears a connection down and frees its data-path state
// for reuse. The control plane only calls this after the connection has
// been quiescent for a linger period, so no in-flight pipeline work still
// references the slot.
func (t *TOE) RemoveConnection(id uint32) {
	c := t.connOrNil(id)
	if c == nil {
		return
	}
	t.flowIdx.Delete(c.Flow)
	c.live = false
	// Drop the host-side references now so churned connections' payload
	// buffers and sockets are collectable before the slot is reused.
	c.TxBuf = nil
	c.RxBuf = nil
	c.Notify = nil
	t.sched.Remove(id)
	t.connFree = append(t.connFree, id)
	t.nLive--
	t.trace.Hit(trace.TPConnClosed)
}

// lookupFlow resolves a flow to its live connection: the pre-processor's
// CRC-32 flow-table access (§4.1), with the hash (h == f.Hash()) read off
// the segment. 0 allocations.
func (t *TOE) lookupFlow(f packet.Flow, h uint32) *Conn {
	id, ok := t.flowIdx.LookupHash(f, h)
	if !ok {
		return nil
	}
	return t.connAt(id)
}

// HasFlow reports whether a live connection is filed under f (local
// endpoint's view): one flow-index probe.
func (t *TOE) HasFlow(f packet.Flow) bool {
	_, ok := t.flowIdx.Lookup(f)
	return ok
}

// Connection returns a connection by slot id (nil if out of range or
// closed).
func (t *TOE) Connection(id uint32) *Conn { return t.connOrNil(id) }

func (t *TOE) connOrNil(id uint32) *Conn {
	if int(id>>connBlockShift) >= len(t.connBlks) {
		return nil
	}
	c := t.connAt(id)
	if !c.live {
		return nil
	}
	return c
}

// NumConnections returns the number of live connections.
func (t *TOE) NumConnections() int { return t.nLive }

// ConnStateBytes reports the NIC-side connection-state footprint: slot
// blocks, the flow-hash index, and the free-slot ring. Host payload
// buffers are deliberately excluded — Table 5 budgets NIC connection
// state, and host buffers are an application sizing choice (doc.go
// "Connection state budget").
func (t *TOE) ConnStateBytes() int {
	return len(t.connBlks)*connBlockLen*int(unsafe.Sizeof(Conn{})) +
		t.flowIdx.MemBytes() + cap(t.connFree)*4
}

// ClearTimerHint re-enables the data-path timer kick for a connection
// (the control plane disarmed its last timer).
func (t *TOE) ClearTimerHint(id uint32) {
	if c := t.connOrNil(id); c != nil {
		c.timerHint = false
	}
}

// maybeTimerKick tells the control plane a connection may need timer
// service (bytes in flight, FIN pending, or a zero window blocking
// staged data). Called from the protocol stage after state mutation;
// timerHint dedupes so an armed connection never re-notifies — timer
// cost scales with activations, not with segments or total connections.
func (t *TOE) maybeTimerKick(c *Conn) {
	if c.timerHint || t.TimerKick == nil {
		return
	}
	p := &c.Proto
	if p.TxSent > 0 ||
		(p.FinSent() && !p.FinAcked()) ||
		(p.TxAvail > 0 && p.RemoteWin == 0) ||
		(p.FinSent() && p.FinAcked() && p.FinRx()) {
		c.timerHint = true
		t.TimerKick(c.ID)
	}
}

// SetCongestionWindow programs a connection's window (control-plane MMIO,
// §3.4).
func (t *TOE) SetCongestionWindow(id uint32, bytes uint32) {
	if c := t.connOrNil(id); c != nil {
		c.CWnd = bytes
		t.kickConn(c) // window growth may unblock transmission
	}
}

// SetRateInterval programs a connection's pacing interval in time per
// byte. The control plane pre-computes it from the rate, because FPCs
// cannot divide (§3.4).
func (t *TOE) SetRateInterval(id uint32, perByte sim.Time) {
	t.sched.SetInterval(id, perByte)
}

// ReadStats returns and clears the connection's congestion-control
// counters (the control plane's per-RTT poll, §D).
func (t *TOE) ReadStats(id uint32) ConnStats {
	c := t.connOrNil(id)
	if c == nil {
		return ConnStats{}
	}
	s := ConnStats{
		AckedBytes: c.Post.CntACKB,
		ECNBytes:   c.Post.CntECNB,
		FastRetx:   c.Post.CntFRetx,
		RTTMicros:  c.Post.RTTEst,
		TxPending:  c.Proto.TxAvail + c.Proto.TxSent,
		TxSent:     c.Proto.TxSent,
	}
	c.Post.CntACKB = 0
	c.Post.CntECNB = 0
	c.Post.CntFRetx = 0
	return s
}
