// Package libtoe is FlexTOE's application library (§3, Fig. 2): it
// interposes on the POSIX socket API, keeps per-socket payload buffers in
// process memory, and talks to the data-path through per-thread context
// queues — appending transmit data and doorbelling the NIC, and consuming
// receive/free notifications.
//
// Socket operations cost host CPU cycles on the application's core,
// matching the paper's Table 1 accounting (FlexTOE: 0.74 kc of POSIX
// socket work per request that "cannot be eliminated with TCP offload").
package libtoe

import (
	"flextoe/internal/api"
	"flextoe/internal/core"
	"flextoe/internal/ctrl"
	"flextoe/internal/host"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

// CostProfile is the per-operation host cycle cost of the socket layer.
type CostProfile struct {
	SendCycles   int64 // per Commit (descriptor + doorbell MMIO)
	RecvCycles   int64 // per Consume
	NotifyCycles int64 // per context-queue notification processed
	// WakeupLatency is the MSI-X -> eventfd -> scheduler path when the
	// application slept waiting for IO (§4 "Driver"). Charged only when
	// the socket's core is idle; busy applications poll.
	WakeupLatency sim.Time
}

// DefaultCosts matches Table 1's FlexTOE socket accounting (~740 cycles
// of POSIX socket work per request-response pair, split across the calls
// involved).
func DefaultCosts() CostProfile {
	return CostProfile{
		SendCycles:    240,
		RecvCycles:    200,
		NotifyCycles:  150,
		WakeupLatency: 3500 * sim.Nanosecond,
	}
}

// Stack implements api.Stack over a FlexTOE data-path and control plane.
type Stack struct {
	eng     *sim.Engine
	toe     *core.TOE
	ctrl    *ctrl.Plane
	machine *host.Machine
	localIP packet.IPv4Addr
	costs   CostProfile

	// ResolveMAC maps a destination IP to its MAC (static ARP; the
	// control plane performs real ARP in deployment).
	ResolveMAC func(ip packet.IPv4Addr) packet.EtherAddr

	nextCore int
}

// NewStack wires libTOE to a data-path, control plane and host machine.
func NewStack(eng *sim.Engine, toe *core.TOE, plane *ctrl.Plane, machine *host.Machine, localIP packet.IPv4Addr) *Stack {
	return &Stack{
		eng:     eng,
		toe:     toe,
		ctrl:    plane,
		machine: machine,
		localIP: localIP,
		costs:   DefaultCosts(),
	}
}

// Name identifies the stack in experiment output.
func (s *Stack) Name() string { return "FlexTOE" }

// Machine returns the host CPU model.
func (s *Stack) Machine() *host.Machine { return s.machine }

// Engine returns the engine this stack runs on.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// LocalIP returns the machine's address.
func (s *Stack) LocalIP() packet.IPv4Addr { return s.localIP }

// appCore picks the core a new socket's notifications run on
// (per-thread context queues: sockets are distributed round-robin, as
// with TAS/FlexTOE's per-core context queues, §5.1).
func (s *Stack) appCore() *host.Core {
	c := s.machine.Cores[s.nextCore%len(s.machine.Cores)]
	s.nextCore++
	return c
}

// Listen registers an accept handler.
func (s *Stack) Listen(port uint16, accept func(api.Socket)) {
	s.ctrl.Listen(port, func(c *ctrl.Conn) {
		sock := s.newSocket(c)
		accept(sock)
	})
}

// Dial opens a connection.
func (s *Stack) Dial(remote api.Addr, connected func(api.Socket)) {
	mac := packet.EtherAddr{}
	if s.ResolveMAC != nil {
		mac = s.ResolveMAC(remote.IP)
	}
	s.ctrl.Dial(remote.IP, mac, remote.Port, func(c *ctrl.Conn) {
		connected(s.newSocket(c))
	})
}

func (s *Stack) newSocket(c *ctrl.Conn) *Socket {
	sock := &Socket{
		stack:  s,
		conn:   c,
		core:   s.appCore(),
		txFree: c.TxBuf.Size(),
	}
	c.Core.Notify = sock.notify
	return sock
}

// Socket implements api.Socket over FlexTOE context queues. The view
// calls (Peek/Consume, Reserve/Commit) are the native interface: they
// hand the application windows straight into the shared-memory payload
// buffers and cross the host/NIC boundary with descriptors only, so the
// cost model charges descriptor/doorbell cycles but no per-byte copy
// cost — Table 1's "cannot be eliminated with TCP offload" split. They
// are the socket's only data path: there is no copying send/recv.
type Socket struct {
	stack *Stack
	conn  *ctrl.Conn
	core  *host.Core

	txHead uint32 // next append offset (stream position)
	txFree uint32
	rxHead uint32 // next read offset
	avail  uint32 // readable bytes
	closed bool
	finRx  bool

	// Doorbell batching: bytes whose descriptor cost has been charged on
	// the app core but whose context-queue descriptor has not been
	// injected yet. The first completion to run injects the accumulated
	// total, so no closure is allocated per socket call.
	pendTx uint32
	pendRx uint32
	// finTx marks a Close made while committed bytes still waited for
	// their doorbell: the FIN is injected right behind them.
	finTx bool

	// Pending NIC->host notifications awaiting their charged delivery
	// task (FIFO ring; amortized allocation-free).
	notifQ    []shm.Desc
	notifHead int

	onReadable func()
	onWritable func()
}

var _ api.Socket = (*Socket)(nil)

// LocalAddr returns the local endpoint.
func (k *Socket) LocalAddr() api.Addr {
	return api.Addr{IP: k.conn.Flow.SrcIP, Port: k.conn.Flow.SrcPort}
}

// RemoteAddr returns the peer endpoint.
func (k *Socket) RemoteAddr() api.Addr {
	return api.Addr{IP: k.conn.Flow.DstIP, Port: k.conn.Flow.DstPort}
}

// Readable returns buffered received bytes.
func (k *Socket) Readable() int { return int(k.avail) }

// TxSpace returns free transmit buffer space.
func (k *Socket) TxSpace() int { return int(k.txFree) }

// OnReadable registers the receive callback.
func (k *Socket) OnReadable(f func()) { k.onReadable = f }

// OnWritable registers the transmit-space callback.
func (k *Socket) OnWritable(f func()) { k.onWritable = f }

// Peek returns the readable byte stream as up to two slices of the
// shared-memory RX payload buffer: the zero-copy receive view, read-only.
// A ring that has received only zeros lends the shared zero array.
func (k *Socket) Peek() (a, b []byte) {
	return k.conn.RxBuf.ReadSlices(k.rxHead, k.avail)
}

// Consume releases the first n readable bytes and reopens the receive
// window. Only the descriptor cost is charged: the application read the
// bytes in place.
func (k *Socket) Consume(n int) {
	if n == 0 {
		return
	}
	if n < 0 || uint32(n) > k.avail {
		panic("libtoe: Consume beyond readable bytes")
	}
	k.rxHead += uint32(n)
	k.avail -= uint32(n)
	k.conn.RxBuf.Release(uint32(n))
	k.pendRx += uint32(n)
	k.core.SubmitStepCall(sim.Step{Compute: k.stack.costs.RecvCycles}, sockRxDoorbell, k)
}

// Reserve returns up to n bytes of free TX payload buffer to stage into,
// starting at the current append position.
func (k *Socket) Reserve(n int) (a, b []byte) {
	if k.closed || n <= 0 {
		return nil, nil
	}
	w := uint32(n)
	if w > k.txFree {
		w = k.txFree
	}
	return k.conn.TxBuf.Slices(k.txHead, w)
}

// Commit publishes the next n staged bytes and doorbells the NIC. Only
// the descriptor + doorbell cost is charged: the payload already sits in
// the shared-memory buffer the data-path DMAs from.
func (k *Socket) Commit(n int) {
	if k.closed || n == 0 {
		return
	}
	if n < 0 || uint32(n) > k.txFree {
		panic("libtoe: Commit beyond transmit buffer space")
	}
	k.txHead += uint32(n)
	k.txFree -= uint32(n)
	k.pendTx += uint32(n)
	if shm.Debug {
		k.conn.TxBuf.Release(0) // ends the Reserve views (flexdebug)
	}
	k.core.SubmitStepCall(sim.Step{Compute: k.stack.costs.SendCycles}, sockTxDoorbell, k)
}

// sockTxDoorbell / sockRxDoorbell run when a socket call's charged cost
// has been paid: they inject the accumulated descriptor (batching
// doorbells when several calls' costs were in flight at once).
func sockTxDoorbell(a any) {
	k := a.(*Socket)
	if n := k.pendTx; n > 0 {
		k.pendTx = 0
		k.stack.toe.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: k.conn.ID, Bytes: n})
	}
	if k.finTx {
		k.finTx = false
		k.stack.toe.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: k.conn.ID})
	}
}

func sockRxDoorbell(a any) {
	k := a.(*Socket)
	if n := k.pendRx; n > 0 {
		k.pendRx = 0
		k.stack.toe.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: k.conn.ID, Bytes: n})
	}
}

// Close sends FIN, behind every byte committed before it: bytes whose
// doorbell is still pending take the FIN along with them. A FIN injected
// ahead of them would claim the sequence slot of their first byte, which
// the peer would then trim as already received.
func (k *Socket) Close() {
	if k.closed {
		return
	}
	k.closed = true
	if k.pendTx > 0 {
		k.finTx = true
		return
	}
	k.stack.toe.InjectHC(shm.Desc{Kind: shm.DescFin, Conn: k.conn.ID})
}

// notify handles NIC->host context-queue descriptors on the socket's
// application core (eventfd wakeup + descriptor processing). The
// descriptor is queued on the socket and consumed by sockNotify when the
// delivery cost has been paid — one FIFO ring per socket, no closure per
// notification.
func (k *Socket) notify(d shm.Desc) {
	step := sim.Step{Compute: k.stack.costs.NotifyCycles}
	if !k.core.Busy() {
		step.Stall = k.stack.costs.WakeupLatency
	}
	k.notifQ = append(k.notifQ, d)
	k.core.SubmitStepCall(step, sockNotify, k)
}

// sockNotify processes the next queued context-queue descriptor (see
// host.Core.SubmitStepCall: tasks complete in FIFO order per core, so the
// queue head always matches the completing task).
func sockNotify(a any) {
	k := a.(*Socket)
	d := k.notifQ[k.notifHead]
	k.notifQ, k.notifHead = shm.PopRing(k.notifQ, k.notifHead)
	switch d.Kind {
	case shm.DescRxNotify:
		k.avail += d.Bytes
		if k.onReadable != nil {
			k.onReadable()
		}
	case shm.DescTxFree:
		k.txFree += d.Bytes
		k.conn.TxBuf.Release(d.Bytes)
		if k.onWritable != nil {
			k.onWritable()
		}
	case shm.DescFinRx:
		k.finRx = true
		if k.onReadable != nil {
			k.onReadable() // EOF signaled via Readable()==0 after drain
		}
	}
}
