package baseline

import (
	"flextoe/internal/api"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// Listen registers an accept handler for a port. The listen backlog
// (Profile.ListenBacklog; 0 = unbounded) caps half-open connections per
// port: SYNs beyond it are silently dropped, as a kernel does when the
// SYN queue overflows.
func (s *Stack) Listen(port uint16, accept func(api.Socket)) {
	s.listeners[port] = &blistener{accept: accept}
}

// Dial opens a connection to a remote endpoint. The MAC is resolved via
// ResolveMAC (static ARP).
func (s *Stack) Dial(remote api.Addr, connected func(api.Socket)) {
	s.nextPort++
	flow := packet.Flow{SrcIP: s.localIP, DstIP: remote.IP, SrcPort: s.nextPort, DstPort: remote.Port}
	mac := packet.EtherAddr{}
	if s.ResolveMAC != nil {
		mac = s.ResolveMAC(remote.IP)
	}
	c := s.newConn(flow, mac)
	c.connected = connected
	c.active = true
	syn := s.mkPacket(c, c.iss-1, packet.FlagSYN)
	syn.TCP.MSS = 1448
	syn.TCP.WScale = tcpseg.WindowScale
	syn.TCP.SACKPerm = s.prof.Recovery == RecoverySACK
	s.iface.Send(s.frames.NewFrame(syn, s.eng.Now()))
}

func (s *Stack) newConn(flow packet.Flow, peerMAC packet.EtherAddr) *bconn {
	c := &bconn{
		stack:        s,
		flow:         flow,
		flowHash:     flow.Hash(),
		revHash:      flow.Reverse().Hash(),
		peerMAC:      peerMAC,
		iss:          uint32(s.rng.Uint64()) + 1,
		tx:           shm.NewPayloadBuf(s.bufSize),
		rx:           shm.NewPayloadBuf(s.bufSize),
		rxAvail:      s.bufSize,
		cwnd:         10 * 1448,
		ssthresh:     1 << 30,
		remoteWin:    s.bufSize,
		finAt:        ^uint64(0),
		lastProgress: s.eng.Now(),
	}
	s.installConn(c)
	return c
}

// handshake processes segments for unknown flows (SYN, SYN-ACK, final
// ACK) with a simplified three-way handshake.
func (s *Stack) handshake(pkt *packet.Packet, flow packet.Flow) {
	tcp := &pkt.TCP
	switch {
	case tcp.HasFlag(packet.FlagSYN | packet.FlagACK):
		// This side sent the SYN: the conn exists keyed by flow.
		// (handled below via conns lookup in rx — unreachable here)
	case tcp.HasFlag(packet.FlagSYN):
		l, ok := s.listeners[tcp.DstPort]
		if !ok {
			return
		}
		if max := s.prof.ListenBacklog; max > 0 && l.pendingN >= max {
			// SYN-queue overflow: drop silently (no RST), like a kernel
			// under a SYN flood. The peer's SYN retransmission — or, in
			// this simulation, the dial simply never completing — is the
			// observable effect.
			s.SYNDrops++
			s.BacklogOverflows++
			return
		}
		c := s.newConn(flow, pkt.Eth.Src)
		c.halfOpen = true
		l.pendingN++
		c.irs = tcp.Seq + 1
		c.synDone = true
		c.sackOK = tcp.SACKPerm && s.prof.Recovery == RecoverySACK
		if tcp.Window > 0 {
			c.remoteWin = uint32(tcp.Window) << tcpseg.WindowScale
		}
		sa := s.mkPacket(c, c.iss-1, packet.FlagSYN|packet.FlagACK)
		sa.TCP.Ack = c.irs
		sa.TCP.MSS = 1448
		sa.TCP.WScale = tcpseg.WindowScale
		sa.TCP.SACKPerm = c.sackOK
		s.iface.Send(s.frames.NewFrame(sa, s.eng.Now()))
		c.sock = newBSocket(c)
		c.connected = l.accept
		s.own.ImmediatelyCall(bconnConnected, c)
	}
}

// bconnConnected hands a freshly opened connection's socket to its
// accept (passive open) or dial (active open) callback.
func bconnConnected(a any) {
	c := a.(*bconn)
	c.connected(c.sock)
}

// connHandshakeRx handles SYN-ACK completion for active opens; called
// from rx when the conn exists but isn't established yet.
func (s *Stack) connHandshakeRx(c *bconn, pkt *packet.Packet) bool {
	tcp := &pkt.TCP
	if c.active && !c.synDone && tcp.HasFlag(packet.FlagSYN|packet.FlagACK) {
		c.irs = tcp.Seq + 1
		c.synDone = true
		c.sackOK = tcp.SACKPerm && s.prof.Recovery == RecoverySACK
		if tcp.Window > 0 {
			c.remoteWin = uint32(tcp.Window) << tcpseg.WindowScale
		}
		s.sendAck(c, false)
		c.sock = newBSocket(c)
		if c.connected != nil {
			s.own.ImmediatelyCall(bconnConnected, c)
		}
		return true
	}
	return false
}

// bsocket implements api.Socket over the baseline engine.
type bsocket struct {
	c          *bconn
	readable   uint32
	onReadable func()
	onWritable func()
	closedFlag bool
}

func newBSocket(c *bconn) *bsocket { return &bsocket{c: c} }

var _ api.Socket = (*bsocket)(nil)

func (k *bsocket) LocalAddr() api.Addr {
	return api.Addr{IP: k.c.flow.SrcIP, Port: k.c.flow.SrcPort}
}

func (k *bsocket) RemoteAddr() api.Addr {
	return api.Addr{IP: k.c.flow.DstIP, Port: k.c.flow.DstPort}
}

func (k *bsocket) Readable() int { return int(k.readable) }

func (k *bsocket) TxSpace() int {
	return int(uint64(k.c.tx.Size()) - (k.c.appended - k.c.una))
}

func (k *bsocket) OnReadable(f func()) { k.onReadable = f }
func (k *bsocket) OnWritable(f func()) { k.onWritable = f }

// Peek returns the readable byte stream as up to two slices of the
// kernel socket buffer. The baseline personalities implement the
// zero-copy view API so identical application binaries run across all
// four stacks, but — unlike libTOE — the per-byte cost is not avoided:
// the kernel already paid the skb-to-socket-buffer copy on the segment
// path, and Consume/Commit keep charging it. The views only spare the
// application its own staging buffers.
func (k *bsocket) Peek() (a, b []byte) {
	return k.c.rx.Slices(uint32(k.c.readPos), k.readable)
}

// Consume releases the first n readable bytes, reopening the receive
// window and charging the socket-call cost (including the kernel copy,
// which a kernel-mediated stack cannot eliminate).
func (k *bsocket) Consume(n int) {
	if n == 0 {
		return
	}
	if n < 0 || uint32(n) > k.readable {
		panic("baseline: Consume beyond readable bytes")
	}
	c := k.c
	s := c.stack
	c.readPos += uint64(n)
	c.rx.Release(uint32(n))
	k.readable -= uint32(n)
	if c.rxAvail>>tcpseg.WindowScale == 0 {
		c.needWinUpdate = true
	}
	c.rxAvail += uint32(n)
	cost := s.prof.SocketPerOp + int64(float64(n)*s.prof.PerByte)
	c.appCore().SubmitCall(sim.TaskC(cost), bconnRecvDone, c)
}

// Reserve returns up to n bytes of free socket transmit buffer to stage
// into, starting at the current append position.
func (k *bsocket) Reserve(n int) (a, b []byte) {
	if n <= 0 {
		return nil, nil
	}
	if free := k.TxSpace(); n > free {
		n = free
	}
	return k.c.tx.Slices(uint32(k.c.appended), uint32(n))
}

// Commit publishes the next n staged bytes and triggers transmission,
// charging the socket-call cost on the application's core.
func (k *bsocket) Commit(n int) {
	if n == 0 {
		return
	}
	if n < 0 || n > k.TxSpace() {
		panic("baseline: Commit beyond transmit buffer space")
	}
	c := k.c
	s := c.stack
	c.appended += uint64(n)
	cost := s.prof.SocketPerOp + int64(float64(n)*s.prof.PerByte)
	if s.prof.ASIC {
		// Kernel-mediated TOE API: the host driver runs per write.
		cost += s.prof.DriverPerSeg + s.prof.OtherPerSeg
	}
	c.appCore().SubmitCall(sim.TaskC(cost), bconnTxPump, c)
}

// Send copies into the socket buffer and triggers transmission: the
// compatibility wrapper over Reserve/Commit.
func (k *bsocket) Send(p []byte) int {
	a, b := k.Reserve(len(p))
	n := copy(a, p)
	n += copy(b, p[n:])
	if n == 0 {
		return 0
	}
	k.Commit(n)
	return n
}

// bconnTxPump / bconnRecvDone are the socket calls' charged completions
// (see host.Core.SubmitCall).
func bconnTxPump(a any) {
	c := a.(*bconn)
	c.stack.txPump(c)
}

func bconnRecvDone(a any) {
	c := a.(*bconn)
	if c.needWinUpdate {
		c.needWinUpdate = false
		c.stack.sendAck(c, false) // window update
	}
}

// Recv drains readable bytes, reopening the receive window: the
// compatibility wrapper over Peek/Consume.
func (k *bsocket) Recv(p []byte) int {
	a, b := k.Peek()
	n := copy(p, a)
	if n < len(p) {
		n += copy(p[n:], b)
	}
	if n == 0 {
		return 0
	}
	k.Consume(n)
	return n
}

// Close sends FIN after buffered data.
func (k *bsocket) Close() {
	if k.closedFlag {
		return
	}
	k.closedFlag = true
	c := k.c
	c.finAt = c.appended
	c.stack.txPump(c)
}

// rxArrived is the engine's delivery notification: the application wakes
// (paying the stack's wakeup latency if it was sleeping) and is charged
// the host-side delivery cost. On the Chelsio personality this is where
// the host pays its driver and kernel-glue cycles — the ASIC did the TCP
// work, but the "sophisticated TOE NIC driver" (§2.1) still runs here.
func (k *bsocket) rxArrived(n uint32) {
	if n == 0 {
		return
	}
	k.readable += n
	if k.onReadable != nil {
		core := k.c.appCore()
		cb := k.onReadable
		prof := &k.c.stack.prof
		cycles := prof.SocketPerOp / 4
		if prof.ASIC {
			cycles += prof.DriverPerSeg + prof.OtherPerSeg
		}
		task := sim.TaskC(cycles)
		// Inline stacks already paid the wakeup at interrupt time (rx);
		// only dedicated-core and ASIC personalities wake the app here.
		distinct := len(k.c.stack.stackCores) > 0 || prof.ASIC
		if distinct && !core.Busy() && prof.NotifyWakeupUs > 0 {
			task = task.Add(0, sim.Time(prof.NotifyWakeupUs*float64(sim.Microsecond)))
		}
		if prof.ASIC && prof.SpikeProb > 0 && k.c.stack.rng.Bool(prof.SpikeProb) {
			// The TOE's kernel-mediated delivery path still suffers
			// interrupt/scheduler spikes — the tail §5.2 measures.
			task = task.Add(0, sim.Time(k.c.stack.rng.Exp(prof.SpikeMeanUs)*float64(sim.Microsecond)))
		}
		core.SubmitCall(task, sim.RunFunc, cb)
	}
}

// txFreed reports acknowledged bytes.
func (k *bsocket) txFreed(n uint32) {
	if k.onWritable != nil {
		k.onWritable()
	}
}

// peerClosed reports the peer's FIN.
func (k *bsocket) peerClosed() {
	if k.onReadable != nil {
		k.onReadable()
	}
}
