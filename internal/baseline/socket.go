package baseline

import (
	"fmt"

	"flextoe/internal/api"
	"flextoe/internal/packet"
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
	flow := s.ephemeral(packet.Flow{SrcIP: s.localIP, DstIP: remote.IP, DstPort: remote.Port})
	mac := packet.EtherAddr{}
	if s.ResolveMAC != nil {
		mac = s.ResolveMAC(remote.IP)
	}
	c := s.newConn(flow, mac)
	c.connected = connected
	s.sendSYN(c, packet.FlagSYN, s.prof.Recovery == RecoverySACK)
}

// sendSYN sends a handshake segment with its option trio.
func (s *Stack) sendSYN(c *bconn, flags uint8, sackPerm bool) {
	syn := s.mkPacket(c, c.iss-1, flags)
	syn.TCP.MSS, syn.TCP.WScale, syn.TCP.SACKPerm = mss, tcpseg.WindowScale, sackPerm
	s.iface.Send(s.frames.NewFrame(syn, s.eng.Now()))
}

// ephemeral gives flow the next source port whose 4-tuple is not live —
// one flow-index probe, which covers half-open connections too — and
// counts the ports it passes over. The counter wraps past 65 535 and never
// hands out port 0.
func (s *Stack) ephemeral(flow packet.Flow) packet.Flow {
	for range 1 << 16 {
		s.nextPort++
		if s.nextPort == 0 {
			continue
		}
		flow.SrcPort = s.nextPort
		if _, live := s.flowIdx.Lookup(flow); !live {
			return flow
		}
		s.PortSkips++
	}
	panic(fmt.Sprintf("baseline: every source port toward %v:%d is in use", flow.DstIP, flow.DstPort))
}

func (s *Stack) newConn(flow packet.Flow, peerMAC packet.EtherAddr) *bconn {
	c := &bconn{
		tcb:      newTCB(&s.stackEnv, uint32(s.rng.Uint64())+1, s.bufSize, s.eng.Now()),
		stack:    s,
		flow:     flow,
		flowHash: flow.Hash(),
		revHash:  flow.Reverse().Hash(),
		peerMAC:  peerMAC,
	}
	c.setCores()
	s.installConn(c)
	return c
}

// handshake runs a simplified three-way handshake for a segment that
// meets no established connection: c is nil (no connection for its flow)
// or an active open still awaiting its SYN-ACK. It reports whether it
// consumed the segment: every segment when c is nil, and the SYN-ACK
// otherwise; an active open's other segments take the data path.
func (s *Stack) handshake(c *bconn, pkt *packet.Packet, flow packet.Flow) bool {
	tcp := &pkt.TCP
	var l *blistener
	switch {
	case tcp.HasFlag(packet.FlagSYN | packet.FlagACK):
		// Completes an active open. A SYN-ACK that meets no connection
		// (a late duplicate after linger reclaim, say) is dropped. This
		// case stays ahead of the SYN case: HasFlag(SYN) matches SYN|ACK.
		if c == nil {
			return true
		}
	case c != nil:
		return false // an active open's segment before its SYN-ACK
	case tcp.HasFlag(packet.FlagSYN):
		if l = s.listeners[tcp.DstPort]; l == nil {
			return true
		}
		if max := s.prof.ListenBacklog; max > 0 && l.pendingN >= max {
			// SYN-queue overflow: drop silently (no RST), like a kernel
			// under a SYN flood. The peer's SYN retransmission — or, in
			// this simulation, the dial simply never completing — is the
			// observable effect.
			s.SYNDrops++
			s.BacklogOverflows++
			return true
		}
		c = s.newConn(flow, pkt.Eth.Src)
		c.halfOpen = true
		l.pendingN++
	default:
		return true
	}
	c.synRcvd(tcp)
	if l != nil {
		s.sendSYN(c, packet.FlagSYN|packet.FlagACK, c.sackOK)
		c.connected = l.accept
	} else {
		c.ack(false)
	}
	c.sock = &bsocket{c: c}
	if c.connected != nil {
		s.own.ImmediatelyCall(bconnConnected, c)
	}
	return true
}

// bconnConnected hands a freshly opened connection's socket to its
// accept (passive open) or dial (active open) callback.
func bconnConnected(a any) {
	c := a.(*bconn)
	c.connected(c.sock)
}

// bsocket implements api.Socket over the baseline engine.
type bsocket struct {
	c          *bconn
	readable   uint32
	onReadable func()
	onWritable func()
	closedFlag bool
}

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
// application its own staging buffers. The view is read-only; a ring
// that has received only zeros lends the shared zero array.
func (k *bsocket) Peek() (a, b []byte) {
	return k.c.rx.ReadSlices(uint32(k.c.readPos), k.readable)
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
	k.readable -= uint32(n)
	c.consume(uint32(n))
	cost := s.prof.SocketPerOp + int64(float64(n)*s.prof.PerByte)
	c.appCore.SubmitStepCall(sim.Step{Compute: cost}, bconnRecvDone, c)
}

// Reserve returns up to n bytes of free socket transmit buffer to stage
// into, starting at the current append position.
func (k *bsocket) Reserve(n int) (a, b []byte) {
	if n <= 0 {
		return nil, nil
	}
	return k.c.tx.Slices(uint32(k.c.appended), uint32(min(n, k.TxSpace())))
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
	c.commit(uint64(n))
	cost := s.prof.SocketPerOp + int64(float64(n)*s.prof.PerByte)
	if s.prof.ASIC {
		// Kernel-mediated TOE API: the host driver runs per write.
		cost += s.prof.DriverPerSeg + s.prof.OtherPerSeg
	}
	c.appCore.SubmitStepCall(sim.Step{Compute: cost}, bconnTxPump, c)
}

// bconnTxPump / bconnRecvDone are the socket calls' charged completions
// (see host.Core.SubmitStepCall).
func bconnTxPump(a any) { a.(*bconn).pump() }

func bconnRecvDone(a any) {
	c := a.(*bconn)
	c.consumed(c)
}

// Close sends FIN after buffered data.
func (k *bsocket) Close() {
	if k.closedFlag {
		return
	}
	k.closedFlag = true
	k.c.close(k.c)
}

// readable is the step's delivery notification: the application wakes
// (paying the stack's wakeup latency if it was sleeping) and is charged
// the host-side delivery cost. On the Chelsio personality this is where
// the host pays its driver and kernel-glue cycles — the ASIC did the TCP
// work, but the "sophisticated TOE NIC driver" (§2.1) still runs here.
func (c *bconn) readable(n uint32) {
	k := c.sock
	if k == nil || n == 0 {
		return
	}
	k.readable += n
	if k.onReadable != nil {
		core := c.appCore
		cb := k.onReadable
		s := c.stack
		prof := &s.prof
		step := sim.Step{Compute: prof.SocketPerOp / 4}
		if prof.ASIC {
			step.Compute += prof.DriverPerSeg + prof.OtherPerSeg
		}
		// Inline stacks already paid the wakeup at interrupt time (rx);
		// only dedicated-core and ASIC personalities wake the app here.
		distinct := len(s.stackCores) > 0 || prof.ASIC
		if distinct && !core.Busy() && prof.NotifyWakeupUs > 0 {
			step.Stall += sim.Time(prof.NotifyWakeupUs * float64(sim.Microsecond))
		}
		if prof.ASIC && prof.SpikeProb > 0 && s.rng.Bool(prof.SpikeProb) {
			// The TOE's kernel-mediated delivery path still suffers
			// interrupt/scheduler spikes — the tail §5.2 measures.
			step.Stall += sim.Time(s.rng.Exp(prof.SpikeMeanUs) * float64(sim.Microsecond))
		}
		core.SubmitStepCall(step, sim.RunFunc, cb)
	}
}

func (c *bconn) writable() {
	if c.sock != nil && c.sock.onWritable != nil {
		c.sock.onWritable()
	}
}

func (c *bconn) peerClosed() {
	if c.sock != nil && c.sock.onReadable != nil {
		c.sock.onReadable()
	}
}
