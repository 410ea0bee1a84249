package baseline

import (
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/api/apitest"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// lifePair is an echo server and a client stack; sockets of both ends
// are kept by the connection's client port.
type lifePair struct {
	t              *testing.T
	eng            *sim.Engine
	client, server *Stack
	srv            api.Addr
	accepted       map[uint16]api.Socket
}

const lifeMsg = 2000

func newLifePair(t *testing.T, prof Profile) *lifePair {
	p := &lifePair{t: t, accepted: make(map[uint16]api.Socket)}
	p.eng, p.client, p.server, p.srv = newPair(prof, func(s api.Socket) {
		p.accepted[s.RemoteAddr().Port] = s
		buf := make([]byte, lifeMsg)
		s.OnReadable(func() {
			if n := apitest.Read(s, buf); n > 0 {
				apitest.Write(s, buf[:n])
			}
		})
	})
	return p
}

// echo dials one connection, sends lifeMsg bytes and runs until they are
// back; it returns the client's and the server's end.
func (p *lifePair) echo() (cc, sc *bconn) {
	p.t.Helper()
	var sock api.Socket
	back := 0
	p.client.Dial(p.srv, func(s api.Socket) {
		sock = s
		buf := make([]byte, lifeMsg)
		s.OnReadable(func() { back += apitest.Read(s, buf) })
		apitest.Write(s, buf)
	})
	p.eng.RunUntil(p.eng.Now() + 2*sim.Millisecond)
	if sock == nil || back != lifeMsg {
		p.t.Fatalf("echo: connected %v, %d of %d bytes back", sock != nil, back, lifeMsg)
	}
	return sock.(*bsocket).c, p.accepted[sock.LocalAddr().Port].(*bsocket).c
}

// closeBoth closes both ends and runs until both FINs are acknowledged.
func (p *lifePair) closeBoth(cc, sc *bconn) {
	p.t.Helper()
	cc.sock.Close()
	sc.sock.Close()
	p.eng.RunUntil(p.eng.Now() + sim.Millisecond)
	for _, c := range []*bconn{cc, sc} {
		if !c.finAcked || !c.peerFin || !c.live {
			p.t.Fatalf("after close: finAcked %v peerFin %v live %v, want a live, fully closed connection", c.finAcked, c.peerFin, c.live)
		}
	}
}

// freeRing returns a stack's recyclable slot ids, oldest first.
func freeRing(s *Stack) []uint32 { return s.free[s.freeHead:] }

// TestBaselineCloseLingerReclaim drives connections through their whole
// life on each personality: dial, echo, close both ends, linger, reclaim.
// The slots return through the FIFO free ring and go to the next dials
// oldest first; nothing is left on the engine once the linger has passed;
// and a timer still in flight when its connection is removed fires as a
// no-op (btimerFire's !c.live arm).
func TestBaselineCloseLingerReclaim(t *testing.T) {
	for _, prof := range []Profile{LinuxProfile(), TASProfile(), ChelsioProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			p := newLifePair(t, prof)
			// A timer armed at close fires after one RTO and then lingers
			// 4·MinRTO; 6·MinRTO covers both.
			settle := 6 * prof.MinRTO

			a, sa := p.echo()
			b, sb := p.echo()
			if a.id != 0 || b.id != 1 || p.client.NumConns() != 2 || p.server.NumConns() != 2 {
				t.Fatalf("slots %d, %d with %d client / %d server connections, want 0, 1 with 2 / 2",
					a.id, b.id, p.client.NumConns(), p.server.NumConns())
			}
			p.closeBoth(b, sb)
			p.closeBoth(a, sa)
			p.eng.RunUntil(p.eng.Now() + settle)
			if p.client.NumConns() != 0 || p.server.NumConns() != 0 {
				t.Fatalf("%d client / %d server connections after the linger, want 0 / 0", p.client.NumConns(), p.server.NumConns())
			}
			if n := p.eng.Pending(); n != 0 {
				t.Fatalf("%d events pending after the linger, want 0 (orphan timer)", n)
			}
			if a.live || b.live || p.client.slots[0] != nil || p.client.slots[1] != nil {
				t.Fatalf("reclaimed connections still live or in their slots")
			}
			// Reclaim order is the timers' business; hand-out order must be it.
			ring := append([]uint32(nil), freeRing(p.client)...)
			if len(ring) != 2 || ring[0]+ring[1] != 1 {
				t.Fatalf("client free ring %v, want slots 0 and 1", ring)
			}

			c, sc := p.echo()
			d, sd := p.echo()
			if c.id != ring[0] || d.id != ring[1] || len(freeRing(p.client)) != 0 || len(p.client.slots) != 2 {
				t.Fatalf("next dials got slots %d, %d of %d, want %v of 2 (FIFO reuse)", c.id, d.id, len(p.client.slots), ring)
			}
			p.closeBoth(d, sd)
			p.eng.RunUntil(p.eng.Now() + settle)
			if p.client.NumConns() != 1 || p.server.NumConns() != 1 || p.eng.Pending() != 0 {
				t.Fatalf("%d client / %d server connections, %d events, want 1 / 1 idle",
					p.client.NumConns(), p.server.NumConns(), p.eng.Pending())
			}

			// Remove a connection under its own armed timer.
			p.closeBoth(c, sc)
			if !c.rtoArmed || !sc.rtoArmed || p.eng.Pending() == 0 {
				t.Fatalf("armed %v / %v with %d events pending, want both linger timers in flight", c.rtoArmed, sc.rtoArmed, p.eng.Pending())
			}
			p.client.removeConn(c)
			p.server.removeConn(sc)
			type snap struct {
				live, free             int
				tx, rx, rtos, retxSegs uint64
			}
			take := func(s *Stack) snap {
				return snap{s.NumConns(), len(freeRing(s)), s.TxSegs, s.RxSegs, s.Retransmits, s.RetxSegs}
			}
			wantC, wantS := take(p.client), take(p.server)
			if wantC.live != 0 || wantS.live != 0 {
				t.Fatalf("%d client / %d server connections after removeConn, want 0 / 0", wantC.live, wantS.live)
			}
			p.eng.RunUntil(p.eng.Now() + settle)
			if gotC, gotS := take(p.client), take(p.server); gotC != wantC || gotS != wantS {
				t.Errorf("stale timer fire changed state: client %+v -> %+v, server %+v -> %+v", wantC, gotC, wantS, gotS)
			}
			if n := p.eng.Pending(); n != 0 {
				t.Errorf("%d events pending after the stale fires, want 0", n)
			}
		})
	}
}

// TestStraySYNACKDropped sends a SYN-ACK that meets no connection — a late
// duplicate after linger reclaim looks like this — to a listening port on
// each personality. The handshake must drop it: no connection, no SYN
// drop counted (it is not a SYN), and every loan back once the run is
// quiet.
func TestStraySYNACKDropped(t *testing.T) {
	for _, prof := range []Profile{LinuxProfile(), TASProfile(), ChelsioProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			eng, client, server, srv := newPair(prof, func(api.Socket) { t.Error("a stray SYN-ACK was accepted") })
			pkt := client.pkts.Get()
			pkt.Eth = packet.Ethernet{Src: client.localMAC, Dst: server.localMAC, EtherType: packet.EtherTypeIPv4}
			pkt.IP = packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: client.localIP, Dst: srv.IP}
			pkt.TCP = packet.TCP{SrcPort: 40000, DstPort: srv.Port, Seq: 77, Ack: 1234,
				Flags: packet.FlagSYN | packet.FlagACK, Window: 512, MSS: mss, WScale: -1}
			client.iface.Send(client.frames.NewFrame(pkt, eng.Now()))
			eng.RunUntil(sim.Millisecond)
			if server.NumConns() != 0 || server.SYNDrops != 0 || server.RxSegs != 0 {
				t.Errorf("%d connections, SYNDrops %d, RxSegs %d after a stray SYN-ACK, want 0, 0, 0",
					server.NumConns(), server.SYNDrops, server.RxSegs)
			}
			if err := eng.Unreturned(); err != nil {
				t.Error(err)
			}
		})
	}
}
