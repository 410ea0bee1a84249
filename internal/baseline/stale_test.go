package baseline

import (
	"bytes"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/host"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// stalePair is two stacks of one personality on a direct link with one
// connection that has carried `sent` bytes client to server, none of them
// read by the server application yet.
type stalePair struct {
	eng            *sim.Engine
	client, server *Stack
	cc, sc         *bconn
}

const staleSent = 3000

// newPair is two stacks of one personality on a direct link, the server
// listening on port 7000 with the given accept handler.
func newPair(prof Profile, accept func(api.Socket)) (eng *sim.Engine, client, server *Stack, srv api.Addr) {
	eng = sim.New()
	macC, macS := packet.MAC(2, 0, 0, 0, 0, 1), packet.MAC(2, 0, 0, 0, 0, 2)
	ipC, ipS := packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2)
	ifC := netsim.NewIface(eng, "c", macC, 5e9)
	ifS := netsim.NewIface(eng, "s", macS, 5e9)
	netsim.Connect(ifC, ifS, sim.Microsecond)
	client = NewStack(eng, prof, ifC, host.NewMachine(eng, "c", 2, 2_000_000_000), ipC, 65536, 1)
	server = NewStack(eng, prof, ifS, host.NewMachine(eng, "s", 2, 2_000_000_000), ipS, 65536, 2)
	client.ResolveMAC = func(packet.IPv4Addr) packet.EtherAddr { return macS }
	server.ResolveMAC = func(packet.IPv4Addr) packet.EtherAddr { return macC }
	server.Listen(7000, accept)
	return eng, client, server, api.Addr{IP: ipS, Port: 7000}
}

func newStalePair(t *testing.T, prof Profile) *stalePair {
	t.Helper()
	eng, client, server, srv := newPair(prof, func(api.Socket) {})
	p := &stalePair{eng: eng, client: client, server: server}
	payload := make([]byte, staleSent)
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	p.client.Dial(srv, func(s api.Socket) {
		if n := s.Send(payload); n != len(payload) {
			t.Errorf("Send accepted %d of %d bytes", n, len(payload))
		}
	})
	eng.RunUntil(5 * sim.Millisecond)
	if p.client.nLive != 1 || p.server.nLive != 1 {
		t.Fatalf("%s: %d client / %d server connections, want 1 / 1", prof.Name, p.client.nLive, p.server.nLive)
	}
	p.cc, p.sc = p.client.slots[0], p.server.slots[0]
	if p.sc.rcvd != staleSent || p.cc.una != staleSent {
		t.Fatalf("%s: server rcvd %d, client una %d, want %d", prof.Name, p.sc.rcvd, p.cc.una, staleSent)
	}
	return p
}

// inject delivers a hand-built segment to a stack as if it came off the
// wire from conn's peer, and runs the simulation until it has been
// processed and answered.
func (p *stalePair) inject(to *Stack, conn *bconn, seq, ack uint32, payload []byte) {
	peer := conn.flow.Reverse()
	pkt := to.pkts.Get()
	pkt.Eth = packet.Ethernet{Src: conn.peerMAC, Dst: to.localMAC, EtherType: packet.EtherTypeIPv4}
	pkt.IP = packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: peer.SrcIP, Dst: peer.DstIP}
	pkt.TCP = packet.TCP{
		SrcPort: peer.SrcPort, DstPort: peer.DstPort, Seq: seq, Ack: ack,
		Flags: packet.FlagACK, Window: uint16(conn.remoteWin >> tcpseg.WindowScale), WScale: -1,
	}
	if len(payload) > 0 {
		copy(pkt.GrowPayload(len(payload)), payload)
	}
	to.rx(to.frames.NewFrame(pkt, p.eng.Now()))
	p.eng.RunUntil(p.eng.Now() + 5*sim.Millisecond)
}

// TestStaleSegmentAndAckBehindYoungConnection replays a segment and an
// acknowledgment from before the stream began at a connection only 3 000
// bytes old, so the unwrapped offset is negative. rcvOff/ackOff used to
// return it wrapped to a huge uint64 and rely on a later window check: a
// segment wholly before the stream happened to be rejected there, but
// one straddling offset zero wrapped back inside the window, entered the
// reassembly set as the interval [2^32-k, j) and overwrote delivered,
// unread bytes in the receive ring. All three personalities must now
// acknowledge it as the stale duplicate it is and change nothing.
func TestStaleSegmentAndAckBehindYoungConnection(t *testing.T) {
	for _, prof := range []Profile{LinuxProfile(), TASProfile(), ChelsioProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			p := newStalePair(t, prof)
			sc, cc := p.sc, p.cc
			a, b := sc.sock.Peek()
			want := append(append([]byte(nil), a...), b...)
			if len(want) != staleSent {
				t.Fatalf("server holds %d readable bytes, want %d", len(want), staleSent)
			}
			junk := bytes.Repeat([]byte{0xEE}, 1000)

			// Stale data: how far behind rcv.nxt the segment starts, and
			// how long it is.
			for _, seg := range []struct {
				name   string
				behind uint32
				n      int
			}{
				{"wholly before the stream", staleSent + 2000, 1000},
				{"ending exactly at offset zero", staleSent + 1000, 1000},
				{"straddling offset zero", staleSent + 5, 10},
				{"nearly 2^31 behind", 1<<31 - 1, 1000},
			} {
				rcvd, avail, acksSeen := sc.rcvd, sc.rxAvail, p.client.RxSegs
				accepted, dropped := p.server.OOOAccepted, p.server.OOODropped
				if off, ok := sc.rcvOff(sc.irs + uint32(sc.rcvd) - seg.behind); ok {
					t.Fatalf("%s: rcvOff = %d, ok; want a rejected unwrap", seg.name, off)
				}
				p.inject(p.server, sc, sc.irs+uint32(sc.rcvd)-seg.behind, sc.sndSeq(sc.nxt), junk[:seg.n])
				if sc.rcvd != rcvd || sc.rxAvail != avail || len(sc.ivs) != 0 ||
					p.server.OOOAccepted != accepted || p.server.OOODropped != dropped {
					t.Errorf("%s: rcvd %d->%d rxAvail %d->%d ivs %v OOO accepted +%d dropped +%d, want no change",
						seg.name, rcvd, sc.rcvd, avail, sc.rxAvail, sc.ivs,
						p.server.OOOAccepted-accepted, p.server.OOODropped-dropped)
				}
				a, b := sc.sock.Peek()
				if got := append(append([]byte(nil), a...), b...); !bytes.Equal(got, want) {
					t.Errorf("%s: delivered, unread bytes were overwritten", seg.name)
				}
				if got := p.client.RxSegs - acksSeen; got != 1 {
					t.Errorf("%s: answered with %d segments, want one duplicate ACK", seg.name, got)
				}
			}

			// Stale ACKs: acknowledgment numbers from before iss.
			for _, behind := range []uint32{staleSent + 1, staleSent + 1000, 1<<31 - 1} {
				una, nxt, cwnd, dupacks, dups := cc.una, cc.nxt, cc.cwnd, cc.dupacks, p.client.DupAcks
				ack := cc.iss + uint32(cc.una) - behind
				if off, ok := cc.ackOff(ack); ok {
					t.Fatalf("ack %d behind: ackOff = %d, ok; want a rejected unwrap", behind, off)
				}
				p.inject(p.client, cc, cc.irs+uint32(cc.rcvd), ack, nil)
				if cc.una != una || cc.nxt != nxt || cc.cwnd != cwnd || cc.dupacks != dupacks ||
					p.client.DupAcks != dups || cc.finAcked {
					t.Errorf("ack %d behind una: una %d->%d nxt %d->%d cwnd %d->%d dupacks %d->%d DupAcks +%d finAcked %v, want no change",
						behind, una, cc.una, nxt, cc.nxt, cwnd, cc.cwnd, dupacks, cc.dupacks, p.client.DupAcks-dups, cc.finAcked)
				}
			}
		})
	}
}
