package libtoe_test

import (
	"bytes"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/api/apitest"
	"flextoe/internal/core"
	"flextoe/internal/ctrl"
	"flextoe/internal/host"
	"flextoe/internal/libtoe"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

func buildStacks(t *testing.T) (*sim.Engine, *libtoe.Stack, *libtoe.Stack) {
	t.Helper()
	eng := sim.New()
	n := netsim.NewNetwork(eng, netsim.SwitchConfig{})
	macA := packet.MAC(2, 0, 0, 0, 0, 1)
	macB := packet.MAC(2, 0, 0, 0, 0, 2)
	rate := netsim.GbpsToBytesPerSec(40)
	ifA := n.AttachHost("a", macA, rate, 100*sim.Nanosecond)
	ifB := n.AttachHost("b", macB, rate, 100*sim.Nanosecond)
	toeA := core.New(eng, core.AgilioCX40Config(), ifA)
	toeB := core.New(eng, core.AgilioCX40Config(), ifB)
	ipA, ipB := packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2)
	ctrlA := ctrl.New(eng, toeA, ctrl.Config{LocalIP: ipA, LocalMAC: macA, Seed: 1})
	ctrlB := ctrl.New(eng, toeB, ctrl.Config{LocalIP: ipB, LocalMAC: macB, Seed: 2})
	sa := libtoe.NewStack(eng, toeA, ctrlA, host.NewMachine(eng, "a", 2, 2e9), ipA)
	sb := libtoe.NewStack(eng, toeB, ctrlB, host.NewMachine(eng, "b", 2, 2e9), ipB)
	resolve := func(ip packet.IPv4Addr) packet.EtherAddr {
		if ip == ipA {
			return macA
		}
		return macB
	}
	sa.ResolveMAC = resolve
	sb.ResolveMAC = resolve
	return eng, sa, sb
}

func TestSocketSendRecv(t *testing.T) {
	eng, sa, sb := buildStacks(t)
	var got []byte
	sb.Listen(80, func(sock api.Socket) {
		buf := make([]byte, 1024)
		sock.OnReadable(func() {
			for {
				n := apitest.Read(sock, buf)
				if n == 0 {
					return
				}
				got = append(got, buf[:n]...)
			}
		})
	})
	msg := []byte("libtoe sockets over the offloaded data-path")
	eng.AfterCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(sock api.Socket) {
			if n := apitest.Write(sock, msg); n != len(msg) {
				t.Errorf("Write = %d", n)
			}
		})
	}, nil)
	eng.RunUntil(10 * sim.Millisecond)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestSocketAddrs(t *testing.T) {
	eng, sa, sb := buildStacks(t)
	var server, client api.Socket
	sb.Listen(80, func(s api.Socket) { server = s })
	eng.AfterCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(s api.Socket) { client = s })
	}, nil)
	eng.RunUntil(5 * sim.Millisecond)
	if server == nil || client == nil {
		t.Fatal("connection not established")
	}
	if server.LocalAddr().Port != 80 {
		t.Fatalf("server local = %+v", server.LocalAddr())
	}
	if client.RemoteAddr().Port != 80 || client.RemoteAddr().IP != sb.LocalIP() {
		t.Fatalf("client remote = %+v", client.RemoteAddr())
	}
	if client.LocalAddr().Port != server.RemoteAddr().Port {
		t.Fatal("port mismatch between the two views")
	}
}

func TestSocketBackpressure(t *testing.T) {
	// Writes beyond the TX buffer return partial counts; space returns as
	// acks free it.
	eng, sa, sb := buildStacks(t)
	received := 0
	sb.Listen(80, func(sock api.Socket) {
		buf := make([]byte, 65536)
		sock.OnReadable(func() {
			for {
				n := apitest.Read(sock, buf)
				if n == 0 {
					return
				}
				received += n
			}
		})
	})
	total := 0
	const want = 300000 // several times the 64KB socket buffer
	eng.AfterCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(sock api.Socket) {
			chunk := make([]byte, 16384)
			push := func() {
				for total < want {
					n := apitest.Write(sock, chunk[:min(len(chunk), want-total)])
					if n == 0 {
						return // buffer full: resume on writable
					}
					total += n
				}
			}
			sock.OnWritable(push)
			push()
			if total >= want {
				t.Error("entire transfer fit the socket buffer; backpressure untested")
			}
		})
	}, nil)
	eng.RunUntil(100 * sim.Millisecond)
	if received != want {
		t.Fatalf("received %d/%d", received, want)
	}
}

func TestSocketClosePropagatesFIN(t *testing.T) {
	eng, sa, sb := buildStacks(t)
	var serverSock *libtoe.Socket
	sb.Listen(80, func(sock api.Socket) { serverSock = sock.(*libtoe.Socket) })
	eng.AfterCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(sock api.Socket) {
			apitest.Write(sock, []byte("bye"))
			sock.Close()
		})
	}, nil)
	eng.RunUntil(10 * sim.Millisecond)
	if serverSock == nil {
		t.Fatal("no server socket")
	}
	if !serverSock.FinRx() {
		t.Fatal("peer FIN not observed")
	}
	buf := make([]byte, 16)
	if n := apitest.Read(serverSock, buf); n != 3 || string(buf[:3]) != "bye" {
		t.Fatalf("data before FIN lost: %q", buf[:n])
	}
}

// TestNotifyWakeupOnlyWhenIdle pins the idle-only wakeup charge on all
// four personalities: the time from a request landing at the server's NIC
// to the server's OnReadable includes the stack's wakeup latency when the
// application core sleeps, and does not when the core is busy on a queued
// task (a busy application polls). libTOE charges the wakeup in notify;
// the baselines at interrupt time (Linux, whose stack runs inline) or at
// delivery (TAS, Chelsio).
func TestNotifyWakeupOnlyWhenIdle(t *testing.T) {
	const busy = 100 * sim.Microsecond // outlasts every path from the NIC to the notification
	for _, kind := range testbed.AllStacks {
		t.Run(string(kind), func(t *testing.T) {
			idle, wake := landToReadable(t, kind, 0)
			queued, _ := landToReadable(t, kind, busy)
			t.Logf("wakeup %v: idle %v, busy %v + %v", wake, idle, busy, queued-busy)
			if idle < wake {
				t.Errorf("idle core: readable %v after the request landed, less than the %v wakeup", idle, wake)
			}
			if queued < busy {
				t.Fatalf("busy core: readable %v after the request landed, before the %v task ended", queued, busy)
			}
			if queued-busy >= wake {
				t.Errorf("busy core: readable %v after the task ended, which covers the %v wakeup", queued-busy, wake)
			}
		})
	}
}

// landToReadable connects a client to a one-core server of one
// personality, lets the pair go quiet and sends one 64 B request. It
// returns how long after the request landed at the server's NIC the
// server's OnReadable ran, and the wakeup latency the server's stack
// charges an idle core. With busy > 0 the server's application core takes
// a task of that length the moment the request lands.
func landToReadable(t *testing.T, kind testbed.StackKind, busy sim.Time) (delay, wake sim.Time) {
	t.Helper()
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 1, Seed: 11},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 1, Seed: 22},
	)
	srv := tb.M("server")
	wake = libtoe.DefaultCosts().WakeupLatency
	if srv.Base != nil {
		prof := srv.Base.Profile()
		prof.SpikeProb = 0 // a random scheduler spike would blur the stall under test
		wake = sim.Time(prof.NotifyWakeupUs * float64(sim.Microsecond))
	}
	var landed, readable sim.Time
	srv.Stack.Listen(9000, func(k api.Socket) {
		k.OnReadable(func() {
			if readable == 0 {
				readable = tb.Eng.Now()
			}
		})
	})
	var cli api.Socket
	tb.M("client").Stack.Dial(tb.Addr("server", 9000), func(k api.Socket) { cli = k })
	// Settle for less than every stack's minimum RTO: a baseline sender
	// idle for longer re-sends its next segment at once (its RTO clock
	// runs from the last progress, not from the send), and the duplicate
	// would pay a second wakeup.
	tb.Run(sim.Millisecond)
	if cli == nil {
		t.Fatalf("%s: connection not established", kind)
	}

	app := srv.Stack.Machine().Cores[0]
	recv := srv.Iface.Recv
	srv.Iface.Recv = func(f *netsim.Frame) {
		if landed == 0 && len(f.Pkt.Payload) > 0 {
			landed = tb.Eng.Now()
			if busy > 0 {
				app.SubmitStepCall(sim.Step{Stall: busy}, nil, nil)
			}
		}
		recv(f)
	}
	apitest.Write(cli, make([]byte, 64))
	tb.Run(tb.Eng.Now() + sim.Millisecond)
	if landed == 0 || readable == 0 {
		t.Fatalf("%s: request landed at %v, readable at %v", kind, landed, readable)
	}
	return readable - landed, wake
}
