package libtoe

import (
	"bytes"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/core"
	"flextoe/internal/ctrl"
	"flextoe/internal/host"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

func buildStacks(t *testing.T) (*sim.Engine, *Stack, *Stack) {
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
	sa := NewStack(eng, toeA, ctrlA, host.NewMachine(eng, "a", 2, 2e9), ipA)
	sb := NewStack(eng, toeB, ctrlB, host.NewMachine(eng, "b", 2, 2e9), ipB)
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
				n := sock.Recv(buf)
				if n == 0 {
					return
				}
				got = append(got, buf[:n]...)
			}
		})
	})
	msg := []byte("libtoe sockets over the offloaded data-path")
	eng.AtCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(sock api.Socket) {
			if n := sock.Send(msg); n != len(msg) {
				t.Errorf("Send = %d", n)
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
	eng.AtCall(0, func(any) {
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
	// Sends beyond the TX buffer return partial counts; space returns as
	// acks free it.
	eng, sa, sb := buildStacks(t)
	received := 0
	sb.Listen(80, func(sock api.Socket) {
		buf := make([]byte, 65536)
		sock.OnReadable(func() {
			for {
				n := sock.Recv(buf)
				if n == 0 {
					return
				}
				received += n
			}
		})
	})
	total := 0
	const want = 300000 // several times the 64KB socket buffer
	eng.AtCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(sock api.Socket) {
			chunk := make([]byte, 16384)
			push := func() {
				for total < want {
					n := sock.Send(chunk[:min(len(chunk), want-total)])
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSocketClosePropagatesFIN(t *testing.T) {
	eng, sa, sb := buildStacks(t)
	var serverSock *Socket
	sb.Listen(80, func(sock api.Socket) { serverSock = sock.(*Socket) })
	eng.AtCall(0, func(any) {
		sa.Dial(api.Addr{IP: sb.LocalIP(), Port: 80}, func(sock api.Socket) {
			sock.Send([]byte("bye"))
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
	if n := serverSock.Recv(buf); n != 3 || string(buf[:3]) != "bye" {
		t.Fatalf("data before FIN lost: %q", buf[:n])
	}
}

func TestNotifyWakeupOnlyWhenIdle(t *testing.T) {
	// The wakeup stall applies on an idle core but not when the core is
	// already busy (polling mode under load).
	eng, sa, _ := buildStacks(t)
	costs := sa.Costs()
	if costs.WakeupLatency == 0 {
		t.Fatal("default costs must include a wakeup latency")
	}
	_ = eng
}
