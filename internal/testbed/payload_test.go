package testbed

import (
	"runtime"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// streamByte is the byte a sender writes at stream offset off of the
// connection from source port conn: a multiplicative mix, so a byte read
// from the wrong offset, the wrong lap of a ring or the wrong connection
// differs.
func streamByte(conn uint16, off uint64) byte {
	return byte(((off + uint64(conn)<<40) * 0x9E3779B97F4A7C15) >> 56)
}

// warmBytes is the first message of every stream: it puts every socket's
// rings on a small size, and the stream proper begins once it is
// acknowledged, so both rings move to larger sizes mid-run.
const warmBytes = 1000

// patternSender streams total bytes of streamByte through Reserve/Commit,
// in writes of 1 to 2 000 bytes: each fits a 2 KB ring, so only the bytes
// in flight decide when the ring moves.
type patternSender struct {
	sock       api.Socket
	conn       uint16
	bufSize    int
	off, total uint64
	warm       bool
}

func (s *patternSender) push() {
	for {
		if s.off == warmBytes && !s.warm {
			if s.sock.TxSpace() < s.bufSize {
				return
			}
			s.warm = true
		}
		limit := s.total
		if !s.warm {
			limit = warmBytes
		}
		n := min(uint64(s.sock.TxSpace()), limit-s.off, 1+s.off*7919%2000)
		if n == 0 {
			return
		}
		a, b := s.sock.Reserve(int(n))
		for i := range a {
			a[i] = streamByte(s.conn, s.off+uint64(i))
		}
		for i := range b {
			b[i] = streamByte(s.conn, s.off+uint64(len(a)+i))
		}
		s.sock.Commit(int(n))
		s.off += n
	}
}

// patternSink checks every delivered byte against streamByte.
type patternSink struct {
	sock  api.Socket
	conn  uint16
	got   uint64 // bytes consumed
	bad   int
	zeros int // Peek views that lent the shared zero array
}

func (k *patternSink) onReadable() {
	a, b := k.sock.Peek()
	n := api.ViewLen(a, b)
	if n > 0 && isZeroWindow(a) {
		k.zeros++
	}
	for i := 0; i < n; i++ {
		if api.ViewByte(a, b, i) != streamByte(k.conn, k.got+uint64(i)) {
			k.bad++
		}
	}
	k.sock.Consume(n)
	k.got += uint64(n)
}

// TestPayloadIntegrityUnderStaleViews streams a deterministic pattern over
// a FlexTOE pair and a Linux pair through a switch that duplicates, delays
// and drops frames. Data segments carry views of the sender's transmit
// ring, so a frame that outlives the acknowledgment of its bytes — a
// delayed duplicate, a reordered or retransmitted original — reads what
// the sender wrote there since. The receiving application must see every
// byte of every stream exactly, and a tap on the receiving NIC must find
// such stale frames (the hazard was exercised) with every rewritten byte
// below the receiver's delivered point, where the receiver trims it. A
// stale frame need not lie wholly below that point: when an
// acknowledgment falls inside it, only its prefix is released and
// rewritten, and its suffix still reads the committed bytes. The rings
// are 16 KB, so each of the two 1 MB streams laps them 64 times, after a
// first message that keeps them on a small ring.
func TestPayloadIntegrityUnderStaleViews(t *testing.T) {
	const port, conns, total, bufSize = 7000, 2, 1 << 20, 16384
	sw := netsim.SwitchConfig{DupProb: 0.05, ReorderProb: 0.2, ReorderDelay: 30 * sim.Microsecond, LossProb: 0.003, Seed: 3}
	for _, kind := range []StackKind{FlexTOE, Linux} {
		t.Run(string(kind), func(t *testing.T) {
			tb := New(sw,
				MachineSpec{Name: "rx", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, Seed: 1},
				MachineSpec{Name: "tx", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, Seed: 2},
			)
			sinks := map[uint16]*patternSink{}
			tb.M("rx").Stack.Listen(port, func(sock api.Socket) {
				k := &patternSink{sock: sock, conn: sock.RemoteAddr().Port}
				sinks[k.conn] = k
				sock.OnReadable(k.onReadable)
			})
			for i := 0; i < conns; i++ {
				tb.M("tx").Stack.Dial(tb.Addr("rx", port), func(sock api.Socket) {
					s := &patternSender{sock: sock, conn: sock.LocalAddr().Port, bufSize: bufSize, total: total}
					sock.OnWritable(s.push)
					s.push()
				})
			}

			iss := map[uint16]uint32{}
			// delivered returns the stream offset below which the receiving
			// stack holds every byte of a connection: FlexTOE's RCV.NXT, the
			// baseline's in-order bytes (its socket counts them on arrival).
			delivered := func(conn uint16) uint64 {
				if toe := tb.M("rx").TOE; toe != nil {
					for id := uint32(0); id < 16; id++ {
						if c := toe.Connection(id); c != nil && c.Pre.RemotePort == conn {
							return uint64(c.Proto.Ack - iss[conn] - 1)
						}
					}
				}
				k := sinks[conn]
				return k.got + uint64(k.sock.Readable())
			}
			var frames, stale, straddling int
			tb.M("rx").Iface.RxTap = func(_ sim.Time, p *packet.Packet) {
				if p.TCP.DstPort != port {
					return
				}
				conn := p.TCP.SrcPort
				if p.TCP.HasFlag(packet.FlagSYN) {
					iss[conn] = p.TCP.Seq
					return
				}
				if len(p.Payload) == 0 {
					return
				}
				frames++
				off := uint64(p.TCP.Seq - iss[conn] - 1)
				last := -1 // the frame's last byte that is not the stream's
				for i, c := range p.Payload {
					if c != streamByte(conn, off+uint64(i)) {
						last = i
					}
				}
				if last < 0 {
					return
				}
				stale++
				at := delivered(conn)
				if off+uint64(last) >= at {
					t.Errorf("stale frame [%d,%d) of connection %d reads a rewritten byte at %d, at or above the delivered point %d",
						off, off+uint64(len(p.Payload)), conn, off+uint64(last), at)
				}
				if off+uint64(len(p.Payload)) > at {
					straddling++
				}
			}

			done := func() bool {
				if len(sinks) < conns {
					return false
				}
				for _, k := range sinks {
					if k.got < total {
						return false
					}
				}
				return true
			}
			for i := 0; !done(); i++ {
				if i > 2000 {
					t.Fatalf("streams stalled: %d sinks, %d frames seen", len(sinks), frames)
				}
				tb.Run(tb.Eng.Now() + sim.Millisecond)
			}
			for _, k := range sinks {
				if k.bad != 0 || k.got != total {
					t.Errorf("connection %d: %d of %d delivered bytes differ from the stream", k.conn, k.bad, k.got)
				}
			}
			dups := tb.Net.Switch.DupInjected
			t.Logf("%d data frames at the receiver, %d stale (%d of them reaching above the delivered point); %d duplicated, %d reordered, %d lost by the switch",
				frames, stale, straddling, dups, tb.Net.Switch.Reordered, tb.Net.Switch.LossDrops)
			if float64(dups) < 0.02*float64(frames) {
				t.Errorf("only %d duplicates for %d frames", dups, frames)
			}
			if stale == 0 {
				t.Error("no frame read rewritten bytes: the stale-view hazard was not exercised")
			}
		})
	}
}

// TestBulkBacklogPayloadMemory gates what a queued data frame's payload
// costs. A bulk stream with a 4 MB window runs ahead of its 1 Gb/s source
// NIC by up to a window, so thousands of MSS frames wait in the NIC's
// queue, as they do in bulk_adverse's 21 Gb/s source NICs. Their payloads
// are views of the sender's transmit ring, so a queued frame costs its
// packet shell and frame, not a 2 KB slab copy. The live heap of the whole
// run is read after a GC, as TestEchoFleetRingMemory reads it, and spread
// over the queued frames. Readings (x86-64, go1.24) for FlexTOE and Linux:
//
//	payloads are views of the transmit ring     445, 374 B per queued frame
//	every data segment a slab copy (2 894 and
//	2 417 frames queued)                        2 621, 2 541 B
func TestBulkBacklogPayloadMemory(t *testing.T) {
	const port, bufSize, minQueued, budget = 7001, 4 << 20, 2000, 1 << 10
	for _, kind := range []StackKind{FlexTOE, Linux} {
		t.Run(string(kind), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb := New(netsim.SwitchConfig{},
				MachineSpec{Name: "sink", Kind: kind, Cores: 2, BufSize: bufSize, Seed: 1},
				MachineSpec{Name: "src", Kind: kind, Cores: 2, BufSize: bufSize, NICGbps: 1, Seed: 2},
			)
			(&apps.BulkSink{}).Serve(tb.M("sink").Stack, port)
			(&apps.BulkSender{}).Start(tb.M("src").Stack, tb.Addr("sink", port))
			tb.Run(30 * sim.Millisecond)
			queued := tb.M("src").Iface.QueueBytes() / 1514 // an MSS frame with timestamps
			if queued < minQueued {
				t.Fatalf("only %d frames queued in the source NIC, want >= %d", queued, minQueued)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perFrame := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(queued)
			t.Logf("%d frames queued in the source NIC, %d B of live heap per queued frame, budget %d",
				queued, perFrame, budget)
			if perFrame > budget {
				t.Errorf("%d B of live heap per queued frame, budget %d: queued payloads are copies", perFrame, budget)
			}
			runtime.KeepAlive(tb)
		})
	}
}

// burstEcho is one client connection of TestEchoFleetRingMemory: it
// sends a burst of 1, 2, 3, 4, 1, … staged 256 B requests and the next
// burst once the echo of the last one is in, so each of its rings first
// holds one request and later four.
type burstEcho struct {
	sock   api.Socket
	bursts int
	owed   int // echoed bytes of the current burst not yet received
}

func (e *burstEcho) send() {
	n := echoReqBytes * (1 + e.bursts%4)
	a, b := e.sock.Reserve(n)
	for i := range a {
		a[i] = byte(i)
	}
	for i := range b {
		b[i] = byte(len(a) + i)
	}
	e.sock.Commit(n)
	e.owed = n
}

func (e *burstEcho) onReadable() {
	n := e.sock.Readable()
	e.sock.Consume(n)
	if e.owed -= n; e.owed == 0 {
		e.bursts++
		e.send()
	}
}

const echoReqBytes = 256

// echoFleetBudget bounds the live heap per connection of
// TestEchoFleetRingMemory: both ends' four rings, sockets and connection
// state, and the testbed's fixed cost spread over the fleet. Readings
// (x86-64, go1.24) for Linux, Chelsio, TAS and FlexTOE:
//
//	rings start at 4 KB                        23.4, 23.3, 23.7, 35.9 KB
//	rings climb from 512 B (they settle at 1 KB) 11.1, 10.9, 11.4, 23.6 KB
//	that climb, with the move copied through
//	WriteAt (every ring goes to full size)    268.9, 269.0, 269.5, 281.7 KB
//	NIC caches and wheel grown with use,
//	rings doubling up to full size            11.1, 10.9, 11.4, 19.7 KB
//
// Each budget sits between the first two rows.
var echoFleetBudget = map[StackKind]int64{Linux: 17 << 10, Chelsio: 17 << 10, TAS: 17 << 10, FlexTOE: 29 << 10}

// TestEchoFleetRingMemory gates what an echo fleet's payload rings cost.
// On every personality, 128 connections echo bursts of one to four 256 B
// requests (a burstEcho each; the server echoes what it reads) for 20 ms,
// and the live heap per connection is read after a GC, as
// TestKVStoreBytesPerRecord reads its arena. Every ring first holds one
// request and then four, so it moves once from one small size to the
// next: a move that lands anywhere but the next small ring shows here.
func TestEchoFleetRingMemory(t *testing.T) {
	const port, conns = 7002, 128
	for _, kind := range AllStacks {
		t.Run(string(kind), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb := New(netsim.SwitchConfig{},
				MachineSpec{Name: "server", Kind: kind, Cores: 4, Seed: 1},
				MachineSpec{Name: "client", Kind: kind, Cores: 4, Seed: 2},
			)
			tb.M("server").Stack.Listen(port, func(sock api.Socket) {
				sock.OnReadable(func() {
					a, b := sock.Peek()
					n := api.ViewLen(a, b)
					ra, rb := sock.Reserve(n)
					api.ViewCopyIn(ra, rb, 0, a)
					api.ViewCopyIn(ra, rb, len(a), b)
					sock.Commit(n)
					sock.Consume(n)
				})
			})
			fleet := make([]*burstEcho, 0, conns)
			for i := 0; i < conns; i++ {
				tb.M("client").Stack.Dial(tb.Addr("server", port), func(sock api.Socket) {
					e := &burstEcho{sock: sock}
					fleet = append(fleet, e)
					sock.OnReadable(e.onReadable)
					e.send()
				})
			}
			tb.Run(20 * sim.Millisecond)
			runtime.GC()
			runtime.ReadMemStats(&after)
			perConn := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / conns
			bursts := 0
			for _, e := range fleet {
				bursts += e.bursts
			}
			budget := echoFleetBudget[kind]
			t.Logf("%d connections, %d bursts echoed, %d B of live heap per connection, budget %d",
				len(fleet), bursts, perConn, budget)
			if len(fleet) != conns || bursts < 8*conns {
				t.Fatalf("%d of %d connections echoed only %d bursts", len(fleet), conns, bursts)
			}
			if perConn > budget {
				t.Errorf("%d B of live heap per connection, budget %d: payload rings are not sized by what they hold",
					perConn, budget)
			}
			runtime.KeepAlive(tb)
		})
	}
}

// zeroSender commits total bytes without staging any: a content-ignored
// stream, whose segments carry windows of shm's shared zero array.
type zeroSender struct {
	sock        api.Socket
	sent, total int
}

func (s *zeroSender) push() {
	if n := min(s.sock.TxSpace(), s.total-s.sent); n > 0 {
		s.sock.Commit(n)
		s.sent += n
	}
}

// zeroSink consumes a content-ignored stream half a window at a time, so
// a receive ring with storage would grow to full size, and records
// whether every Peek lent the shared zero array (the ring has no storage)
// and read zeros.
type zeroSink struct {
	sock       api.Socket
	got, total int
	batch      int
	allocated  int // Peek views that were not a zero window
	nonzero    int // bytes that did not read zero
}

func (k *zeroSink) onReadable() {
	a, b := k.sock.Peek()
	n := api.ViewLen(a, b)
	if n == 0 || n < min(k.batch, k.total-k.got) {
		return
	}
	if !isZeroWindow(a) || b != nil {
		k.allocated++
	}
	for i := 0; i < n; i += 97 {
		if api.ViewByte(a, b, i) != 0 {
			k.nonzero++
		}
	}
	k.sock.Consume(n)
	k.got += n
}

// zeroStreamBudget bounds the live heap per receiving connection of
// TestContentIgnoredStreamsHoldNoReceiveMemory after its transfer: the
// connection state of both ends and the testbed's fixed cost spread over
// the streams; FlexTOE's includes its packet pool, grown to the frames the
// reordering switch held in flight. Readings (x86-64, go1.24) for Linux,
// Chelsio, TAS and FlexTOE:
//
//	receive rings grown to hold the zeros     523, 523, 527, 964 KB
//	zero windows written to no storage         11,  11,  15, 452 KB
//
// Each budget sits between the two rows, half a ring above the second.
var zeroStreamBudget = map[StackKind]int64{Linux: 64 << 10, Chelsio: 64 << 10, TAS: 64 << 10, FlexTOE: 704 << 10}

// TestContentIgnoredStreamsHoldNoReceiveMemory sends content-ignored bulk
// streams (zeroSender: commits, no writes) through a switch that drops,
// reorders and duplicates frames, on every personality, so out-of-order
// zero windows land ahead of the next expected byte too. Every byte must
// arrive, every Peek must lend the shared zero array (the receive ring
// never gets storage), every loan must come back at quiescence, and the
// live heap per receiving connection must stay far below its 512 KB
// ring. A content-bearing stream on the same stacks and switch must
// still give its receive ring storage and read back every byte.
func TestContentIgnoredStreamsHoldNoReceiveMemory(t *testing.T) {
	const port, conns, total, bufSize = 7003, 4, 1 << 20, 512 << 10
	sw := netsim.SwitchConfig{DupProb: 0.05, ReorderProb: 0.2, ReorderDelay: 30 * sim.Microsecond, LossProb: 0.003, Seed: 5}
	for _, kind := range AllStacks {
		t.Run(string(kind), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb := New(sw,
				MachineSpec{Name: "rx", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, Seed: 1},
				MachineSpec{Name: "tx", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, Seed: 2},
			)
			var sinks []*zeroSink
			tb.M("rx").Stack.Listen(port, func(sock api.Socket) {
				k := &zeroSink{sock: sock, total: total, batch: bufSize / 2}
				sinks = append(sinks, k)
				sock.OnReadable(k.onReadable)
			})
			for i := 0; i < conns; i++ {
				tb.M("tx").Stack.Dial(tb.Addr("rx", port), func(sock api.Socket) {
					s := &zeroSender{sock: sock, total: total}
					sock.OnWritable(s.push)
					s.push()
				})
			}
			done := func() bool {
				for _, k := range sinks {
					if k.got < total {
						return false
					}
				}
				return len(sinks) == conns
			}
			for i := 0; !done(); i++ {
				if i > 5000 {
					t.Fatalf("streams stalled: %d sinks", len(sinks))
				}
				tb.Run(tb.Eng.Now() + sim.Millisecond)
			}
			tb.Run(tb.Eng.Now() + sim.Second)
			if err := tb.Eng.Unreturned(); err != nil {
				t.Fatal(err)
			}
			for i, k := range sinks {
				if k.got != total || k.allocated != 0 || k.nonzero != 0 {
					t.Errorf("stream %d: %d of %d bytes, %d Peek views with storage behind them, %d bytes not zero",
						i, k.got, total, k.allocated, k.nonzero)
				}
			}
			acc, drop := machineOOO(tb.M("rx"))
			if kind == Chelsio && drop == 0 || kind != Chelsio && acc == 0 {
				t.Errorf("%d segments accepted out of order, %d dropped: the reordering did not reach the receiver", acc, drop)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perConn := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / conns
			budget := zeroStreamBudget[kind]
			t.Logf("%d out-of-order segments accepted, %d dropped; %d B of live heap per receiving connection, budget %d",
				acc, drop, perConn, budget)
			if perConn > budget {
				t.Errorf("%d B of live heap per receiving connection, budget %d: receive rings hold the zeros", perConn, budget)
			}
			runtime.KeepAlive(tb)
		})
		t.Run(string(kind)+"/content", func(t *testing.T) {
			const total, bufSize = 1 << 20, 16384
			tb := New(sw,
				MachineSpec{Name: "rx", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, Seed: 1},
				MachineSpec{Name: "tx", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, Seed: 2},
			)
			var k *patternSink
			tb.M("rx").Stack.Listen(port, func(sock api.Socket) {
				k = &patternSink{sock: sock, conn: sock.RemoteAddr().Port}
				sock.OnReadable(k.onReadable)
			})
			tb.M("tx").Stack.Dial(tb.Addr("rx", port), func(sock api.Socket) {
				s := &patternSender{sock: sock, conn: sock.LocalAddr().Port, bufSize: bufSize, total: total}
				sock.OnWritable(s.push)
				s.push()
			})
			for i := 0; k == nil || k.got < total; i++ {
				if i > 5000 {
					t.Fatal("stream stalled")
				}
				tb.Run(tb.Eng.Now() + sim.Millisecond)
			}
			if k.bad != 0 || k.got != total || k.zeros != 0 {
				t.Errorf("%d of %d bytes differ from the stream; %d Peek views lent the zero array", k.bad, k.got, k.zeros)
			}
		})
	}
}

// machineOOO returns the segments m's stack accepted and dropped out of
// order. Chelsio accepts none: it discards every out-of-order segment.
func machineOOO(m *Machine) (accepted, dropped uint64) {
	if m.TOE != nil {
		return m.TOE.Counters.OOOAccepted, m.TOE.Counters.OOODropped
	}
	return m.Base.OOOAccepted, m.Base.OOODropped
}
