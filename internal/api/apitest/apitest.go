// Package apitest is the cross-stack conformance suite for the
// api.Socket contract: every stack personality (FlexTOE, Linux, TAS,
// Chelsio) must present identical semantics to applications — the paper
// runs identical application binaries across all baselines (§5), so the
// socket layer is the compatibility boundary the whole evaluation rests
// on.
//
// The suite pins the parts of the contract applications actually depend
// on:
//
//   - partial Send under full buffers (flow control surfaces as short
//     writes, never blocking or data loss),
//   - edge-triggered OnReadable/OnWritable (no level-triggered callback
//     storms while data sits unconsumed),
//   - the zero-copy view aliasing rules (Peek invalidated by Consume,
//     Reserve by Commit; views stable between those calls),
//   - views across the payload ring's one move to full size (rings start
//     at 4 KB and grow when the bytes in flight outgrow that): staged,
//     unacknowledged and unconsumed bytes all survive it,
//   - EOF after FIN surfaced as an OnReadable fire that drains to
//     Readable()==0,
//   - no loss of data arriving between accept and OnReadable
//     registration.
package apitest

import (
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// pair is a connected client/server socket pair on a two-machine
// testbed of one personality.
type pair struct {
	tb  *testbed.Testbed
	srv api.Socket
	cli api.Socket
}

// newPair builds the testbed, connects one socket pair and returns it.
// onAccept, when non-nil, runs inside the server's accept callback
// (before any data can arrive) in place of the default no-op.
func newPair(t *testing.T, kind testbed.StackKind, bufSize uint32, port uint16, onAccept func(api.Socket)) *pair {
	t.Helper()
	return connectPair(t, testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 2, BufSize: bufSize, Seed: 11},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 2, BufSize: bufSize, Seed: 22},
	), port, onAccept)
}

// connectPair connects "client" to "server" on an assembled testbed.
func connectPair(t *testing.T, tb *testbed.Testbed, port uint16, onAccept func(api.Socket)) *pair {
	t.Helper()
	p := &pair{tb: tb}
	tb.M("server").Stack.Listen(port, func(k api.Socket) {
		p.srv = k
		if onAccept != nil {
			onAccept(k)
		}
	})
	tb.M("client").Stack.Dial(tb.Addr("server", port), func(k api.Socket) { p.cli = k })
	for i := 0; p.srv == nil || p.cli == nil; i++ {
		if i > 100 {
			t.Fatalf("%s: connection not established", tb.M("server").Spec.Kind)
		}
		p.run(sim.Millisecond)
	}
	return p
}

// run advances the simulation by d.
func (p *pair) run(d sim.Time) { p.tb.Run(p.tb.Eng.Now() + d) }

// until advances in millisecond steps until cond holds (or fails).
func (p *pair) until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 500 {
			t.Fatalf("timed out waiting for %s", what)
		}
		p.run(sim.Millisecond)
	}
}

// pattern returns the deterministic byte stream the suite validates
// content with.
func pattern(off int) byte { return byte(7*off + 13) }

// Run executes the conformance suite against one stack personality.
func Run(t *testing.T, kind testbed.StackKind) {
	t.Run("PartialSendUnderFullBuffers", func(t *testing.T) { partialSend(t, kind) })
	t.Run("EdgeTriggeredCallbacks", func(t *testing.T) { edgeTriggered(t, kind) })
	t.Run("ViewAliasing", func(t *testing.T) { viewAliasing(t, kind) })
	t.Run("ViewsAcrossRingGrowth", func(t *testing.T) { viewsAcrossGrowth(t, kind) })
	t.Run("EOFAfterFINDrain", func(t *testing.T) { eofAfterFIN(t, kind) })
	t.Run("DataBeforeOnReadable", func(t *testing.T) { dataBeforeOnReadable(t, kind) })
	t.Run("AcceptStormBacklog", func(t *testing.T) { acceptStorm(t, kind) })
}

// acceptStorm pins the listen-path hardening contract: under a SYN storm
// against a bounded backlog, every dial is either fully established (both
// accept and connect callbacks fire, and the socket carries data) or
// silently dropped with the drop counted — no half-accepted sockets, no
// RSTs, no lost counts. Uniform across all four personalities.
func acceptStorm(t *testing.T, kind testbed.StackKind) {
	const dials = 192
	const backlog = 8
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 2, BufSize: 4096,
			ListenBacklog: backlog, Seed: 33},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 2, BufSize: 4096, Seed: 44},
	)
	accepted := 0
	received := 0
	tb.M("server").Stack.Listen(9005, func(k api.Socket) {
		accepted++
		k.OnReadable(func() {
			a, b := k.Peek()
			n := api.ViewLen(a, b)
			k.Consume(n)
			received += n
		})
	})
	connected := 0
	for i := 0; i < dials; i++ {
		tb.M("client").Stack.Dial(tb.Addr("server", 9005), func(k api.Socket) {
			connected++
			k.Send([]byte{1, 2, 3, 4})
		})
	}
	tb.Run(20 * sim.Millisecond)

	var drops, overflows uint64
	if m := tb.M("server"); m.Ctrl != nil {
		drops, overflows = m.Ctrl.SYNDrops, m.Ctrl.BacklogOverflows
	} else {
		drops, overflows = m.Base.SYNDrops, m.Base.BacklogOverflows
	}
	if accepted == 0 {
		t.Fatalf("%s: storm of %d dials established nothing", kind, dials)
	}
	if drops == 0 || overflows == 0 {
		t.Fatalf("%s: backlog %d never overflowed under %d dials (drops=%d overflows=%d)",
			kind, backlog, dials, drops, overflows)
	}
	if accepted != connected {
		t.Errorf("%s: %d accepts vs %d connects — a handshake half-completed", kind, accepted, connected)
	}
	if uint64(accepted)+drops != dials {
		t.Errorf("%s: accepted %d + dropped %d != dialed %d", kind, accepted, drops, dials)
	}
	if received != 4*accepted {
		t.Errorf("%s: accepted sockets delivered %d bytes, want %d", kind, received, 4*accepted)
	}
}

// partialSend floods a small-buffer connection while the receiver sits on
// its data: Send must go short (flow control), never lose bytes, and
// OnWritable must resume the transfer once the receiver drains — with the
// full byte stream intact and in order across many ring wraps.
func partialSend(t *testing.T, kind testbed.StackKind) {
	const total = 16384
	const bufSize = 4096
	p := newPair(t, kind, bufSize, 9000, nil)

	payload := make([]byte, total)
	for i := range payload {
		payload[i] = pattern(i)
	}
	sent := 0
	sawShort := false
	push := func() {
		for sent < total {
			n := p.cli.Send(payload[sent:])
			if n < total-sent {
				sawShort = true
			}
			if n == 0 {
				return
			}
			sent += n
		}
	}
	p.cli.OnWritable(push)
	push()

	// The receiver is not consuming: the sender must stall well short of
	// the total with a short write observed.
	p.run(20 * sim.Millisecond)
	if !sawShort {
		t.Fatalf("no short Send observed against a %d-byte buffer", bufSize)
	}
	if sent >= total {
		t.Fatalf("flow control failed: %d of %d bytes accepted with the receiver asleep", sent, total)
	}

	// Drain and validate content through the view path.
	got := make([]byte, 0, total)
	drain := func() {
		a, b := p.srv.Peek()
		n := api.ViewLen(a, b)
		if n == 0 {
			return
		}
		got = append(got, a...)
		got = append(got, b...)
		p.srv.Consume(n)
	}
	p.srv.OnReadable(drain)
	drain() // pick up what buffered before registration
	p.until(t, "full transfer", func() bool { return len(got) >= total && sent >= total })
	if len(got) != total {
		t.Fatalf("received %d bytes, want %d", len(got), total)
	}
	for i, v := range got {
		if v != pattern(i) {
			t.Fatalf("byte %d = %#x, want %#x: stream corrupted or reordered", i, v, pattern(i))
		}
	}
}

// edgeTriggered pins the callback contract: OnReadable fires on upward
// Readable transitions only — unconsumed data must not retrigger it, and
// consuming must not fire it either.
func edgeTriggered(t *testing.T, kind testbed.StackKind) {
	p := newPair(t, kind, 4096, 9001, nil)
	fires := 0
	p.srv.OnReadable(func() { fires++ })

	payload := make([]byte, 100)
	p.cli.Send(payload)
	p.until(t, "first delivery", func() bool { return p.srv.Readable() == 100 })
	if fires == 0 {
		t.Fatal("OnReadable never fired for new data")
	}

	// Data sits unconsumed: an edge-triggered socket stays silent.
	quiesced := fires
	p.run(20 * sim.Millisecond)
	if fires != quiesced {
		t.Fatalf("OnReadable fired %d more times with no new data (level-triggered storm)", fires-quiesced)
	}

	// Consuming is not an upward transition.
	p.srv.Consume(p.srv.Readable())
	p.run(20 * sim.Millisecond)
	if fires != quiesced {
		t.Fatalf("OnReadable fired on Consume")
	}

	// New data is a fresh edge.
	p.cli.Send(payload)
	p.until(t, "second delivery", func() bool { return p.srv.Readable() == 100 })
	if fires == quiesced {
		t.Fatal("OnReadable did not fire for the second burst")
	}
}

// viewAliasing pins the zero-copy view rules on both directions: Reserve
// views address the ring beyond committed data (a Commit shifts the next
// view), Peek views shift with Consume, and view lengths track
// TxSpace/Readable exactly.
func viewAliasing(t *testing.T, kind testbed.StackKind) {
	const n = 1000
	p := newPair(t, kind, 4096, 9002, nil)

	// Stage a full pattern, publish only the first half.
	a, b := p.cli.Reserve(n)
	if got := api.ViewLen(a, b); got != n {
		t.Fatalf("Reserve(%d) on an empty socket returned %d bytes", n, got)
	}
	for i := 0; i < n; i++ {
		api.ViewCopyIn(a, b, i, []byte{pattern(i)})
	}
	// Re-reserving without a Commit returns a stable view of the same
	// window: the staged prefix must still be there.
	a2, b2 := p.cli.Reserve(n)
	if api.ViewLen(a2, b2) != n || api.ViewByte(a2, b2, 0) != pattern(0) || api.ViewByte(a2, b2, n-1) != pattern(n-1) {
		t.Fatal("Reserve view not stable before Commit")
	}
	p.cli.Commit(n / 2)

	// After the Commit the next Reserve must start past the published
	// bytes: overwrite the second half with a marker.
	a3, b3 := p.cli.Reserve(n / 2)
	if api.ViewLen(a3, b3) != n/2 {
		t.Fatalf("Reserve after Commit returned %d bytes, want %d", api.ViewLen(a3, b3), n/2)
	}
	for i := 0; i < n/2; i++ {
		api.ViewCopyIn(a3, b3, i, []byte{0xEE})
	}
	p.cli.Commit(n / 2)

	p.until(t, "delivery", func() bool { return p.srv.Readable() >= n })

	// Peek must expose exactly Readable() bytes: committed prefix then
	// marker, proving the second Reserve aliased the ring past the first
	// Commit.
	ra, rb := p.srv.Peek()
	if api.ViewLen(ra, rb) != p.srv.Readable() {
		t.Fatalf("Peek length %d != Readable %d", api.ViewLen(ra, rb), p.srv.Readable())
	}
	for i := 0; i < n/2; i++ {
		if api.ViewByte(ra, rb, i) != pattern(i) {
			t.Fatalf("byte %d = %#x, want pattern", i, api.ViewByte(ra, rb, i))
		}
	}
	for i := n / 2; i < n; i++ {
		if api.ViewByte(ra, rb, i) != 0xEE {
			t.Fatalf("byte %d = %#x, want marker: Reserve view did not advance past Commit", i, api.ViewByte(ra, rb, i))
		}
	}

	// Consume shifts the next Peek: the old view is dead, the new one
	// starts at the first unconsumed byte.
	second := api.ViewByte(ra, rb, 1)
	p.srv.Consume(1)
	ra2, rb2 := p.srv.Peek()
	if api.ViewLen(ra2, rb2) != p.srv.Readable() || api.ViewByte(ra2, rb2, 0) != second {
		t.Fatal("Peek view did not shift after Consume")
	}
}

// viewsAcrossGrowth drives both rings of a 64 KB-buffer connection over
// the point where they outgrow their 4 KB start, in the ways that could
// lose bytes if the move to full size mislaid any: a Reserve larger than
// the small ring while earlier bytes are still unsent, more than 4 KB
// received before the first Consume, and — through a reordering switch,
// with out-of-order acceptance on — segments landing far ahead of a hole
// while the ring is still small. The delivered stream must be the
// pattern, byte for byte, through Peek views taken after the growth.
func viewsAcrossGrowth(t *testing.T, kind testbed.StackKind) {
	const first, burst, bufSize = 100, 12000, 65536
	sw := netsim.SwitchConfig{ReorderProb: 0.3, ReorderDelay: 30 * sim.Microsecond, Seed: 5}
	p := connectPair(t, testbed.New(sw,
		testbed.MachineSpec{Name: "server", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, OOOCap: 4, Seed: 11},
		testbed.MachineSpec{Name: "client", Kind: kind, Cores: 2, BufSize: bufSize, SACK: true, OOOCap: 4, Seed: 22},
	), 9006, nil)
	oooAccepted := func() uint64 {
		m := p.tb.M("server")
		if m.TOE != nil {
			return m.TOE.Counters.OOOAccepted
		}
		return m.Base.OOOAccepted
	}

	sent := 0
	stage := func(n int) {
		a, b := p.cli.Reserve(n)
		if got := api.ViewLen(a, b); got != n {
			t.Fatalf("Reserve(%d) with %d bytes in flight returned %d bytes", n, sent, got)
		}
		for i := 0; i < n; i++ {
			api.ViewCopyIn(a, b, i, []byte{pattern(sent + i)})
		}
		p.cli.Commit(n)
		sent += n
	}
	// A first small message puts both TX and RX on their small rings; the
	// large Reserve follows at once, while those bytes are still unsent.
	stage(first)
	stage(burst)

	// Nothing is consumed until everything has arrived.
	p.until(t, "burst buffered", func() bool { return p.srv.Readable() == sent })
	if oooAccepted() == 0 {
		t.Fatalf("%s: no segment was accepted out of order; the reordering switch did not bite", kind)
	}
	a, b := p.srv.Peek()
	if api.ViewLen(a, b) != sent {
		t.Fatalf("Peek sees %d bytes, want %d", api.ViewLen(a, b), sent)
	}
	for i := 0; i < sent; i++ {
		if v := api.ViewByte(a, b, i); v != pattern(i) {
			t.Fatalf("byte %d = %#x, want %#x: the ring's growth lost or moved data", i, v, pattern(i))
		}
	}

	// Consume shifts the view on the grown ring too, and a second burst
	// lands behind the unconsumed tail.
	const eaten = 5000
	p.srv.Consume(eaten)
	stage(burst)
	p.until(t, "second burst buffered", func() bool { return p.srv.Readable() == sent-eaten })
	a, b = p.srv.Peek()
	for i := eaten; i < sent; i++ {
		if v := api.ViewByte(a, b, i-eaten); v != pattern(i) {
			t.Fatalf("byte %d = %#x after Consume, want %#x", i, v, pattern(i))
		}
	}
}

// eofAfterFIN pins the EOF contract: after the peer closes, the receiver
// observes an OnReadable fire that drains to Readable()==0 with every
// byte delivered first.
func eofAfterFIN(t *testing.T, kind testbed.StackKind) {
	const total = 1000
	p := newPair(t, kind, 4096, 9003, nil)

	got := 0
	eof := false
	p.srv.OnReadable(func() {
		a, b := p.srv.Peek()
		if n := api.ViewLen(a, b); n > 0 {
			p.srv.Consume(n)
			got += n
			return
		}
		// A fire with nothing readable after the stream drained is the
		// FIN notification.
		if got == total {
			eof = true
		}
	})

	p.cli.Send(make([]byte, total))
	p.cli.Close()
	p.until(t, "EOF", func() bool { return eof })
	if got != total {
		t.Fatalf("drained %d bytes before EOF, want %d", got, total)
	}
}

// dataBeforeOnReadable is the regression for the accept/registration
// race: bytes arriving after accept but before the application registers
// OnReadable must be retained and visible via Readable/Peek.
func dataBeforeOnReadable(t *testing.T, kind testbed.StackKind) {
	const early = 600
	const late = 400
	p := newPair(t, kind, 4096, 9004, nil)

	payload := make([]byte, early)
	for i := range payload {
		payload[i] = pattern(i)
	}
	p.cli.Send(payload)
	// No OnReadable registered: the data must buffer, not vanish.
	p.until(t, "early data buffered", func() bool { return p.srv.Readable() == early })
	a, b := p.srv.Peek()
	if api.ViewLen(a, b) != early {
		t.Fatalf("Peek sees %d early bytes, want %d", api.ViewLen(a, b), early)
	}
	for i := 0; i < early; i++ {
		if api.ViewByte(a, b, i) != pattern(i) {
			t.Fatalf("early byte %d corrupted", i)
		}
	}

	// Late registration drains the backlog plus fresh data.
	got := 0
	p.srv.OnReadable(func() {
		va, vb := p.srv.Peek()
		n := api.ViewLen(va, vb)
		p.srv.Consume(n)
		got += n
	})
	// The backlog does not re-fire the callback (edge-triggered): the
	// application drains it at registration time, as epoll users do.
	va, vb := p.srv.Peek()
	n := api.ViewLen(va, vb)
	p.srv.Consume(n)
	got += n

	p.cli.Send(make([]byte, late))
	p.until(t, "late data", func() bool { return got == early+late })
}
