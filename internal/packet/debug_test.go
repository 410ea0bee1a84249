//go:build flexdebug

package packet

import (
	"testing"

	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestPacketDoubleReleasePanics(t *testing.T) {
	p := PoolOf(sim.New()).Get()
	Release(p)
	mustPanic(t, "double Release", func() { Release(p) })
}

// TestPacketWriteAfterReleaseCaught: Release returns a copy's buffer to
// the slab, so a stale write through it is caught when the slab hands the
// buffer to the next copy.
func TestPacketWriteAfterReleaseCaught(t *testing.T) {
	pool := PoolOf(sim.New())
	p := pool.Get()
	payload := p.GrowPayload(32)
	Release(p)
	// Stale write through the payload handed out before Release.
	payload[5] = 0xAA
	mustPanic(t, "GrowPayload after write-after-release", func() { _ = pool.Get().GrowPayload(32) })
}

// TestPayloadViewChangeCaught: a view whose bytes change between
// SetPayloadView and the receiver's whole-payload write panics there; an
// untouched view, a copy and a released view pass.
func TestPayloadViewChangeCaught(t *testing.T) {
	pool := PoolOf(sim.New())
	ring := []byte("committed transmit bytes")
	p := pool.Get()
	p.SetPayloadView(ring[:9])
	p.CheckPayloadView()
	ring[3] = 'X' // the sender rewrote an unacknowledged byte
	mustPanic(t, "CheckPayloadView on a changed view", p.CheckPayloadView)
	Release(p)
	if ring[0] != 'c' {
		t.Fatal("Release poisoned a view")
	}
	q := pool.Get()
	copy(q.GrowPayload(9), ring)
	ring[0] = 'Y'
	q.CheckPayloadView() // a copy is the packet's own
	Release(q)
}

func TestPacketStaleReadSeesPoison(t *testing.T) {
	pool := PoolOf(sim.New())
	p := pool.Get()
	payload := p.GrowPayload(16)
	for i := range payload {
		payload[i] = byte(i)
	}
	Release(p)
	for i, v := range payload {
		if v != 0xDB {
			t.Fatalf("stale payload byte %d = %#x, want poison 0xDB", i, v)
		}
	}
	// Reacquiring the buffer checks the poison is intact.
	q := pool.Get()
	q.GrowPayload(16)
	Release(q)
}

// TestWrongFlowHashSeedPanics: a builder that stamps another flow's hashes
// (here the pair swapped, as a connection seeding its peer's view would)
// is caught at the seed, and a wrong pair already on a packet is caught by
// the next read instead of steering the segment by it.
func TestWrongFlowHashSeedPanics(t *testing.T) {
	p := samplePacket()
	f := p.Flow()
	mustPanic(t, "SeedFlowHashes with the pair swapped", func() { p.SeedFlowHashes(f.Reverse().Hash(), f.Hash()) })
	mustPanic(t, "FlowHash on a wrongly seeded packet", func() { p.FlowHash() })
	mustPanic(t, "RevFlowHash on a wrongly seeded packet", func() { p.RevFlowHash() })
	// A rewrite invalidates the bad memo like any other: the read
	// recomputes and the self-check has nothing to object to.
	p.TCP.SrcPort++
	if p.FlowHash() != p.Flow().Hash() {
		t.Fatal("rewrite after a wrong seed did not recompute")
	}
	p.SeedFlowHashes(p.Flow().Hash(), p.Flow().Reverse().Hash())
}

// TestWireViewOnlyThroughSetPayloadView: a packet released holding a
// wire view assigned to Payload directly panics; the same view attached
// with SetPayloadView, and a decoded frame's payload, pass.
func TestWireViewOnlyThroughSetPayloadView(t *testing.T) {
	pool := PoolOf(sim.New())
	ring := shm.NewPayloadBuf(4096)
	ring.WriteAt(0, []byte("committed transmit bytes"))
	v, ok := ring.View(0, 9)
	if !ok {
		t.Fatal("View refused a window inside the ring")
	}
	p := pool.Get()
	p.SetPayloadView(v)
	Release(p)
	q := pool.Get()
	q.Payload = v[:4]
	mustPanic(t, "Release of a wire view assigned to Payload", func() { Release(q) })
	frame := (&Packet{
		Eth:     Ethernet{EtherType: EtherTypeIPv4},
		IP:      IPv4{TTL: 64, Protocol: ProtoTCP},
		TCP:     TCP{Flags: FlagACK, WScale: -1},
		Payload: []byte("payload"),
	}).Serialize(SerializeOptions{FixLengths: true})
	d := pool.Get()
	if err := d.DecodeInto(frame); err != nil {
		t.Fatal(err)
	}
	Release(d)
}
