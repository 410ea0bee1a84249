//go:build flexdebug

package packet

import "testing"

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
	p := Get()
	Release(p)
	mustPanic(t, "double Release", func() { Release(p) })
	// Drain the poisoned entry so later tests start clean.
	_ = Get()
}

func TestPacketWriteAfterReleaseCaught(t *testing.T) {
	p := Get()
	payload := p.GrowPayload(32)
	Release(p)
	// Stale write through the view handed out before Release.
	payload[5] = 0xAA
	mustPanic(t, "Get after write-after-release", func() { _ = Get() })
}

func TestPacketStaleReadSeesPoison(t *testing.T) {
	p := Get()
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
	// Reacquire (contents untouched, so the check passes) and restore the
	// pool to a clean state.
	Release(Get())
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
