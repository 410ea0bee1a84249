package conntab

import (
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/stats"
)

// slabModel is a minimal caller: a dense slot array plus free-slot reuse,
// the same shape core.TOE and baseline.Stack use.
type slabModel struct {
	flows []packet.Flow
	live  []bool
	free  []uint32
	ix    *Index
}

func newSlabModel() *slabModel {
	m := &slabModel{}
	m.ix = New(func(slot uint32) packet.Flow { return m.flows[slot] })
	return m
}

func (m *slabModel) add(f packet.Flow) uint32 {
	var slot uint32
	if n := len(m.free); n > 0 {
		slot = m.free[0]
		m.free = m.free[1:]
		m.flows[slot] = f
		m.live[slot] = true
	} else {
		slot = uint32(len(m.flows))
		m.flows = append(m.flows, f)
		m.live = append(m.live, true)
	}
	m.ix.Insert(f, slot)
	return slot
}

func (m *slabModel) del(f packet.Flow) {
	slot, ok := m.ix.Lookup(f)
	if !ok {
		return
	}
	m.ix.Delete(f)
	m.live[slot] = false
	m.free = append(m.free, slot)
}

// lookup is Lookup with the per-packet entry point checked against it:
// LookupHash fed the flow's own hash must answer the same, hit or miss.
func (m *slabModel) lookup(t *testing.T, f packet.Flow) (uint32, bool) {
	t.Helper()
	slot, ok := m.ix.Lookup(f)
	if hs, hok := m.ix.LookupHash(f, f.Hash()); hs != slot || hok != ok {
		t.Fatalf("LookupHash(%v, f.Hash()) = (%d,%v), Lookup = (%d,%v)", f, hs, hok, slot, ok)
	}
	return slot, ok
}

// flowFrom builds a flow from a small integer space so hash collisions in
// the masked bucket space are frequent.
func flowFrom(rng *stats.RNG, space int) packet.Flow {
	v := rng.Intn(space)
	return packet.Flow{
		SrcIP:   packet.IP(10, 0, 0, byte(v&7)+1),
		DstIP:   packet.IP(10, 0, 0, byte((v>>3)&7)+100),
		SrcPort: uint16(20000 + (v >> 6 & 15)),
		DstPort: 7000,
	}
}

// TestIndexPropertyVsMap drives random insert/lookup/delete/reuse churn
// against a reference map, with a deliberately tiny key space so probe
// chains collide and backward-shift deletion is exercised constantly.
func TestIndexPropertyVsMap(t *testing.T) {
	for _, space := range []int{8, 64, 1024} {
		rng := stats.NewRNG(uint64(space) * 7919)
		m := newSlabModel()
		ref := map[packet.Flow]uint32{}
		for op := 0; op < 20000; op++ {
			f := flowFrom(rng, space)
			switch {
			case rng.Float64() < 0.55:
				if _, dup := ref[f]; dup {
					continue // index forbids duplicate keys
				}
				ref[f] = m.add(f)
			default:
				m.del(f)
				delete(ref, f)
			}
			if op%37 == 0 {
				// Full cross-check: every reference entry resolves to the
				// same slot, and a probe for an absent flow misses.
				for rf, rslot := range ref { //flexvet:ordered test-only cross-check
					slot, ok := m.lookup(t, rf)
					if !ok || slot != rslot {
						t.Fatalf("space=%d op=%d: Lookup(%v)=(%d,%v), want (%d,true)", space, op, rf, slot, ok, rslot)
					}
				}
				if m.ix.Len() != len(ref) {
					t.Fatalf("space=%d op=%d: Len=%d want %d", space, op, m.ix.Len(), len(ref))
				}
			}
			if _, absent := ref[f]; !absent {
				if _, ok := m.lookup(t, f); ok {
					t.Fatalf("space=%d op=%d: deleted flow %v still found", space, op, f)
				}
			}
		}
	}
}

// TestIndexCollisionChain pins the backward-shift deletion behavior on a
// hand-built collision chain: delete the head and verify every follower
// is still reachable.
func TestIndexCollisionChain(t *testing.T) {
	m := newSlabModel()
	// Find 5 flows that share a home bucket at the minimum table size.
	var chain []packet.Flow
	want := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: 1, DstPort: 7000}.Hash() & (minBuckets - 1)
	for p := uint16(1); len(chain) < 5; p++ {
		f := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: p, DstPort: 7000}
		if f.Hash()&(minBuckets-1) == want {
			chain = append(chain, f)
		}
	}
	for _, f := range chain {
		m.add(f)
	}
	// Delete from the head; the rest must survive each removal.
	for i, victim := range chain {
		m.del(victim)
		if _, ok := m.lookup(t, victim); ok {
			t.Fatalf("deleted chain[%d] still found", i)
		}
		for j := i + 1; j < len(chain); j++ {
			if _, ok := m.lookup(t, chain[j]); !ok {
				t.Fatalf("after deleting chain[%d], chain[%d] lost", i, j)
			}
		}
	}
}

// TestIndexSlotReuse verifies a freed slot re-indexed under a new flow
// resolves correctly and the old flow stays gone.
func TestIndexSlotReuse(t *testing.T) {
	m := newSlabModel()
	a := packet.Flow{SrcIP: packet.IP(10, 0, 0, 1), DstIP: packet.IP(10, 0, 0, 2), SrcPort: 100, DstPort: 7000}
	b := packet.Flow{SrcIP: packet.IP(10, 0, 0, 3), DstIP: packet.IP(10, 0, 0, 4), SrcPort: 200, DstPort: 7000}
	sa := m.add(a)
	m.del(a)
	sb := m.add(b)
	if sa != sb {
		t.Fatalf("expected slot reuse: first=%d second=%d", sa, sb)
	}
	if _, ok := m.ix.Lookup(a); ok {
		t.Fatal("old flow still resolves after slot reuse")
	}
	if slot, ok := m.ix.Lookup(b); !ok || slot != sb {
		t.Fatalf("new flow on reused slot: got (%d,%v)", slot, ok)
	}
}

// TestIndexGrowth fills past several doublings and verifies everything
// still resolves; MemBytes stays ~4-5.3 bytes per live connection.
func TestIndexGrowth(t *testing.T) {
	m := newSlabModel()
	var flows []packet.Flow
	for i := 0; i < 5000; i++ {
		f := packet.Flow{
			SrcIP:   packet.IP(10, 1, byte(i>>8), byte(i)),
			DstIP:   packet.IP(10, 2, 0, 1),
			SrcPort: uint16(1024 + i%40000),
			DstPort: 7000,
		}
		flows = append(flows, f)
		m.add(f)
	}
	for i, f := range flows {
		if slot, ok := m.ix.Lookup(f); !ok || slot != uint32(i) {
			t.Fatalf("flow %d: got (%d,%v)", i, slot, ok)
		}
	}
	perConn := float64(m.ix.MemBytes()) / float64(m.ix.Len())
	if perConn > 11.0 {
		t.Fatalf("index overhead %.1f B/conn, want <= 11 (4 B entries, load in (3/8, 3/4])", perConn)
	}
}

// TestIndexLookupAllocFree pins the 0-allocs-per-lookup contract at the
// index layer (the end-to-end gate lives in core's TestConnTableAllocBudget).
func TestIndexLookupAllocFree(t *testing.T) {
	m := newSlabModel()
	var flows []packet.Flow
	for i := 0; i < 256; i++ {
		f := packet.Flow{SrcIP: packet.IP(10, 3, 0, byte(i)), DstIP: packet.IP(10, 4, 0, 1), SrcPort: uint16(5000 + i), DstPort: 7000}
		flows = append(flows, f)
		m.add(f)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range flows {
			if _, ok := m.ix.Lookup(f); !ok {
				t.Fatal("miss")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates: %.2f allocs per sweep, want 0", allocs)
	}
}
