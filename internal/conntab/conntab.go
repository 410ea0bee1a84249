// Package conntab provides the flat connection-table index shared by the
// FlexTOE pipeline and the baseline stacks (ROADMAP open item 2,
// "million-connection scale"): an open-addressed flow-hash index over
// dense slot arrays, replacing the Go maps that previously keyed
// connections (O(1) amortized everything, 0 allocations per lookup, and
// ~4 bytes of index state per connection at the 3/4 load factor —
// against Table 5's stage-partitioned per-connection budget).
//
// The index stores only slot numbers, not flow keys: the caller owns the
// dense slot array (the connection slab) and supplies a flowAt callback
// that reads the 4-tuple back out of a slot. This keeps the 12-byte key
// out of the index (one copy of the flow lives in the connection state
// itself, where the data path needs it anyway) at the cost of one
// indirection per probe compare. Deletion uses backward-shift
// compaction (Robin-Hood-style hole repair, no tombstones), so lookup
// cost never degrades under the churn workloads of Figure 9; the caller
// must Delete a slot while its flow is still readable, before recycling
// the slot.
//
// Hashing reuses packet.Flow.Hash (the NFP lookup engine's CRC-32 unit,
// §4.1) so the simulated NIC and the host-side table agree on placement,
// and determinism follows from the structure: probe order is a pure
// function of the inserted key multiset and insertion order, never of Go
// map iteration (doc.go "Determinism").
package conntab

import "flextoe/internal/packet"

// minBuckets keeps tiny tables allocation-cheap while still power-of-two
// sized for mask arithmetic.
const minBuckets = 16

// Index is an open-addressed, linear-probed map from packet.Flow to a
// dense slot number. The zero value is not ready; use New.
type Index struct {
	// entries holds slot+1 so the zero value means empty.
	entries []uint32
	mask    uint32
	n       int
	flowAt  func(slot uint32) packet.Flow
}

// New builds an empty index. flowAt must return the flow stored in a
// slot previously Inserted and not yet Deleted; it is never called for
// other slots.
func New(flowAt func(slot uint32) packet.Flow) *Index {
	return &Index{
		entries: make([]uint32, minBuckets),
		mask:    minBuckets - 1,
		flowAt:  flowAt,
	}
}

// Len returns the number of live entries.
func (ix *Index) Len() int { return ix.n }

// MemBytes returns the index's table footprint in bytes.
func (ix *Index) MemBytes() int { return len(ix.entries) * 4 }

// Lookup returns the slot stored for the flow. 0 allocations.
func (ix *Index) Lookup(f packet.Flow) (slot uint32, ok bool) {
	return ix.LookupHash(f, f.Hash())
}

// LookupHash is Lookup for a caller that already holds h == f.Hash() —
// the per-packet paths, which read it off the packet
// (packet.Packet.FlowHash) instead of hashing again.
func (ix *Index) LookupHash(f packet.Flow, h uint32) (slot uint32, ok bool) {
	i := h & ix.mask
	for {
		e := ix.entries[i]
		if e == 0 {
			return 0, false
		}
		if s := e - 1; ix.flowAt(s) == f {
			return s, true
		}
		i = (i + 1) & ix.mask
	}
}

// Insert records flow → slot. The caller must have already written the
// flow into the slot (flowAt(slot) == f). Inserting a flow that is
// already present is a caller bug; the index does not check.
func (ix *Index) Insert(f packet.Flow, slot uint32) {
	if (ix.n+1)*4 >= len(ix.entries)*3 {
		ix.grow()
	}
	ix.insert(f.Hash(), slot)
	ix.n++
}

func (ix *Index) insert(hash, slot uint32) {
	i := hash & ix.mask
	for ix.entries[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.entries[i] = slot + 1
}

// grow doubles the table and reinserts every entry. Bounded allocations
// per establish: amortized O(1) table growth, nothing per lookup.
func (ix *Index) grow() {
	old := ix.entries
	ix.entries = make([]uint32, len(old)*2)
	ix.mask = uint32(len(ix.entries) - 1)
	for _, e := range old {
		if e != 0 {
			s := e - 1
			ix.insert(ix.flowAt(s).Hash(), s)
		}
	}
}

// Delete removes the flow. The slot's flow must still be readable via
// flowAt (delete before recycling the slot). Missing flows are ignored.
func (ix *Index) Delete(f packet.Flow) {
	i := f.Hash() & ix.mask
	for {
		e := ix.entries[i]
		if e == 0 {
			return
		}
		if ix.flowAt(e-1) == f {
			break
		}
		i = (i + 1) & ix.mask
	}
	ix.n--
	// Backward-shift compaction: close the hole by sliding down any
	// follower whose home bucket would be unreachable past the hole.
	hole := i
	j := i
	for {
		j = (j + 1) & ix.mask
		e := ix.entries[j]
		if e == 0 {
			break
		}
		home := ix.flowAt(e-1).Hash() & ix.mask
		// Move e into the hole iff the hole lies cyclically between
		// home and j (i.e. the probe from home would hit the hole
		// before reaching j).
		if inProbeRange(home, hole, j) {
			ix.entries[hole] = e
			hole = j
		}
	}
	ix.entries[hole] = 0
}

// inProbeRange reports whether hole ∈ [home, j) cyclically.
func inProbeRange(home, hole, j uint32) bool {
	if home <= j {
		return home <= hole && hole < j
	}
	return home <= hole || hole < j
}
