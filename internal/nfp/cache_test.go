package nfp

import (
	"fmt"
	"math/rand"
	"testing"
)

// flatCache is Cache as it was before its arrays grew with use: every
// set allocated up front. The grown cache must be indistinguishable from
// it.
type flatCache struct {
	mask      uint64
	ways      int
	tags, age []uint64
	tick      uint64

	Hits, Misses uint64
}

func newFlatCache(entries, ways int) *flatCache {
	return &flatCache{mask: uint64(entries/ways - 1), ways: ways,
		tags: make([]uint64, entries), age: make([]uint64, entries)}
}

func (c *flatCache) Access(key uint64) bool {
	c.tick++
	k := key + 1
	base := int(key&c.mask) * c.ways
	var victim, oldest = base, c.age[base]
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == k {
			c.age[i] = c.tick
			c.Hits++
			return true
		}
		if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.tags[victim] = k
	c.age[victim] = c.tick
	c.Misses++
	return false
}

func (c *flatCache) Contains(key uint64) bool {
	k := key + 1
	base := int(key&c.mask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == k {
			return true
		}
	}
	return false
}

// sameSlots reports the first slot in [lo, hi) where the grown cache and
// the flat one differ; a slot the grown cache does not cover must be
// empty in the flat one.
func sameSlots(c *Cache, ref *flatCache, lo, hi int) error {
	for i := lo; i < hi; i++ {
		var tag, age uint64
		if i < len(c.tags) {
			tag, age = c.tags[i], c.age[i]
		}
		if tag != ref.tags[i] || age != ref.age[i] {
			return fmt.Errorf("slot %d holds tag %d age %d (covered %d), flat cache tag %d age %d",
				i, tag, age, len(c.tags), ref.tags[i], ref.age[i])
		}
	}
	return nil
}

// TestGrownCacheMatchesFlat runs the grown Cache and the flat reference
// on seeded key streams over every cache of the Agilio and x86
// geometries. The keys are connection indices drawn from a range that
// widens as the stream goes on, so the covered sets grow step by step,
// mixed with hash-like keys anywhere in the key space; Contains probes
// up to four times past the range, so many land on sets
// the grown cache does not cover yet. Every result, the hit and miss
// counts, the touched set after every call and every slot at the end
// must match.
//
// It fails if the arrays grow one set short (the Access indexes past
// them, or a set straddles the end) and if Contains indexes past the
// covered sets instead of reading them as empty.
func TestGrownCacheMatchesFlat(t *testing.T) {
	geoms := []struct {
		name          string
		entries, ways int
	}{
		{"agilio local CAM", 16, 16}, {"agilio CLS", 512, 1}, {"agilio EMEM", 8192, 4}, {"agilio pre-lookup", 128, 1},
		{"x86 local CAM", 64, 64}, {"x86 CLS", 1 << 16, 1}, {"x86 EMEM", 1 << 20, 4}, {"x86 pre-lookup", 1 << 12, 1},
		{"odd ways", 96, 3},
	}
	const steps = 20000
	for _, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, ref := NewCache(g.entries, g.ways), newFlatCache(g.entries, g.ways)
			where := fmt.Sprintf("%s seed %d", g.name, seed)
			for i := 0; i < steps; i++ {
				span := uint64(8) << (uint(i) * 20 / steps) // 8 .. 8M connections
				key := uint64(rng.Int63n(int64(span)))
				if rng.Intn(50) == 0 {
					key = rng.Uint64() // a hash value: any set
				}
				switch op := rng.Intn(10); {
				case op < 6:
					if a, b := c.Access(key), ref.Access(key); a != b {
						t.Fatalf("%s: Access(%d) hit %v, flat cache %v", where, key, a, b)
					}
				default:
					key *= 4
					if a, b := c.Contains(key), ref.Contains(key); a != b {
						t.Fatalf("%s: Contains(%d) = %v, flat cache %v", where, key, a, b)
					}
				}
				base := int(key&ref.mask) * ref.ways
				if err := sameSlots(c, ref, base, base+ref.ways); err != nil {
					t.Fatalf("%s: after step %d on key %d: %v", where, i, key, err)
				}
				if c.Hits != ref.Hits || c.Misses != ref.Misses {
					t.Fatalf("%s: %d hits %d misses, flat cache %d and %d", where, c.Hits, c.Misses, ref.Hits, ref.Misses)
				}
			}
			if err := sameSlots(c, ref, 0, g.entries); err != nil {
				t.Fatalf("%s: at the end: %v", where, err)
			}
		}
	}
}

// TestCacheGrowsWithUse: a cache covers only the sets touched so far,
// at least 64 entries, doubling as higher sets are touched and never past
// the full geometry; probes past the covered sets allocate nothing.
func TestCacheGrowsWithUse(t *testing.T) {
	c := NewCache(1<<20, 4) // the x86 port's EMEM cache
	if c.tags != nil {
		t.Fatalf("a new cache holds %d entries", len(c.tags))
	}
	if c.Contains(1000) || len(c.tags) != 0 {
		t.Fatal("Contains on an empty cache allocated")
	}
	for conn := uint64(0); conn < 300; conn++ {
		c.Access(conn)
	}
	if len(c.tags) != 2048 || len(c.age) != 2048 { // 300 sets of 4 -> 1200 -> 64, 128 .. 2048
		t.Fatalf("300 connections cover %d entries, want 2048", len(c.tags))
	}
	if c.Contains(1<<19) || len(c.tags) != 2048 {
		t.Fatal("Contains past the covered sets allocated")
	}
	if c.Access(1<<18 - 1); len(c.tags) != 1<<20 {
		t.Fatalf("the highest set covers %d entries, want %d", len(c.tags), 1<<20)
	}
}
