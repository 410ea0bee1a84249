package nfp

import (
	"fmt"

	"flextoe/internal/sim"
)

// Cache is a set-associative cache with LRU replacement, used to model the
// per-FPC CAM caches, the per-island CLS direct-mapped caches, the EMEM
// SRAM cache, and the pre-processor's lookup cache (§4.1). Keys are
// connection indices (or hash values); the cache tracks presence only —
// the simulated state itself lives elsewhere.
//
// The arrays cost what the cache holds: tags and age cover only the sets
// below the highest one accessed so far (at least 64 entries), doubling
// as higher sets are touched, up to the full geometry. A set past the end
// reads exactly like an empty one — no tag, age 0 — so hits, misses and
// LRU victims are those of the full arrays. Connection indices are dense
// and small, so the x86 port's 2^20-entry EMEM cache holds a few hundred
// entries, not 16 MB.
type Cache struct {
	mask uint64 // sets - 1: a key's set is key & mask
	ways int
	size int      // sets*ways: the full geometry
	tags []uint64 // the first len sets*ways slots, 0 = empty (keys are offset by 1)
	age  []uint64
	tick uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache with the given total entries and associativity.
// ways == entries gives a fully associative CAM; ways == 1 gives a
// direct-mapped cache. The set count must be a power of two, as it is on
// every modelled part (1/512/2048/128 sets on the Agilio, 1/65536/262144/
// 4096 on the x86 and BlueField ports), so an access picks its set with a
// mask, not a division.
func NewCache(entries, ways int) *Cache {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("nfp: bad cache geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("nfp: cache of %d entries in %d ways has %d sets, not a power of two", entries, ways, sets))
	}
	return &Cache{mask: uint64(sets - 1), ways: ways, size: entries}
}

// grow extends the arrays to cover the set at base: to twice their length,
// at least 64 entries, and at most the full geometry. The new sets are
// empty.
func (c *Cache) grow(base int) {
	n := min(c.size, max(2*len(c.tags), base+c.ways, 64))
	tags, age := make([]uint64, n), make([]uint64, n)
	copy(tags, c.tags)
	copy(age, c.age)
	c.tags, c.age = tags, age
}

// Access looks up key, installing it (with LRU eviction) on miss. It
// reports whether the access hit.
func (c *Cache) Access(key uint64) bool {
	c.tick++
	k := key + 1 // reserve 0 for "empty"
	base := int(key&c.mask) * c.ways
	if base+c.ways > len(c.tags) {
		c.grow(base)
	}
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

// StateCache models the protocol stage's multi-level connection-state
// caching (§4.1): a 16-entry fully associative CAM in FPC local memory, a
// 512-entry direct-mapped second level in the island's CLS, the EMEM SRAM
// cache, and finally EMEM DRAM. Access returns the stall the requesting
// FPC experiences.
type StateCache struct {
	local *Cache // per-FPC
	cls   *Cache // per-island (shared among the island's FPCs)
	emem  *Cache // global SRAM cache

	// The four levels' access latencies, converted from FPC cycles once
	// here so an access pays no division.
	localLat, clsLat, ememLat, dramLat sim.Time
}

// NewStateCache builds the hierarchy for one protocol FPC. cls and emem
// are shared: pass the same instances to every FPC in the island / on the
// NIC.
func NewStateCache(cfg *Config, cls, emem *Cache) *StateCache {
	return &StateCache{
		local:    NewCache(cfg.LocalCAMEntries, cfg.LocalCAMEntries),
		cls:      cls,
		emem:     emem,
		localLat: cfg.CyclesTime(cfg.LocalMemCycles),
		clsLat:   cfg.CyclesTime(cfg.CLSCycles),
		ememLat:  cfg.CyclesTime(cfg.EMEMCycles),
		dramLat:  cfg.CyclesTime(cfg.DRAMCycles),
	}
}

// NewCLSCache builds one island's CLS second-level cache.
func NewCLSCache(cfg *Config) *Cache { return NewCache(cfg.CLSCacheEntries, 1) }

// NewEMEMCache builds the NIC-wide EMEM SRAM cache model (4-way to soften
// conflict misses, as the paper's careful connection-index allocation
// implies).
func NewEMEMCache(cfg *Config) *Cache { return NewCache(cfg.EMEMCacheEntries, 4) }

// Access charges the stall for bringing connection state to the FPC.
func (sc *StateCache) Access(conn uint64) sim.Time {
	if sc.local.Access(conn) {
		return sc.localLat
	}
	if sc.cls.Access(conn) {
		return sc.clsLat
	}
	if sc.emem.Access(conn) {
		return sc.ememLat
	}
	return sc.dramLat
}
