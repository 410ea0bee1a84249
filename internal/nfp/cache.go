package nfp

import "flextoe/internal/sim"

// Cache is a set-associative cache with LRU replacement, used to model the
// per-FPC CAM caches, the per-island CLS direct-mapped caches, the EMEM
// SRAM cache, and the pre-processor's lookup cache (§4.1). Keys are
// connection indices (or hash values); the cache tracks presence only —
// the simulated state itself lives elsewhere.
type Cache struct {
	sets int
	ways int
	tags []uint64 // sets*ways, 0 = empty (keys are offset by 1)
	age  []uint64
	tick uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds a cache with the given total entries and associativity.
// ways == entries gives a fully associative CAM; ways == 1 gives a
// direct-mapped cache.
func NewCache(entries, ways int) *Cache {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("nfp: bad cache geometry")
	}
	return &Cache{
		sets: entries / ways,
		ways: ways,
		tags: make([]uint64, entries),
		age:  make([]uint64, entries),
	}
}

// Access looks up key, installing it (with LRU eviction) on miss. It
// reports whether the access hit.
func (c *Cache) Access(key uint64) bool {
	c.tick++
	k := key + 1 // reserve 0 for "empty"
	set := int(key % uint64(c.sets))
	base := set * c.ways
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

// Contains reports presence without updating LRU state or counters.
func (c *Cache) Contains(key uint64) bool {
	k := key + 1
	base := int(key%uint64(c.sets)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == k {
			return true
		}
	}
	return false
}

// Invalidate removes key if present.
func (c *Cache) Invalidate(key uint64) {
	k := key + 1
	base := int(key%uint64(c.sets)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == k {
			c.tags[i] = 0
			c.age[i] = 0
		}
	}
}

// StateCache models the protocol stage's multi-level connection-state
// caching (§4.1): a 16-entry fully associative CAM in FPC local memory, a
// 512-entry direct-mapped second level in the island's CLS, the EMEM SRAM
// cache, and finally EMEM DRAM. Access returns the stall the requesting
// FPC experiences.
type StateCache struct {
	cfg   *Config
	local *Cache // per-FPC
	cls   *Cache // per-island (shared among the island's FPCs)
	emem  *Cache // global SRAM cache
}

// NewStateCache builds the hierarchy for one protocol FPC. cls and emem
// are shared: pass the same instances to every FPC in the island / on the
// NIC.
func NewStateCache(cfg *Config, cls, emem *Cache) *StateCache {
	return &StateCache{
		cfg:   cfg,
		local: NewCache(cfg.LocalCAMEntries, cfg.LocalCAMEntries),
		cls:   cls,
		emem:  emem,
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
		return sc.cfg.CyclesTime(sc.cfg.LocalMemCycles)
	}
	if sc.cls.Access(conn) {
		return sc.cfg.CyclesTime(sc.cfg.CLSCycles)
	}
	if sc.emem.Access(conn) {
		return sc.cfg.CyclesTime(sc.cfg.EMEMCycles)
	}
	return sc.cfg.CyclesTime(sc.cfg.DRAMCycles)
}
