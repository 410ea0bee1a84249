package nfp

// Contains reports presence without updating LRU state or counters: the
// probe the cache tests check Access's placement and eviction with.
func (c *Cache) Contains(key uint64) bool {
	k := key + 1
	base := int(key&c.mask) * c.ways
	if base+c.ways > len(c.tags) {
		return false // never touched: empty
	}
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == k {
			return true
		}
	}
	return false
}

// Utilization returns the issue slot's busy fraction, the reading the
// FPC oracle tests compare across implementations.
func (f *FPC) Utilization() float64 {
	now := f.eng.Now()
	if now == 0 {
		return 0
	}
	busy := f.issueBusy
	if f.issueFree > now {
		busy -= f.issueFree - now
	}
	return float64(busy) / float64(now)
}
