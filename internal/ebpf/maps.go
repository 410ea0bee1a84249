package ebpf

import "fmt"

// HashMap is a BPF map (BPF_MAP_TYPE_HASH with byte-string keys):
// fixed-size keys and values, shared between data-path programs and the
// control plane, with atomic updates (§3.3: "XDP modules may use BPF maps
// ... which may be modified by the control-plane").
type HashMap struct {
	name       string
	keySize    int
	valueSize  int
	maxEntries int
	m          map[string][]byte
}

// NewHashMap builds a hash map.
func NewHashMap(name string, keySize, valueSize, maxEntries int) *HashMap {
	return &HashMap{
		name: name, keySize: keySize, valueSize: valueSize,
		maxEntries: maxEntries, m: make(map[string][]byte),
	}
}

// Len returns the live entry count.
func (m *HashMap) Len() int { return len(m.m) }

// Lookup returns the stored value.
func (m *HashMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != m.keySize {
		return nil, false
	}
	v, ok := m.m[string(key)]
	return v, ok
}

// Update inserts or replaces an entry.
func (m *HashMap) Update(key, value []byte) error {
	if len(key) != m.keySize {
		return fmt.Errorf("ebpf: key size %d != %d", len(key), m.keySize)
	}
	if _, exists := m.m[string(key)]; !exists && len(m.m) >= m.maxEntries {
		return fmt.Errorf("ebpf: map %s full (%d entries)", m.name, m.maxEntries)
	}
	v := make([]byte, m.valueSize)
	copy(v, value)
	m.m[string(key)] = v
	return nil
}

// Delete removes an entry, reporting whether it existed.
func (m *HashMap) Delete(key []byte) bool {
	if _, ok := m.m[string(key)]; !ok {
		return false
	}
	delete(m.m, string(key))
	return true
}
