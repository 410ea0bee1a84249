package apps

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"flextoe/internal/stats"
)

// kvCoverage says which corners of the store a SET/GET sequence reached.
type kvCoverage struct {
	emptyKey, maxKey   bool // a SET with a 0-byte key, with a 255-byte key
	emptyVal, bigVal   bool // a SET of a 0-byte value, of one larger than a block
	resized            bool // an overwrite that changed the value's length
	compactions, views int  // compactions run, GET hit views held to the end
}

// kvFuzzKeys is the key pool the ops draw from: an empty key, keys that
// are prefixes of one another, two 32-byte keys that differ only in their
// last byte, and a 255-byte key.
var kvFuzzKeys = func() [][]byte {
	var keys [][]byte
	for i, n := range []int{0, 1, 3, 8, 32, 32, 100, 255} {
		k := make([]byte, n)
		for j := range k {
			k[j] = byte(j * 7)
		}
		if i == 5 {
			k[n-1]++
		}
		keys = append(keys, k)
	}
	return keys
}()

// checkKVStore runs the SET/GET sequence data encodes against a fresh
// store and a map[string][]byte reference. Byte 0 picks the block size
// (64 B to 512 B, so records outgrow blocks and dead bytes pile up fast);
// then each op is two bytes a, b: a&1 is GET, a>>1&7 the key, a>>4 the
// value length class, b a length operand. Every GET hit's view is held to
// the end and checked there, after every later overwrite and compaction.
func checkKVStore(t *testing.T, data []byte) kvCoverage {
	t.Helper()
	if len(data) == 0 {
		return kvCoverage{}
	}
	block := 64 << (data[0] & 3)
	s := newKVStore(block)
	ref := map[string][]byte{}
	var cov kvCoverage
	type held struct{ view, want []byte }
	var views []held
	for i := 1; i+1 < len(data); i += 2 {
		a, b := data[i], int(data[i+1])
		key := kvFuzzKeys[a>>1&7]
		if a&1 == 1 {
			v, ok := s.get(key)
			w, wok := ref[string(key)]
			if ok != wok || !bytes.Equal(v, w) {
				t.Fatalf("op %d: GET %d-byte key = %d bytes (found %v), want %d (found %v)", i/2, len(key), len(v), ok, len(w), wok)
			}
			if ok {
				views = append(views, held{v, w})
			}
			continue
		}
		var n int
		switch a >> 4 {
		case 0:
			n = 0
		case 1:
			n = 1
		case 2:
			n = b
		case 3:
			n = max(block-3-len(key), 0) // fills a block exactly
		case 4:
			n = block + b // larger than a block
		default:
			n = b % 48
		}
		val := make([]byte, n)
		for j := range val {
			val[j] = byte(i + j)
		}
		if old, ok := ref[string(key)]; ok && len(old) != n {
			cov.resized = true
		}
		cov.emptyKey = cov.emptyKey || len(key) == 0
		cov.maxKey = cov.maxKey || len(key) == 255
		cov.emptyVal = cov.emptyVal || n == 0
		cov.bigVal = cov.bigVal || n > block
		dead := s.dead
		s.set(key, val)
		if s.dead < dead {
			cov.compactions++
		}
		ref[string(key)] = val
	}
	live := 0
	for k, w := range ref {
		live += 3 + len(k) + len(w)
		if v, ok := s.get([]byte(k)); !ok || !bytes.Equal(v, w) {
			t.Fatalf("end: %d-byte key reads %d bytes (found %v), want %d", len(k), len(v), ok, len(w))
		}
	}
	if s.keys != len(ref) || s.live != live {
		t.Fatalf("store counts %d keys / %d live bytes, reference %d / %d", s.keys, s.live, len(ref), live)
	}
	for j, h := range views {
		if !bytes.Equal(h.view, h.want) {
			t.Fatalf("GET view %d changed after it was taken: %x, want %x", j, h.view, h.want)
		}
	}
	cov.views = len(views)
	return cov
}

// FuzzKVStore holds the record arena to a map on arbitrary SET/GET
// sequences (see checkKVStore for the encoding). The committed corpus
// (testdata/fuzz/FuzzKVStore: 300 random ops on each block size and a
// directed run of length-changing overwrites) reaches every corner
// kvCoverage names. Kills: an overwrite written in place over the old
// record, a compaction that appends into an old block, and a probe that
// takes the first occupied slot of a key's path without the key compare.
func FuzzKVStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkKVStore(t, data) })
}

// kvSeedOps returns a block-size byte and n random ops.
func kvSeedOps(seed uint64, n int) []byte {
	rng := stats.NewRNG(seed)
	data := make([]byte, 1+2*n)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

// TestKVStoreMatchesMap runs long random sequences through checkKVStore
// on every block size and requires them to reach every corner: empty and
// 255-byte keys, empty and larger-than-block values, length-changing
// overwrites, several compactions and views held across them.
func TestKVStoreMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		data := kvSeedOps(seed, 4000)
		data[0] = byte(seed - 1)
		cov := checkKVStore(t, data)
		t.Logf("seed %d, %d B blocks: %+v", seed, 64<<data[0], cov)
		if !cov.emptyKey || !cov.maxKey || !cov.emptyVal || !cov.bigVal || !cov.resized ||
			cov.compactions < 3 || cov.views == 0 {
			t.Errorf("seed %d reached only %+v", seed, cov)
		}
	}
}

// TestKVStoreBytesPerRecord gates what a stored record costs: 100 000
// distinct 32 B/32 B SETs, the kv_flextoe record shape, measured as the
// live-heap delta after a collection. A record is 67 B in its block; the
// index adds 8 to 16 B at a load between a quarter and a half (10.5 B
// here). A map[string][]byte holding copies costs 127 B here and 154 B
// at the end of a full-length kv_flextoe run.
func TestKVStoreBytesPerRecord(t *testing.T) {
	const n, budget = 100_000, 90
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newKVStore(kvBlockSize)
	key, val := make([]byte, 32), make([]byte, 32)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key, uint64(i))
		s.set(key, val)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of live heap per 32 B/32 B record, budget %d", perRecord, budget)
	if perRecord > budget {
		t.Errorf("%.1f B per record, budget %d", perRecord, budget)
	}
	runtime.KeepAlive(s)
}
