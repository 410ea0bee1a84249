package apps

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"flextoe/internal/stats"
)

// kvCoverage says which corners of the store a SET/GET sequence reached.
type kvCoverage struct {
	emptyKey, maxKey   bool // a SET with a 0-byte key, with a 255-byte key
	emptyVal, bigVal   bool // a SET of a 0-byte value, of one larger than a block
	resized            bool // an overwrite that changed the value's length
	compactions, views int  // compactions run, GET hit views held to the end
	grows              int  // index doublings
	tagMismatches      int  // probes past a slot whose control byte matched another key's
}

// add merges o's corners into c.
func (c *kvCoverage) add(o kvCoverage) {
	c.emptyKey, c.maxKey = c.emptyKey || o.emptyKey, c.maxKey || o.maxKey
	c.emptyVal, c.bigVal = c.emptyVal || o.emptyVal, c.bigVal || o.bigVal
	c.resized = c.resized || o.resized
	c.compactions += o.compactions
	c.views += o.views
	c.grows = max(c.grows, o.grows)
	c.tagMismatches += o.tagMismatches
}

// complete reports whether c reaches every corner: empty and 255-byte
// keys, empty and larger-than-block values, length-changing overwrites,
// several compactions, views held across them, an index grown at least
// three times and a probe past a control-byte match on another key.
func (c kvCoverage) complete() bool {
	return c.emptyKey && c.maxKey && c.emptyVal && c.bigVal && c.resized &&
		c.compactions >= 3 && c.views > 0 && c.grows >= 3 && c.tagMismatches > 0
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

// kvGenKey is the generated key of an op whose a has its top bit set: 4
// bytes, no pool key's length, built from a's key bits and the length
// operand b, so up to 2 048 distinct keys fill the index far past its
// first slots.
func kvGenKey(a, b byte) []byte { return []byte{0xfe, a >> 1 & 7, b, 0x5a} }

// kvTagMismatches counts the slots on key's probe path whose control byte
// matches key's but whose record holds another key: the probes where the
// key compare, not the control byte, decides.
func kvTagMismatches(s *kvStore, key []byte) int {
	h := kvHash(key)
	c, mask, n := kvCtrl(h), len(s.ctrl)-1, 0
	for i := int(h >> s.shift); s.ctrl[i] != 0; i = (i + 1) & mask {
		if s.ctrl[i] != c {
			continue
		}
		if k, _ := s.record(s.index[i]); bytes.Equal(k, key) {
			break
		}
		n++
	}
	return n
}

// checkKVStore runs the SET/GET sequence data encodes against a fresh
// store and a map[string][]byte reference. Byte 0 picks the block size
// (64 B to 512 B, so records outgrow blocks and dead bytes pile up fast);
// then each op is two bytes a, b: a&1 is GET, a>>1&7 the key, a>>4&7 the
// value length class, b a length operand, and with a's top bit set the key
// is kvGenKey(a, b) instead of a pool key. Every GET hit's view is held to
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
		if a&0x80 != 0 {
			key = kvGenKey(a, byte(b))
		}
		cov.tagMismatches += kvTagMismatches(s, key)
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
		switch a >> 4 & 7 {
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
		dead, slots := s.dead, len(s.ctrl)
		s.set(key, val)
		if s.dead < dead {
			cov.compactions++
		}
		if len(s.ctrl) > slots {
			cov.grows++
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
// (testdata/fuzz/FuzzKVStore: 300 random ops on each block size, a
// directed run of length-changing overwrites and a directed run of
// generated keys) reaches every corner kvCoverage names
// (TestKVStoreCorpusCoverage). Kills: an overwrite written in place over
// the old record, a compaction that appends into an old block, a probe
// that takes the first occupied slot of a key's path without the key
// compare, a control-byte match taken without the key compare, a grow
// that re-files locations but not control bytes, and a probe that stops
// at a mismatched control byte instead of at an empty slot.
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
// on every block size and requires each to reach every corner (see
// kvCoverage.complete).
func TestKVStoreMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		data := kvSeedOps(seed, 4000)
		data[0] = byte(seed - 1)
		cov := checkKVStore(t, data)
		t.Logf("seed %d, %d B blocks: %+v", seed, 64<<data[0], cov)
		if !cov.complete() {
			t.Errorf("seed %d reached only %+v", seed, cov)
		}
	}
}

// kvGrowthOps is the directed-growth corpus entry: 64 B blocks, SETs of
// 600 generated keys with short values, then a GET of each, so the index
// doubles six times and probes pass control-byte matches on other keys.
func kvGrowthOps() []byte {
	data := []byte{0}
	for _, get := range []byte{0, 1} {
		for i := 0; i < 600; i++ {
			data = append(data, 0x80|0x50|byte(i>>8)<<1|get, byte(i))
		}
	}
	return data
}

// TestKVStoreCorpusCoverage replays the committed FuzzKVStore corpus
// through checkKVStore and requires it to reach every corner, so a change
// to the store that strands a corner of the corpus fails here and not
// only after fuzzing.
func TestKVStoreCorpusCoverage(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzKVStore/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var all kvCoverage
	for _, name := range files {
		cov := checkKVStore(t, readKVCorpus(t, name))
		t.Logf("%s: %+v", filepath.Base(name), cov)
		all.add(cov)
	}
	if !all.complete() {
		t.Errorf("the corpus reached only %+v", all)
	}
	if !bytes.Equal(readKVCorpus(t, "testdata/fuzz/FuzzKVStore/directed-growth"), kvGrowthOps()) {
		t.Errorf("directed-growth is not kvGrowthOps' output")
	}
}

// readKVCorpus returns the bytes of a one-[]byte corpus file.
func readKVCorpus(t *testing.T, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(text)), "go test fuzz v1\n[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("%s: not a one-[]byte corpus entry: %v", name, err)
	}
	return []byte(data)
}

// TestKVStoreBytesPerRecord gates what a stored record costs: distinct
// 32 B/32 B SETs, the kv_flextoe record shape, measured as the live-heap
// delta after a collection at 100 000 records and just past two index
// doublings, where an index is emptiest: this store's (114 689 records,
// 7/8 of 2^17 slots) and a half-load index's (131 073, half of 2^18),
// the worst point of the index this one replaced. A record is 67 B
// in its block; the index adds 5.7 to 11.4 B (5 B a slot at a load
// between 7/16 and 7/8). Readings: 73.7, 78.6 and 77.2 B. A
// map[string][]byte holding copies costs 127 B at 100 000 and 154 B at
// the end of a full-length kv_flextoe run.
func TestKVStoreBytesPerRecord(t *testing.T) {
	const budget = 80
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newKVStore(kvBlockSize)
	key, val := make([]byte, 32), make([]byte, 32)
	n := 0
	for _, at := range []int{100_000, 114_689, 131_073} {
		for ; n < at; n++ {
			binary.BigEndian.PutUint64(key, uint64(n))
			s.set(key, val)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
		t.Logf("%d records, %d index slots: %.1f B of live heap per 32 B/32 B record, budget %d", n, len(s.ctrl), perRecord, budget)
		if perRecord > budget {
			t.Errorf("%d records: %.1f B per record, budget %d", n, perRecord, budget)
		}
	}
	runtime.KeepAlive(s)
}

// kvBenchRecords is kv_flextoe's store size at the end of a full-length
// run: about 140 000 records of 32 B keys and 32 B values.
const kvBenchRecords = 140_000

// kvBenchKeys returns n 32-byte keys of random lowercase letters, the
// shape KVClient sends, back to back in one slice.
func kvBenchKeys(seed uint64, n int) []byte {
	rng := stats.NewRNG(seed)
	keys := make([]byte, 32*n)
	for i := range keys {
		keys[i] = byte('a' + rng.Intn(26))
	}
	return keys
}

// kvBenchStore returns a store holding n records and their keys.
func kvBenchStore(n int) (*kvStore, []byte) {
	s, keys, val := newKVStore(kvBlockSize), kvBenchKeys(1, n), make([]byte, 32)
	for i := 0; i < n; i++ {
		s.set(keys[32*i:32*i+32], val)
	}
	return s, keys
}

// BenchmarkKVStoreGetMiss is kv_flextoe's common operation: a GET of a
// random key, which misses. It runs at kv_flextoe's size and at 114 000
// records, just under 7/8 load of 2^17 slots, where a miss probes longest.
func BenchmarkKVStoreGetMiss(b *testing.B) {
	for _, n := range []int{kvBenchRecords, 114_000} {
		b.Run("records="+strconv.Itoa(n), func(b *testing.B) {
			s, _ := kvBenchStore(n)
			miss := kvBenchKeys(2, 1<<14)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := 32 * (i & (1<<14 - 1))
				if _, ok := s.get(miss[j : j+32]); ok {
					b.Fatal("hit")
				}
			}
			b.ReportMetric(float64(n)/float64(len(s.ctrl)), "load")
		})
	}
}

// BenchmarkKVStoreGetHit GETs stored keys in insertion order.
func BenchmarkKVStoreGetHit(b *testing.B) {
	s, keys := kvBenchStore(kvBenchRecords)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 32 * (i % kvBenchRecords)
		if _, ok := s.get(keys[j : j+32]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkKVStoreSet overwrites stored keys in insertion order, so the
// store keeps its size and the cost includes compaction's share.
func BenchmarkKVStoreSet(b *testing.B) {
	s, keys := kvBenchStore(kvBenchRecords)
	val := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 32 * (i % kvBenchRecords)
		s.set(keys[j:j+32], val)
	}
}
