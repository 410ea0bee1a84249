package apps

import (
	"bytes"
	"fmt"
)

// kvBlockSize is the record arena's block size: 64 KiB, the reach of the
// 16-bit offset in a record location.
const kvBlockSize = 1 << 16

// kvMinIndexBits is log2 of the index's initial slot count.
const kvMinIndexBits = 4

// kvStore is KVServer's table, built so that it costs what it holds.
//
// Records are [keyLen][valLen:2][key][val], appended to byte blocks that
// are never rewritten; a record larger than a block gets a block of its
// own. An open-addressed index of record locations (block<<16 | offset,
// stored +1 so that 0 marks an empty slot) finds them by a fixed FNV-1a
// hash and a full key compare. Nothing in the store holds a pointer but
// the block list, so the collector has one pointer per 64 KiB to follow,
// and a SET allocates nothing but the occasional block or index doubling.
//
// An overwrite appends a new record and counts the old one dead. Once
// dead bytes exceed live bytes (and a block's worth), compact copies the
// live records into fresh blocks and drops the old ones. A GET answers
// with a view into a record's block: since no block is ever written again,
// the view stays valid for as long as it is held, and the collector frees
// an old block once no queued response views it.
type kvStore struct {
	blockSize int
	blocks    [][]byte // len = bytes used, cap = block size
	fill      int      // block taking appends, -1 before the first
	index     []uint32 // record location + 1 per slot, 0 = empty; len a power of two
	shift     uint     // 64 - log2(len(index)): a hash's top bits pick its slot
	keys      int      // distinct keys stored
	live      int      // bytes of the records the index points to
	dead      int      // bytes of overwritten records still in the blocks
}

// newKVStore returns an empty store with the given block size, which must
// fit a 16-bit offset.
func newKVStore(blockSize int) *kvStore {
	if blockSize <= 0 || blockSize > kvBlockSize {
		panic(fmt.Sprintf("apps: kv block size %d outside 1..%d", blockSize, kvBlockSize))
	}
	return &kvStore{blockSize: blockSize, fill: -1, index: make([]uint32, 1<<kvMinIndexBits), shift: 64 - kvMinIndexBits}
}

// kvHash is 64-bit FNV-1a: fixed, so the index layout (and with it every
// probe) is the same on every run.
func kvHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// record returns the key and value of the record at loc; the value is
// capped at its length, so nothing appended through it reaches the block.
func (s *kvStore) record(loc uint32) (key, val []byte) {
	blk := s.blocks[loc>>16]
	off := int(loc & 0xffff)
	k := off + 3 + int(blk[off])
	v := k + (int(blk[off+1])<<8 | int(blk[off+2]))
	return blk[off+3 : k], blk[k:v:v]
}

// find returns the slot holding key, or the empty slot where it would go,
// and that slot's entry (0 when empty).
func (s *kvStore) find(key []byte) (int, uint32) {
	mask := len(s.index) - 1
	for i := int(kvHash(key) >> s.shift); ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return i, 0
		}
		if k, _ := s.record(e - 1); bytes.Equal(k, key) {
			return i, e
		}
	}
}

// get returns a view of key's value.
func (s *kvStore) get(key []byte) ([]byte, bool) {
	_, e := s.find(key)
	if e == 0 {
		return nil, false
	}
	_, v := s.record(e - 1)
	return v, true
}

// set stores a copy of val under key. key is at most 255 bytes and val at
// most 65 535 (the wire's length fields).
func (s *kvStore) set(key, val []byte) {
	if 2*(s.keys+1) > len(s.index) {
		s.grow()
	}
	slot, old := s.find(key)
	s.index[slot] = s.append(key, val) + 1
	s.live += 3 + len(key) + len(val)
	if old == 0 {
		s.keys++
		return
	}
	k, v := s.record(old - 1)
	n := 3 + len(k) + len(v)
	s.live -= n
	s.dead += n
	if s.dead > s.live && s.dead >= s.blockSize {
		s.compact()
	}
}

// append writes a record and returns its location.
func (s *kvStore) append(key, val []byte) uint32 {
	n := 3 + len(key) + len(val)
	b := s.fill
	switch {
	case n > s.blockSize:
		b = s.newBlock(n)
	case b < 0 || len(s.blocks[b])+n > s.blockSize:
		b = s.newBlock(s.blockSize)
		s.fill = b
	}
	blk := s.blocks[b]
	off := len(blk)
	blk = append(blk, byte(len(key)), byte(len(val)>>8), byte(len(val)))
	blk = append(blk, key...)
	s.blocks[b] = append(blk, val...)
	return uint32(b)<<16 | uint32(off)
}

// newBlock adds an empty block of the given capacity and returns its number.
func (s *kvStore) newBlock(capacity int) int {
	if len(s.blocks) == 1<<16 {
		panic("apps: kv store holds 65 536 blocks, the reach of a record location")
	}
	s.blocks = append(s.blocks, make([]byte, 0, capacity))
	return len(s.blocks) - 1
}

// grow doubles the index and re-files every entry.
func (s *kvStore) grow() {
	old := s.index
	s.index = make([]uint32, 2*len(old))
	s.shift--
	for _, e := range old {
		if e != 0 {
			k, _ := s.record(e - 1)
			slot, _ := s.find(k)
			s.index[slot] = e
		}
	}
}

// compact copies the live records, in block order, into fresh blocks
// appended behind the old ones — so a location says unambiguously which
// generation it is in while both exist — then drops the old blocks and
// renumbers the index. A record is live when the index points at it.
func (s *kvStore) compact() {
	nOld := len(s.blocks)
	s.fill = -1
	for b := 0; b < nOld; b++ {
		blk := s.blocks[b]
		for off := 0; off < len(blk); {
			loc := uint32(b)<<16 | uint32(off)
			k, v := s.record(loc)
			if slot, e := s.find(k); e == loc+1 {
				s.index[slot] = s.append(k, v) + 1
			}
			off += 3 + len(k) + len(v)
		}
	}
	s.blocks = append([][]byte(nil), s.blocks[nOld:]...)
	if s.fill >= 0 {
		s.fill -= nOld
	}
	for i, e := range s.index {
		if e != 0 {
			s.index[i] = e - uint32(nOld)<<16
		}
	}
	s.dead = 0
}
