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
// own. An open-addressed index finds them by a fixed FNV-1a hash: the
// hash's top bits pick a key's first slot, and each slot holds a record
// location (block<<16 | offset) beside a control byte, 0 for an empty
// slot and otherwise 0x80 | the hash's low 7 bits. A probe compares a key
// only where the control byte matches, so a miss reads control bytes and
// (one time in 128 per occupied slot passed) a record. The index doubles
// at 7/8 load, so it costs 5.7 to 11.4 B per record. Nothing in the store
// holds a pointer but the block list, so the collector has one pointer per
// 64 KiB to follow, and a SET allocates nothing but the occasional block
// or index doubling.
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
	ctrl      []uint8  // per slot: 0 = empty, else 0x80 | hash&0x7f; len a power of two
	index     []uint32 // per slot: the record location, when ctrl is not 0
	shift     uint     // 64 - log2(len(ctrl)): a hash's top bits pick its slot
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
	return &kvStore{
		blockSize: blockSize, fill: -1, shift: 64 - kvMinIndexBits,
		ctrl: make([]uint8, 1<<kvMinIndexBits), index: make([]uint32, 1<<kvMinIndexBits),
	}
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

// kvCtrl is the control byte of an occupied slot whose key hashes to h.
func kvCtrl(h uint64) uint8 { return 0x80 | uint8(h&0x7f) }

// record returns the key and value of the record at loc; the value is
// capped at its length, so nothing appended through it reaches the block.
func (s *kvStore) record(loc uint32) (key, val []byte) {
	blk := s.blocks[loc>>16]
	off := int(loc & 0xffff)
	k := off + 3 + int(blk[off])
	v := k + (int(blk[off+1])<<8 | int(blk[off+2]))
	return blk[off+3 : k], blk[k:v:v]
}

// find returns the slot holding key, whose hash is h, and true; or the
// empty slot where key would go and false.
func (s *kvStore) find(h uint64, key []byte) (int, bool) {
	c, mask := kvCtrl(h), len(s.ctrl)-1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		switch s.ctrl[i] {
		case 0:
			return i, false
		case c:
			if k, _ := s.record(s.index[i]); bytes.Equal(k, key) {
				return i, true
			}
		}
	}
}

// get returns a view of key's value.
func (s *kvStore) get(key []byte) ([]byte, bool) {
	slot, ok := s.find(kvHash(key), key)
	if !ok {
		return nil, false
	}
	_, v := s.record(s.index[slot])
	return v, true
}

// set stores a copy of val under key. key is at most 255 bytes and val at
// most 65 535 (the wire's length fields).
func (s *kvStore) set(key, val []byte) {
	if 8*(s.keys+1) > 7*len(s.ctrl) { // past 7/8 load
		s.grow()
	}
	h := kvHash(key)
	slot, ok := s.find(h, key)
	old := s.index[slot]
	s.ctrl[slot] = kvCtrl(h)
	s.index[slot] = s.append(key, val)
	s.live += 3 + len(key) + len(val)
	if !ok {
		s.keys++
		return
	}
	k, v := s.record(old)
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

// grow doubles the index and re-files every slot's control byte and
// location.
func (s *kvStore) grow() {
	ctrl, index := s.ctrl, s.index
	s.ctrl = make([]uint8, 2*len(ctrl))
	s.index = make([]uint32, 2*len(index))
	s.shift--
	for i, c := range ctrl {
		if c != 0 {
			k, _ := s.record(index[i])
			j, _ := s.find(kvHash(k), k)
			s.ctrl[j], s.index[j] = c, index[i]
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
			if slot, ok := s.find(kvHash(k), k); ok && s.index[slot] == loc {
				s.index[slot] = s.append(k, v)
			}
			off += 3 + len(k) + len(v)
		}
	}
	s.blocks = append([][]byte(nil), s.blocks[nOld:]...)
	if s.fill >= 0 {
		s.fill -= nOld
	}
	for i, c := range s.ctrl {
		if c != 0 {
			s.index[i] -= uint32(nOld) << 16
		}
	}
	s.dead = 0
}
