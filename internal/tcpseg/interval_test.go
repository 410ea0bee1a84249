package tcpseg

import (
	"testing"
	"testing/quick"
)

func ivsEqual(a, b []SeqInterval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertSeqIntervalMerging(t *testing.T) {
	var ivs []SeqInterval
	ivs, r := InsertSeqInterval(ivs, SeqInterval{10, 20}, 32)
	if !r.Accepted || len(ivs) != 1 {
		t.Fatalf("insert into empty: %+v", r)
	}
	// Disjoint after.
	ivs, _ = InsertSeqInterval(ivs, SeqInterval{30, 40}, 32)
	if !ivsEqual(ivs, []SeqInterval{{10, 20}, {30, 40}}) {
		t.Fatalf("ivs = %v", ivs)
	}
	// Bridging segment merges everything.
	ivs, r = InsertSeqInterval(ivs, SeqInterval{15, 35}, 32)
	if !ivsEqual(ivs, []SeqInterval{{10, 40}}) || r.Merged != 1 || !r.AtHead {
		t.Fatalf("ivs = %v r = %+v", ivs, r)
	}
	// Adjacent extends.
	ivs, _ = InsertSeqInterval(ivs, SeqInterval{40, 50}, 32)
	if !ivsEqual(ivs, []SeqInterval{{10, 50}}) {
		t.Fatalf("ivs = %v", ivs)
	}
	// Disjoint before.
	ivs, r = InsertSeqInterval(ivs, SeqInterval{0, 5}, 32)
	if !ivsEqual(ivs, []SeqInterval{{0, 5}, {10, 50}}) || r.AtHead {
		t.Fatalf("ivs = %v r = %+v", ivs, r)
	}
}

func TestInsertSeqIntervalSinglePolicy(t *testing.T) {
	// The TAS/FlexTOE policy: max one interval; disjoint data rejected.
	var ivs []SeqInterval
	ivs, r := InsertSeqInterval(ivs, SeqInterval{100, 200}, 1)
	if !r.Accepted {
		t.Fatal("first interval rejected")
	}
	ivs, r = InsertSeqInterval(ivs, SeqInterval{300, 400}, 1)
	if r.Accepted {
		t.Fatal("second disjoint interval accepted with max=1")
	}
	if !ivsEqual(ivs, []SeqInterval{{100, 200}}) {
		t.Fatalf("ivs mutated on rejection: %v", ivs)
	}
	// Extension of the tracked interval is accepted.
	ivs, r = InsertSeqInterval(ivs, SeqInterval{200, 250}, 1)
	if !r.Accepted || !r.AtHead {
		t.Fatalf("adjacent extension rejected: %+v", r)
	}
	if !ivsEqual(ivs, []SeqInterval{{100, 250}}) {
		t.Fatalf("ivs = %v", ivs)
	}
}

func TestInsertSeqIntervalWraparound(t *testing.T) {
	// Intervals straddling the 2^32 sequence wrap merge correctly.
	var ivs []SeqInterval
	ivs, _ = InsertSeqInterval(ivs, SeqInterval{0xfffffff0, 0xfffffffa}, 4)
	ivs, r := InsertSeqInterval(ivs, SeqInterval{0xfffffffa, 0x10}, 4)
	if !r.Accepted || !ivsEqual(ivs, []SeqInterval{{0xfffffff0, 0x10}}) {
		t.Fatalf("wrap merge: ivs = %v r = %+v", ivs, r)
	}
	ivs, _ = InsertSeqInterval(ivs, SeqInterval{0x20, 0x30}, 4)
	if !ivsEqual(ivs, []SeqInterval{{0xfffffff0, 0x10}, {0x20, 0x30}}) {
		t.Fatalf("wrap ordering: ivs = %v", ivs)
	}
}

func TestMergeAdvance(t *testing.T) {
	ivs := []SeqInterval{{100, 200}, {300, 400}, {500, 600}}
	// Ack reaches into the first interval only.
	rest, ack, merged := MergeAdvance(ivs, 150)
	if ack != 200 || merged != 1 || !ivsEqual(rest, []SeqInterval{{300, 400}, {500, 600}}) {
		t.Fatalf("ack=%d merged=%d rest=%v", ack, merged, rest)
	}
	// Ack jumps over everything.
	rest, ack, merged = MergeAdvance(rest, 777)
	if ack != 777 || merged != 2 || len(rest) != 0 {
		t.Fatalf("ack=%d merged=%d rest=%v", ack, merged, rest)
	}
	// Ack short of every interval: nothing merges.
	rest, ack, merged = MergeAdvance([]SeqInterval{{100, 200}}, 50)
	if ack != 50 || merged != 0 || len(rest) != 1 {
		t.Fatalf("ack=%d merged=%d rest=%v", ack, merged, rest)
	}
}

func TestInsertSeqIntervalPropertySortedDisjoint(t *testing.T) {
	// Property: after any insertion sequence the set is sorted, disjoint,
	// non-adjacent, and within capacity.
	f := func(raw []uint16, maxRaw uint8) bool {
		max := int(maxRaw)%8 + 1
		var ivs []SeqInterval
		for i := 0; i+1 < len(raw); i += 2 {
			a := uint32(raw[i])
			b := a + uint32(raw[i+1]%512) + 1
			ivs, _ = InsertSeqInterval(ivs, SeqInterval{a, b}, max)
		}
		if len(ivs) > max {
			return false
		}
		for i := 0; i < len(ivs); i++ {
			if SeqGEQ(ivs[i].Start, ivs[i].End) {
				return false
			}
			if i > 0 && SeqGEQ(ivs[i-1].End, ivs[i].Start) {
				return false // overlapping or adjacent: should have merged
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSeqIntervalPropertyCoverage(t *testing.T) {
	// Property: with unbounded capacity, the set covers exactly the union
	// of everything inserted (checked against a bitmap oracle).
	f := func(raw []uint8) bool {
		var ivs []SeqInterval
		var oracle [1 << 11]bool
		for i := 0; i+1 < len(raw); i += 2 {
			a := uint32(raw[i]) << 2
			b := a + uint32(raw[i+1]%64) + 1
			ivs, _ = InsertSeqInterval(ivs, SeqInterval{a, b}, 1<<30)
			for p := a; p < b; p++ {
				oracle[p] = true
			}
		}
		covered := func(p uint32) bool {
			for _, iv := range ivs {
				if SeqLEQ(iv.Start, p) && SeqLT(p, iv.End) {
					return true
				}
			}
			return false
		}
		for p := uint32(0); p < 1<<11; p++ {
			if covered(p) != oracle[p] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
