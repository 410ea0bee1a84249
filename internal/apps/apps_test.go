package apps

import (
	"testing"

	"flextoe/internal/stats"
)

func TestKVFraming(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef") // 32 B
	val := make([]byte, 32)
	get := KVEncodeRequest(KVGet, key, nil)
	if len(get) != KVRequestSize(KVGet, 32, 0) {
		t.Fatalf("GET frame = %d bytes", len(get))
	}
	if get[0] != KVGet || int(get[1]) != 32 {
		t.Fatalf("GET header = %v", get[:4])
	}
	set := KVEncodeRequest(KVSet, key, val)
	if len(set) != KVRequestSize(KVSet, 32, 32) {
		t.Fatalf("SET frame = %d bytes", len(set))
	}
	if set[0] != KVSet {
		t.Fatal("SET opcode")
	}
	if string(set[4:36]) != string(key) {
		t.Fatal("key not embedded")
	}
}

func TestClosedLoopConnJFI(t *testing.T) {
	c := &ClosedLoopClient{}
	c.perConn = []uint64{100, 100, 100, 100}
	if j := c.ConnJFI(); j != 1 {
		t.Fatalf("equal JFI = %v", j)
	}
	c.perConn = []uint64{400, 0, 0, 0}
	if j := c.ConnJFI(); j != 0.25 {
		t.Fatalf("skewed JFI = %v", j)
	}
}

func TestPerConnBulkSinkShares(t *testing.T) {
	b := &BulkSink{}
	b.counts = []uint64{10, 20, 30}
	shares := b.Shares()
	if len(shares) != 3 || shares[2] != 30 {
		t.Fatalf("shares = %v", shares)
	}
	b.ResetCounts()
	for _, v := range b.Shares() {
		if v != 0 {
			t.Fatal("reset failed")
		}
	}
	if stats.JainFairness(shares) >= 1 {
		t.Fatal("unequal shares should have JFI < 1")
	}
}
