package apps

import (
	"encoding/binary"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/sim"
	"flextoe/internal/stats"
)

// frameSock is an api.Socket whose transmit side records every committed
// byte and offers a fixed amount of space; kvConn.issue needs no more.
type frameSock struct {
	api.Socket
	space  int
	staged []byte
	sent   []byte
}

func (s *frameSock) TxSpace() int { return s.space }

func (s *frameSock) Reserve(n int) (a, b []byte) {
	s.staged = make([]byte, min(n, s.space))
	return s.staged, nil
}

func (s *frameSock) Commit(n int) { s.sent = append(s.sent, s.staged[:n]...) }

// TestKVFraming pins the request frame the KV client stages in its
// transmit ring, [op][keyLen][valLen:2][key][val] for a SET and
// [op][keyLen][0:2][key] for a GET, the response size it then waits for,
// and the deferral of a request the ring has no room for.
func TestKVFraming(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setRatio float64
		op       byte
		frame    int
		valLen   int
		resp     int
	}{
		{"get", 0, KVGet, 4 + 32, 0, 4 + 16},
		{"set", 1, KVSet, 4 + 32 + 16, 16, 4},
	} {
		c := &KVClient{KeyLen: 32, ValLen: 16, SetRatio: tc.setRatio, eng: sim.New(), rng: stats.NewRNG(1)}
		sock := &frameSock{space: 1 << 10}
		kc := &kvConn{c: c, sock: sock, key: make([]byte, c.KeyLen)}
		kc.issue()
		f := sock.sent
		if len(f) != tc.frame {
			t.Fatalf("%s: frame = %d bytes, want %d", tc.name, len(f), tc.frame)
		}
		if f[0] != tc.op || int(f[1]) != c.KeyLen || int(binary.BigEndian.Uint16(f[2:4])) != tc.valLen {
			t.Fatalf("%s: header = %v", tc.name, f[:4])
		}
		if string(f[4:4+c.KeyLen]) != string(kc.key) {
			t.Fatalf("%s: key not embedded", tc.name)
		}
		if len(kc.expect) != 1 || kc.expect[0] != tc.resp {
			t.Fatalf("%s: expects responses %v, want [%d]", tc.name, kc.expect, tc.resp)
		}
	}
	// A ring one byte short of a SET frame defers even a GET.
	c := &KVClient{KeyLen: 32, ValLen: 16, eng: sim.New(), rng: stats.NewRNG(1)}
	sock := &frameSock{space: 4 + 32 + 16 - 1}
	kc := &kvConn{c: c, sock: sock, key: make([]byte, c.KeyLen)}
	kc.issue()
	if len(sock.sent) != 0 || kc.deferred != 1 {
		t.Fatalf("short ring: sent %d bytes, deferred %d", len(sock.sent), kc.deferred)
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
	b.ResetMeasurement()
	for _, v := range b.Shares() {
		if v != 0 {
			t.Fatal("reset failed")
		}
	}
	if stats.JainFairness(shares) >= 1 {
		t.Fatal("unequal shares should have JFI < 1")
	}
}
