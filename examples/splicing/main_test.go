package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// TestSplicingSmoke: the XDP program forwards the generator's frames and
// the sink receives every one of them, and once the testbed goes quiet
// every frame — the generator's too, drawn from the engine's pool — is
// back.
func TestSplicingSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if code := run(&stdout); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	text := stdout.String()
	m := regexp.MustCompile(`\((\d+) frames forwarded, (\d+) received at sink\)`).FindStringSubmatch(text)
	if m == nil || m[1] == "0" || m[1] != m[2] {
		t.Fatalf("frames not forwarded and delivered one for one:\n%s", text)
	}
	if !strings.Contains(text, "every loan returned") {
		t.Fatalf("missing the pool check:\n%s", text)
	}
}

// TestSpliceTXAllocBudget: XDP_TX rebuilds every forwarded frame in a
// packet from the engine's pool, its payload in the pool's slab, so a
// steady splice window allocates at most 0.01 times per forwarded frame
// and the pool lends exactly one packet per frame forwarded. When the
// rebuild decoded, serialized and decoded again outside the pool, each
// frame cost 3.00 allocations (6 608 B) and no pool loan, so
// sim.Engine.Unreturned could not see the rewritten packets.
func TestSpliceTXAllocBudget(t *testing.T) {
	s := newSplicer()
	s.stream(sim.Second)          // outlasts the windows below
	s.tb.Run(2 * sim.Millisecond) // warm pools, slab and the splice path
	pool := packet.PoolOf(s.tb.Eng)
	var runs, forwarded, gets uint64
	allocs := testing.AllocsPerRun(3, func() {
		tx := s.proxy.TOE.XDPTx
		g0, _ := pool.Traffic()
		s.tb.Run(s.tb.Eng.Now() + sim.Millisecond)
		g1, _ := pool.Traffic()
		runs++
		forwarded += s.proxy.TOE.XDPTx - tx
		gets += g1 - g0
	})
	if forwarded == 0 {
		t.Fatal("no frame forwarded in the measured windows")
	}
	perFrame := allocs / (float64(forwarded) / float64(runs))
	t.Logf("allocs per forwarded frame: %.4f (%d frames in %d windows, %d pool gets)", perFrame, forwarded, runs, gets)
	if perFrame > 0.01 {
		t.Fatalf("allocs per forwarded frame = %.4f, budget is 0.01", perFrame)
	}
	if gets != forwarded {
		t.Fatalf("packet pool lent %d packets for %d forwarded frames, want one each", gets, forwarded)
	}
}
