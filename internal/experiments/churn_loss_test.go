package experiments

import (
	"encoding/binary"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/api/apitest"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// Churn under loss is where slot reuse can silently corrupt data: a
// retransmitted or reordered segment from a dead connection that lands
// on a reclaimed slot would splice the old flow's bytes into the new
// flow's stream. The post-close linger (4*MinRTO before reclamation)
// exists to make that impossible. This gate drives dial/close waves
// through a Fig 15-style lossy switch where every connection carries a
// unique 8-byte tag that the server echoes back, and asserts the echoed
// bytes always match — any linger violation shows up as a tag mismatch.

// churnLossResult captures everything a lossy churn run observably
// produces; runs are compared with != for the determinism gate.
type churnLossResult struct {
	dials      int
	echoes     int
	mismatches int
	tracked    int    // live connections after the linger drain
	stateBytes [2]int // NIC connection state after each churn half
	retxSegs   uint64 // server retransmissions (proves loss was live)
	loans      string // what sim.Engine.Unreturned names after the drain
}

// tagFor derives connection i's unique 8-byte tag.
func tagFor(i int) [8]byte {
	var tag [8]byte
	binary.BigEndian.PutUint64(tag[:], 0xc0ffee0000000000^uint64(i)*0x9e3779b97f4a7c15)
	return tag
}

// churnLossRun runs two halves of tagged dial/close waves under the
// given loss probability, draining lingers after each half so the second
// half must reuse the slots the first half freed.
func churnLossRun(seed uint64, lossProb float64, waves, perWave int) churnLossResult {
	tb := testbed.New(netsim.SwitchConfig{Seed: seed, LossProb: lossProb},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, BufSize: 4096, Seed: seed},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, BufSize: 4096, Seed: seed + 1},
	)
	srv := tb.M("server")
	var r churnLossResult

	// Echo server: send back whatever arrives, close once a full tag has
	// been echoed (the client closes after verifying, so both directions
	// finish and the slot enters its linger).
	srv.Stack.Listen(9191, func(sock api.Socket) {
		echoed := 0
		var buf [8]byte
		sock.OnReadable(func() {
			for {
				n := apitest.Read(sock, buf[:])
				if n == 0 {
					return
				}
				apitest.Write(sock, buf[:n])
				echoed += n
				if echoed >= 8 {
					sock.Close()
					return
				}
			}
		})
	})

	cl := tb.M("client").Stack
	addr := tb.Addr("server", 9191)
	conn := 0
	dialWave := func(count int) {
		for i := 0; i < count; i++ {
			tag := tagFor(conn)
			conn++
			r.dials++
			cl.Dial(addr, func(sock api.Socket) {
				apitest.Write(sock, tag[:])
				got := 0
				var buf [8]byte
				sock.OnReadable(func() {
					for got < 8 {
						n := apitest.Read(sock, buf[got:])
						if n == 0 {
							return
						}
						for k := 0; k < n; k++ {
							if buf[got+k] != tag[got+k] {
								r.mismatches++
							}
						}
						got += n
					}
					r.echoes++
					sock.Close()
				})
			})
		}
	}

	half := func(w int) {
		for i := 0; i < w; i++ {
			dialWave(perWave)
			tb.Run(tb.Eng.Now() + sim.Millisecond)
		}
		// Loss can delay handshakes and teardowns into RTO territory;
		// give every straggler time to finish and every slot its linger.
		tb.Run(tb.Eng.Now() + 60*sim.Millisecond)
	}
	half(waves / 2)
	r.stateBytes[0] = srv.TOE.ConnStateBytes()
	half(waves - waves/2)
	r.stateBytes[1] = srv.TOE.ConnStateBytes()
	r.tracked = srv.Ctrl.NumTracked()
	r.retxSegs = srv.TOE.RetxSegs + tb.M("client").TOE.RetxSegs
	// A teardown whose last ACK was lost retries its FIN through a whole
	// backed-off series (about a quarter second) before it gives up.
	tb.Run(tb.Eng.Now() + sim.Second)
	if err := tb.Eng.Unreturned(); err != nil {
		r.loans = err.Error()
	}
	return r
}

// TestChurnUnderLossKeepsTagsIntact is the churn x loss gate: Fig 15's
// 1% loss rate over dial/close waves, where the second half of the churn
// reuses slots the first half freed. Zero tag mismatches means no
// segment ever landed on a reused slot; flat state bytes across the
// halves proves the reuse actually happened.
func TestChurnUnderLossKeepsTagsIntact(t *testing.T) {
	r := churnLossRun(151, 0.01, 20, 8)
	if r.mismatches != 0 {
		t.Errorf("%d echoed bytes did not match their connection's tag: a segment landed on a reused slot", r.mismatches)
	}
	// Loss eats some SYNs and FINs; most — not all — connections must
	// still complete the full tag round trip. Never assert
	// echoes == dials under loss.
	if r.echoes < r.dials/2 {
		t.Errorf("only %d of %d dials completed the echo round trip", r.echoes, r.dials)
	}
	if r.retxSegs == 0 {
		t.Errorf("no retransmissions at 1%% loss: the lossy path was not exercised")
	}
	if r.stateBytes[1] > r.stateBytes[0] {
		t.Errorf("connection state grew across churn halves: %d -> %d bytes (slots not reused)",
			r.stateBytes[0], r.stateBytes[1])
	}
	if r.tracked != 0 {
		t.Errorf("%d connections still tracked after the linger drain", r.tracked)
	}
	// Every handshake, teardown, retransmission and linger timer is over:
	// every pool must have had back all it lent.
	if r.loans != "" {
		t.Error(r.loans)
	}
}

// TestChurnUnderLossIsDeterministic reruns the same seeded lossy churn
// and requires bit-identical observable results — loss, retransmission,
// linger, and slot-reuse timing all inside the determinism contract.
func TestChurnUnderLossIsDeterministic(t *testing.T) {
	a := churnLossRun(151, 0.01, 10, 8)
	b := churnLossRun(151, 0.01, 10, 8)
	if a != b {
		t.Errorf("same-seed lossy churn diverged:\n  run A %+v\n  run B %+v", a, b)
	}
}
