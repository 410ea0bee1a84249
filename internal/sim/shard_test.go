package sim

import (
	"reflect"
	"testing"
)

// TestGroupSingleShardIsSerial: a one-shard group must be the serial
// engine path, bit for bit — same event count, same clock, no workers.
func TestGroupSingleShardIsSerial(t *testing.T) {
	run := func(schedule func(e *Engine)) (uint64, Time) {
		g := NewGroup(1)
		schedule(g.Engine(0))
		g.RunUntil(1 * Microsecond)
		return g.Engine(0).Processed(), g.Engine(0).Now()
	}
	serial := func(schedule func(e *Engine)) (uint64, Time) {
		e := New()
		schedule(e)
		e.RunUntil(1 * Microsecond)
		return e.Processed(), e.Now()
	}
	schedule := func(e *Engine) {
		var tick func()
		tick = func() {
			if e.Now() < 900*Nanosecond {
				e.AfterCall(7*Nanosecond, RunFunc, tick)
			}
		}
		e.AtCall(0, RunFunc, tick)
	}
	gn, gt := run(schedule)
	sn, st := serial(schedule)
	if gn != sn || gt != st {
		t.Fatalf("group(1) ran %d events to %v; serial engine %d to %v", gn, gt, sn, st)
	}
}

// TestGroupTokenRing circulates one token around n shards: each hop
// increments the local counter and injects the token into the next shard
// exactly one lookahead quantum later. The hop count and its distribution
// over shards are exact, so this checks window placement, the run/drain
// barriers, and cross-shard injection end to end.
func TestGroupTokenRing(t *testing.T) {
	const n = 4
	const look = 10 * Nanosecond
	const horizon = 1000 * Nanosecond

	g := NewGroup(n)
	g.NoteBoundary(look)
	counts := make([]int, n)
	var hop func(any)
	hop = func(arg any) {
		i := arg.(int)
		counts[i]++
		e := g.Engine(i)
		next := (i + 1) % n
		e.Inject(g.Engine(next), e.Now()+look, uint64(next+1)<<32|1, hop, next)
	}
	g.Engine(0).AtLinkCall(0, 1<<32, hop, 0)
	g.RunUntil(horizon)

	// Token visits times 0, L, 2L, ..., horizon inclusive.
	want := int(horizon/look) + 1
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != want {
		t.Fatalf("token made %d hops, want %d (counts %v)", total, want, counts)
	}
	for i, c := range counts {
		wi := want / n
		if i < want%n {
			wi++
		}
		if c != wi {
			t.Fatalf("shard %d saw %d hops, want %d (counts %v)", i, c, wi, counts)
		}
	}
	for i := 0; i < n; i++ {
		if now := g.Engine(i).Now(); now != horizon {
			t.Fatalf("shard %d clock %v after RunUntil(%v)", i, now, horizon)
		}
	}
}

// TestGroupResume: RunUntil must be resumable — the same token ring split
// across two RunUntil calls (workers are respawned per call) lands on the
// same totals as one call.
func TestGroupResume(t *testing.T) {
	const n = 3
	const look = 10 * Nanosecond
	run := func(splits ...Time) []int {
		g := NewGroup(n)
		g.NoteBoundary(look)
		counts := make([]int, n)
		var hop func(any)
		hop = func(arg any) {
			i := arg.(int)
			counts[i]++
			e := g.Engine(i)
			next := (i + 1) % n
			e.Inject(g.Engine(next), e.Now()+look, uint64(next+1)<<32|1, hop, next)
		}
		g.Engine(0).AtLinkCall(0, 1<<32, hop, 0)
		for _, s := range splits {
			g.RunUntil(s)
		}
		return counts
	}
	oneShot := run(1 * Microsecond)
	resumed := run(333*Nanosecond, 700*Nanosecond, 1*Microsecond)
	if !reflect.DeepEqual(oneShot, resumed) {
		t.Fatalf("split RunUntil diverged: %v vs %v", oneShot, resumed)
	}
}

// TestGroupInjectionOrdering: same-instant deliveries from different
// source shards must execute on the destination in delivery-key order,
// after any local event at that instant — the exact order the serial
// engine would have used, regardless of which source's queue drained
// first.
func TestGroupInjectionOrdering(t *testing.T) {
	g := NewGroup(3)
	g.NoteBoundary(10 * Nanosecond)
	const at = 100 * Nanosecond

	var order []string
	note := func(arg any) { order = append(order, arg.(string)) }

	// Shards 1 and 2 wake early and inject into shard 0 at the same
	// instant, with delivery keys in the opposite order of their wakeups.
	g.Engine(1).AtCall(5*Nanosecond, func(any) {
		g.Engine(1).Inject(g.Engine(0), at, 2<<32|7, note, "link2")
	}, nil)
	g.Engine(2).AtCall(6*Nanosecond, func(any) {
		g.Engine(2).Inject(g.Engine(0), at, 1<<32|7, note, "link1")
	}, nil)
	g.Engine(0).AtCall(at, note, "local")
	g.RunUntil(200 * Nanosecond)

	want := []string{"local", "link1", "link2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("same-instant execution order %v, want %v", order, want)
	}
}

// TestGroupNoBoundaryIndependent: with no registered boundaries the
// shards are fully independent and each runs straight to the horizon in
// one window.
func TestGroupNoBoundaryIndependent(t *testing.T) {
	g := NewGroup(2)
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		e := g.Engine(i)
		e.EveryCall(0, 3*Nanosecond, func(any) bool { counts[i]++; return true }, nil)
	}
	g.RunUntil(30 * Nanosecond)
	if counts[0] != 11 || counts[1] != 11 {
		t.Fatalf("independent shards ran %v ticks, want [11 11]", counts)
	}
}

// TestGroupBoundaryValidation: boundary lookahead must be positive, and
// the group lookahead is the minimum over boundaries.
func TestGroupBoundaryValidation(t *testing.T) {
	g := NewGroup(2)
	g.NoteBoundary(40 * Nanosecond)
	g.NoteBoundary(15 * Nanosecond)
	g.NoteBoundary(25 * Nanosecond)
	if g.Lookahead() != 15*Nanosecond {
		t.Fatalf("lookahead %v, want 15ns", g.Lookahead())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NoteBoundary(0) did not panic")
		}
	}()
	g.NoteBoundary(0)
}

// TestGroupCrossInjectToSelf: Inject with dst == src must behave exactly
// like AtLinkCall (no queue round-trip), preserving intra-shard ordering.
func TestGroupCrossInjectToSelf(t *testing.T) {
	g := NewGroup(2)
	e := g.Engine(0)
	var order []int
	e.AtCall(0, func(any) {
		e.Inject(e, 10*Nanosecond, 2<<32, func(any) { order = append(order, 2) }, nil)
		e.Inject(e, 10*Nanosecond, 1<<32, func(any) { order = append(order, 1) }, nil)
	}, nil)
	g.RunUntil(20 * Nanosecond)
	if !reflect.DeepEqual(order, []int{1, 2}) {
		t.Fatalf("self-inject order %v, want [1 2]", order)
	}
}
