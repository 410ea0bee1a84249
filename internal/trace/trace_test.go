package trace

import "testing"

func TestExactly48Tracepoints(t *testing.T) {
	// The paper implements "up to 48 different tracepoints" (§5.1).
	if NumPoints != 48 {
		t.Fatalf("NumPoints = %d, want 48", NumPoints)
	}
	seen := map[string]bool{}
	for p := Point(0); p < NumPoints; p++ {
		name := p.Name()
		if name == "" || seen[name] {
			t.Fatalf("tracepoint %d has empty/duplicate name %q", p, name)
		}
		seen[name] = true
	}
}

func TestDisabledHitsAreFree(t *testing.T) {
	var r Registry
	if cost := r.Hit(TPConnDrop); cost != 0 {
		t.Fatalf("disabled hit cost = %d", cost)
	}
	if r.Count(TPConnDrop) != 0 {
		t.Fatal("disabled hit counted")
	}
	// Nil registry must also be safe and free.
	var nilr *Registry
	if cost := nilr.Hit(TPConnDrop); cost != 0 {
		t.Fatalf("nil registry hit cost = %d", cost)
	}
}

func TestEnabledHitsCostAndCount(t *testing.T) {
	var r Registry
	r.EnableAll()
	if cost := r.Hit(TPConnOOO); cost != CyclesPerHit {
		t.Fatalf("cost = %d", cost)
	}
	r.Hit(TPConnOOO)
	if r.Count(TPConnOOO) != 2 {
		t.Fatalf("count = %d", r.Count(TPConnOOO))
	}
	if r.Count(TPConnDrop) != 0 {
		t.Fatal("a hit counted on another tracepoint")
	}
}

func TestEnableAllAndSnapshot(t *testing.T) {
	var r Registry
	r.EnableAll()
	for p := Point(0); p < NumPoints; p++ {
		if r.HitN(p, 0) != CyclesPerHit {
			t.Fatalf("%s not enabled", p.Name())
		}
	}
	r.Hit(TPProtoRX)
	r.HitN(TPQProto, 5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	for _, pc := range snap {
		if pc.Point == TPQProto && pc.Count != 5 {
			t.Fatalf("HitN count = %d", pc.Count)
		}
	}
}
