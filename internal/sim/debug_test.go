//go:build flexdebug

package sim

import "testing"

// TestOwnedEventsScheduleThroughOwners: inside an owned event or a
// delivery, Engine.AfterCall panics (flexdebug), and Unowned's does
// not; inside an unowned event and outside any event the engine's own
// scheduler is legal.
func TestOwnedEventsScheduleThroughOwners(t *testing.T) {
	e := New()
	own := e.NewOwner()
	link := uint64(e.NewLinkID()) << 32
	nop := func(any) {}
	direct := func() { e.AfterCall(5, nop, nil) }
	viaUnowned := func() { Unowned(e, "the test schedules from its own callbacks").AfterCall(5, nop, nil) }
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	check := func(where string, want bool) {
		if got := panics(direct); got != want {
			t.Errorf("Engine.AfterCall %s: panicked %v, want %v", where, got, want)
		}
		if panics(viaUnowned) {
			t.Errorf("Unowned(...).AfterCall %s panicked", where)
		}
	}
	var ran int
	own.AtCall(10, func(any) { check("in an owned event", true); ran++ }, nil)
	own.Sub(3).AtCall(10, func(any) { check("in a sub-context's event", true); ran++ }, nil)
	e.AtLinkCall(10, link|1, func(any) { check("in a delivery", true); ran++ }, nil)
	e.AtCall(10, func(any) { check("in an unowned event", false); ran++ }, nil)
	e.Run()
	check("outside any event", false)
	if ran != 4 {
		t.Fatalf("%d of 4 events ran", ran)
	}
}
