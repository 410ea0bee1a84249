package sim

import (
	"reflect"
	"testing"
)

// permute calls visit with every permutation of 0..n-1 (Heap's algorithm).
func permute(n int, visit func(perm []int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			visit(perm)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(n)
}

// TestOwnerOrder pins the same-instant rule: whatever order the scheduling
// calls come in, one instant executes its unowned events first (FIFO),
// then owned events by rank, then by sub-key, FIFO within one owner and
// sub-context, then deliveries by link.
func TestOwnerOrder(t *testing.T) {
	e := New()
	a, b, c := e.NewOwner(), e.NewOwner(), e.NewOwner()
	l1, l2 := uint64(e.NewLinkID())<<32, uint64(e.NewLinkID())<<32
	var got []string
	mark := func(a any) { got = append(got, a.(string)) }
	// What to schedule, in the order the rule runs it. The two u and the
	// two a calls share a key: each is named by its place in the call
	// order, which is the order they must run in.
	var txSeq uint64
	calls := []struct {
		key int // calls of one key run FIFO
		at  func(t Time, name string)
	}{
		{0, func(t Time, n string) { e.AtCall(t, mark, n) }},
		{0, func(t Time, n string) { e.AtCall(t, mark, n) }},
		{1, func(t Time, n string) { a.AtCall(t, mark, n) }},
		{1, func(t Time, n string) { a.Sub(0).AtCall(t, mark, n) }}, // Sub(0) is the owner itself
		{2, func(t Time, n string) { b.AtCall(t, mark, n) }},
		{3, func(t Time, n string) { b.Sub(1).AtCall(t, mark, n) }},
		{4, func(t Time, n string) { c.AtCall(t, mark, n) }},
		{5, func(t Time, n string) { txSeq++; e.AtLinkCall(t, l1|txSeq, mark, n) }},
		{6, func(t Time, n string) { txSeq++; e.AtLinkCall(t, l2|txSeq, mark, n) }},
	}
	names := [][2]string{{"u#1", "u#2"}, {"a#1", "a#2"}, {"b.0"}, {"b.1"}, {"c"}, {"l1"}, {"l2"}}
	want := []string{"u#1", "u#2", "a#1", "a#2", "b.0", "b.1", "c", "l1", "l2"}
	at, perms := Time(0), 0
	permute(len(calls), func(perm []int) {
		at += 3 * Nanosecond // one engine, a fresh instant per permutation
		got = got[:0]
		var nth [7]int
		for _, i := range perm {
			k := calls[i].key
			calls[i].at(at, names[k][nth[k]])
			nth[k]++
		}
		e.RunUntil(at)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call order %v ran %v, want %v", perm, got, want)
		}
		perms++
	})
	if perms != 362880 || e.Pending() != 0 {
		t.Fatalf("%d permutations, %d events pending", perms, e.Pending())
	}
}

// TestOwnerFIFOWithinKey: two events of one owner and sub-context at one
// instant run in call order, whatever else is scheduled between the calls.
func TestOwnerFIFOWithinKey(t *testing.T) {
	e := New()
	a, b := e.NewOwner(), e.NewOwner()
	var got []int
	mark := func(a any) { got = append(got, a.(int)) }
	b.AtCall(10, mark, 0)
	a.AtCall(10, mark, 1)
	e.AtCall(10, mark, 2)
	b.AtCall(10, mark, 3)
	a.AfterCall(10, mark, 4)
	b.Sub(2).AtCall(10, mark, 5)
	e.Run()
	if want := []int{2, 1, 4, 0, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
}

// TestOwnerImmediateFromLaterRank: an event an earlier-ranked owner
// schedules for the running instant orders before the callback that is
// running and before everything still queued for the instant. It must run
// next — placed behind the consumed head, not lost in front of it (the
// case TestWheelDirectedOrder covers for a delivery's local event).
func TestOwnerImmediateFromLaterRank(t *testing.T) {
	e := New()
	a, b, c := e.NewOwner(), e.NewOwner(), e.NewOwner()
	link := uint64(e.NewLinkID()) << 32
	var got []string
	mark := func(a any) { got = append(got, a.(string)) }
	const at = 7*tickSpan + 5
	b.AtCall(at, func(any) {
		mark("b")
		a.ImmediatelyCall(mark, "a from b")
		e.ImmediatelyCall(mark, "unowned from b")
		b.ImmediatelyCall(mark, "b from b")
	}, nil)
	c.AtCall(at, mark, "c")
	e.AtLinkCall(at, link|1, func(any) {
		mark("delivery 1")
		a.ImmediatelyCall(mark, "a from delivery")
	}, nil)
	e.AtLinkCall(at, link|2, mark, "delivery 2")
	e.Run()
	want := []string{"b", "unowned from b", "a from b", "b from b", "c",
		"delivery 1", "a from delivery", "delivery 2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %q\nwant %q", got, want)
	}
}

// TestOwnerEveryCallKeepsItsKey: a periodic event rearms under the owner
// that armed it.
func TestOwnerEveryCallKeepsItsKey(t *testing.T) {
	e := New()
	a, b := e.NewOwner(), e.NewOwner()
	var got []string
	tick := func(a any) bool { got = append(got, a.(string)); return e.Now() < 30 }
	b.EveryCall(10, 10, tick, "b")
	a.EveryCall(10, 10, tick, "a")
	e.EveryCall(10, 10, tick, "u")
	e.Run()
	want := []string{"u", "a", "b", "u", "a", "b", "u", "a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %q, want %q", got, want)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestOwnerKeyRange: owner keys fill the range below the first link key
// and never reach it; running out of ranks or asking for a sub-key beyond
// MaxSub panics where the component is built, not when it schedules.
func TestOwnerKeyRange(t *testing.T) {
	e := New()
	o := e.NewOwner()
	if o.key != 1<<subBits || o.Sub(MaxSub).key != 1<<subBits|MaxSub || o.Sub(3).Sub(0).key != o.key {
		t.Errorf("first owner key %#x, Sub(MaxSub) %#x", o.key, o.Sub(MaxSub).key)
	}
	mustPanic(t, "Sub(MaxSub+1)", func() { o.Sub(MaxSub + 1) })
	mustPanic(t, "Sub(-1)", func() { o.Sub(-1) })
	mustPanic(t, "AtLinkCall below the link range", func() { e.AtLinkCall(0, firstLinkKey-1, RunFunc, func() {}) })

	e.ranks = maxRank - 1
	last := e.NewOwner()
	if k := last.Sub(MaxSub).key; k != firstLinkKey-1 {
		t.Errorf("last owner's last sub-key %#x, want %#x", k, uint64(firstLinkKey-1))
	}
	mustPanic(t, "NewOwner past the last rank", func() { e.NewOwner() })
	mustPanic(t, "NewLinkID past the last rank", func() { e.NewLinkID() })

	// Owners and links draw from one allocator, in construction order.
	f := New()
	if a, l, b := f.NewOwner(), f.NewLinkID(), f.NewOwner(); a.key>>subBits != 1 || l != 2 || b.key>>subBits != 3 {
		t.Errorf("allocation order: owner %d, link %d, owner %d; want 1, 2, 3", a.key>>subBits, l, b.key>>subBits)
	}
}
