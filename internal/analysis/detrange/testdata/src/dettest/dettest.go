// Package dettest exercises the detrange pass. Its synthetic import path
// places it under flextoe/internal/sim, so it is simulation-critical.
package dettest

import (
	crand "crypto/rand"
	"math/rand"
	"time"

	"flextoe/internal/sim"
)

type conn struct {
	id   uint32
	cwnd int
}

// connScanReshuffle is the PR-1/PR-4 regression shape: iterating the
// connection table in map order to emit simulation events reshuffled
// RTO/cwnd ordering between identical-seed runs.
func connScanReshuffle(conns map[uint32]*conn, emit func(uint32)) {
	for id := range conns { // want `range over map conns: iteration order is nondeterministic`
		emit(id)
	}
}

// orderedScan is the fix: an establishment-order index drives the scan.
func orderedScan(order []uint32, conns map[uint32]*conn, emit func(uint32)) {
	for _, id := range order {
		if _, ok := conns[id]; ok {
			emit(id)
		}
	}
}

// countConns is an order-insensitive reduction: the justification comment
// suppresses the diagnostic.
func countConns(conns map[uint32]*conn) int {
	n := 0
	//flexvet:ordered pure count, no order-dependent side effects
	for range conns {
		n++
	}
	return n
}

// maxCwnd carries the marker on the statement line itself.
func maxCwnd(conns map[uint32]*conn) int {
	m := 0
	for _, c := range conns { //flexvet:ordered max reduction is commutative
		if c.cwnd > m {
			m = c.cwnd
		}
	}
	return m
}

func wallClock() time.Duration {
	start := time.Now() // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond)                // want `wall-clock time\.Sleep`
	return time.Since(start) // want `wall-clock time\.Since`
}

// durationMath uses time only for its unit types: legal.
func durationMath(d time.Duration) float64 { return d.Seconds() }

func globalRand() int {
	return rand.Intn(10) // want `global rand\.Intn draws from the shared unseeded source`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global rand\.Shuffle`
}

// seededRand is the sanctioned pattern: explicit seed, private generator.
func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func cryptoRand(p []byte) {
	crand.Read(p) // want `crypto/rand is nondeterministic`
}

// component is a modelled part: it takes an owner where it is built and
// schedules through it.
type component struct {
	eng *sim.Engine
	own sim.Owner
}

func newComponent(eng *sim.Engine) *component {
	return &component{eng: eng, own: eng.NewOwner()}
}

func fire(any)           {}
func fireAgain(any) bool { return false }

// unownedFromComponent is the shape the rule forbids: the component's
// events would order by who called the engine first.
func unownedFromComponent(c *component) {
	c.eng.AtCall(10, fire, c)            // want `Engine\.AtCall schedules an unowned event`
	c.eng.AfterCall(10, fire, c)         // want `Engine\.AfterCall schedules an unowned event`
	c.eng.ImmediatelyCall(fire, c)       // want `Engine\.ImmediatelyCall schedules an unowned event`
	c.eng.EveryCall(0, 10, fireAgain, c) // want `Engine\.EveryCall schedules an unowned event`
}

// owned calls carry the component's rank (and a sub-context's key): legal.
func owned(c *component) {
	c.own.AtCall(10, fire, c)
	c.own.AfterCall(10, fire, c)
	c.own.ImmediatelyCall(fire, c)
	c.own.EveryCall(0, 10, fireAgain, c)
	c.own.Sub(3).AfterCall(10, fire, c)
	// A delivery's key is its order: AtLinkCall on the engine is legal.
	c.eng.AtLinkCall(10, uint64(c.eng.NewLinkID())<<32|1, fire, c)
}

// generator stands outside the modelled machines and says so.
func generator(eng *sim.Engine) {
	//flexvet:unowned a traffic source is not a modelled component
	eng.AfterCall(10, fire, nil)
}
