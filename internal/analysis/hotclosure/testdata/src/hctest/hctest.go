// Package hctest exercises the hotclosure pass against the real engine
// APIs. Its synthetic import path places it under flextoe/internal/core,
// so it is simulation-critical.
package hctest

import (
	"flextoe/internal/host"
	"flextoe/internal/nfp"
	"flextoe/internal/sim"
)

type pump struct {
	eng    *sim.Engine
	own    sim.Owner
	work   func(any)
	notify func() // application-owned callback, stored once
}

// literals allocate one closure per arming: every one is a hot-path
// regression, whether the literal is the callback or its argument.
func literals(p *pump, core *host.Core, res *sim.Resource, dma *nfp.DMAEngine) {
	p.eng.AtCall(10, func(any) {}, nil)                            // want `func literal passed to Engine\.AtCall allocates a closure per event`
	p.eng.AtCall(10, sim.RunFunc, func() {})                       // want `func literal passed to Engine\.AtCall`
	p.eng.EveryCall(0, 10, func(any) bool { return false }, nil)   // want `func literal passed to Engine\.EveryCall`
	core.SubmitCall(sim.TaskC(100), func(any) {}, nil)             // want `func literal passed to Core\.SubmitCall`
	core.SubmitStepCall(sim.Step{Compute: 100}, func(any) {}, nil) // want `func literal passed to Core\.SubmitStepCall`
	res.AcquireCall(1, 0, func(any) {}, nil)                       // want `func literal passed to Resource\.AcquireCall`
	dma.IssueCall(64, func(any) {}, nil)                           // want `func literal passed to DMAEngine\.IssueCall`
	p.own.AfterCall(10, func(any) {}, nil)                         // want `func literal passed to Owner\.AfterCall`
	p.own.Sub(1).AtCall(10, sim.RunFunc, func() {})                // want `func literal passed to Owner\.AtCall`
}

// longLived are the sanctioned zero-alloc shapes: a package-level
// function, a cached field, and sim.RunFunc firing a stored func().
func longLived(p *pump, core *host.Core) {
	p.eng.AtCall(10, tick, p)
	p.eng.AfterCall(10, p.work, nil)
	p.own.AfterCall(10, p.work, nil)
	p.own.ImmediatelyCall(tick, p)
	core.SubmitCall(sim.TaskC(100), p.work, nil)
	core.SubmitCall(sim.TaskC(100), sim.RunFunc, p.notify)
	core.SubmitStepCall(sim.Step{Compute: 100}, p.work, nil)
}

func tick(any) {}

// establish documents a deliberate once-per-connection literal.
func establish(p *pump, connected func(int), id int) {
	//flexvet:hotclosure connection establishment runs once per connection, not per event
	p.eng.ImmediatelyCall(func(any) { connected(id) }, nil)
}

// walker's method does not end in Call: a literal argument is fine.
type walker struct{}

func (walker) Walk(fn func()) { fn() }

func notAScheduler(w walker) {
	w.Walk(func() {})
}
