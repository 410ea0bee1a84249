// Package detrange enforces the determinism contract (doc.go
// "Determinism", ROADMAP "Contracts & invariants") in simulation-critical
// packages: one seed must produce bit-identical counters, traces, and
// engine event counts on rerun.
//
// Four things break that and are flagged here:
//
//   - `for range` over a map: Go randomizes map iteration order per run,
//     so any map scan whose side effects depend on order (emitting events,
//     mutating counters, building slices) reshuffles between identical
//     runs — exactly the bug PR 4 fixed by converting the connection
//     tables to establishment-order scans. A map range that is provably
//     order-insensitive (pure reduction: count, sum, max) may carry a
//     `//flexvet:ordered <why>` comment on the statement (or the line
//     above) to suppress the diagnostic.
//   - Wall-clock time: time.Now and friends leak host scheduling into
//     simulated state. Simulated code must use sim.Engine.Now.
//   - Global or unseeded randomness: math/rand's package-level functions
//     draw from the global source (shared, unseeded, and in Go 1.20+
//     randomly seeded at startup); crypto/rand is nondeterministic by
//     construction. Simulated code must thread an explicitly seeded
//     *rand.Rand (rand.New(rand.NewSource(seed))), which remains allowed.
//   - Unowned scheduling: what runs first at an instant is declared by
//     the scheduling component's sim.Owner (rank, then sub-key), never by
//     who happened to call a scheduler first. AtCall, AfterCall,
//     ImmediatelyCall or EveryCall called on a *sim.Engine directly
//     schedules an unowned event — first at its instant, FIFO among its
//     like — which is right for an application, a workload generator or
//     an experiment's traffic source and wrong for a modelled component.
//     The call is flagged wherever simulations are built or run (the
//     critical packages plus apps, experiments and testbed) unless it
//     carries `//flexvet:unowned <why>`; the same methods on a sim.Owner
//     pass.
package detrange

import (
	"go/ast"
	"go/types"

	"flextoe/internal/analysis/flexanalysis"
)

// Analyzer is the detrange pass.
var Analyzer = &flexanalysis.Analyzer{
	Name: "detrange",
	Doc: "forbid map-order iteration, wall-clock time, global randomness and " +
		"unowned event scheduling in simulation-critical packages (suppress " +
		"order-insensitive map scans with //flexvet:ordered <why>, schedulers " +
		"that are not modelled components with //flexvet:unowned <why>)",
	Run: run,
}

// wallClock lists package time functions that read or wait on the host
// clock. Types (time.Duration) and pure constructors stay legal.
var wallClock = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// randAllowed lists math/rand names that do NOT touch the global source:
// constructors for explicitly seeded generators.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// unownedSchedulers are the *sim.Engine methods that schedule an unowned
// event. AtLinkCall is not among them: a delivery key is an order.
var unownedSchedulers = map[string]bool{
	"AtCall":          true,
	"AfterCall":       true,
	"ImmediatelyCall": true,
	"EveryCall":       true,
}

func run(pass *flexanalysis.Pass) (any, error) {
	if !flexanalysis.EngineResident(pass.Pkg.Path()) {
		return nil, nil
	}
	critical := flexanalysis.Critical(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkUnowned(pass, call)
			}
			if !critical {
				return true
			}
			switch node := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypeOf(node.X)
				if t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(node.For,
							"range over map %s: iteration order is nondeterministic in a simulation-critical package (scan an ordered index, or annotate //flexvet:ordered <why> if order-insensitive)",
							types.ExprString(node.X))
					}
				}
			case *ast.Ident:
				// Selector uses (time.Now) and dot-import uses both
				// resolve through Uses on the identifier itself.
				checkUse(pass, node)
			}
			return true
		})
	}
	return nil, nil
}

// checkUnowned flags a scheduling method called on a *sim.Engine.
func checkUnowned(pass *flexanalysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !unownedSchedulers[sel.Sel.Name] {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal ||
		!flexanalysis.NamedIs(selection.Recv(), "flextoe/internal/sim", "Engine") {
		return
	}
	pass.Reportf(call.Pos(),
		"Engine.%s schedules an unowned event, ordered first at its instant: a modelled component schedules through its sim.Owner (annotate //flexvet:unowned <why> for an application, generator or traffic source)",
		sel.Sel.Name)
}

func checkUse(pass *flexanalysis.Pass, id *ast.Ident) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only package-level functions are of interest: methods on a
	// seeded *rand.Rand (r.Intn) or on time values (t.After) are fine.
	pkgFunc := func() bool {
		fn, ok := obj.(*types.Func)
		return ok && fn.Signature().Recv() == nil
	}
	switch obj.Pkg().Path() {
	case "time":
		if pkgFunc() && wallClock[obj.Name()] {
			pass.Reportf(id.Pos(),
				"wall-clock time.%s in a simulation-critical package: simulated code must use sim.Engine.Now so runs are seed-deterministic", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if pkgFunc() && !randAllowed[obj.Name()] {
			pass.Reportf(id.Pos(),
				"global rand.%s draws from the shared unseeded source: thread an explicitly seeded *rand.Rand instead", obj.Name())
		}
	case "crypto/rand":
		pass.Reportf(id.Pos(),
			"crypto/rand is nondeterministic by construction: simulation-critical code must use a seeded math/rand generator")
	}
}
