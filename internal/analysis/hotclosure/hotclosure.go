// Package hotclosure enforces the zero-allocation event discipline
// (doc.go "Pooling ownership") in simulation-critical packages: events and
// task completions carry a long-lived func(any) plus an argument, never a
// closure built per event.
//
// Every scheduler and processor exposes exactly one form — AtCall,
// AfterCall, ImmediatelyCall, EveryCall (sim.Engine and a component's
// sim.Owner), AcquireCall
// (sim.Resource), SubmitCall (host.Core, nfp.FPC), IssueCall
// (nfp.DMAEngine) — so the one way left to allocate per event is to hand
// such a method a func literal, as the callback or as its argument. That
// is the rule: a func literal passed to a method whose name ends in "Call"
// is flagged. Package-level functions, cached func fields and
// sim.RunFunc with a stored func() pass (they allocate once, not per
// event). A deliberate once-per-connection or teardown literal carries
// //flexvet:hotclosure <why>. Test files are not loaded, so tests may use
// literals freely.
package hotclosure

import (
	"go/ast"
	"go/types"
	"strings"

	"flextoe/internal/analysis/flexanalysis"
)

// Analyzer is the hotclosure pass.
var Analyzer = &flexanalysis.Analyzer{
	Name: "hotclosure",
	Doc: "flag func-literal arguments to *Call scheduling/submission methods " +
		"in simulation-critical packages",
	Run: run,
}

func run(pass *flexanalysis.Pass) (any, error) {
	if !flexanalysis.Critical(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *flexanalysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Call") {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return // package-qualified call or field, not a method
	}
	for _, arg := range call.Args {
		if _, ok := arg.(*ast.FuncLit); ok {
			pass.Reportf(call.Pos(),
				"func literal passed to %s.%s allocates a closure per event; pass a long-lived func(any) and an argument (//flexvet:hotclosure <why> for deliberate cold paths)",
				typeLabel(selection.Recv()), sel.Sel.Name)
			return
		}
	}
}

// typeLabel renders a receiver type compactly (base type name when named).
func typeLabel(t types.Type) string {
	if n := flexanalysis.NamedType(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}
