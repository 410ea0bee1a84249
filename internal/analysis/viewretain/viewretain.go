// Package viewretain enforces the zero-copy view aliasing contract
// (api.Socket docs, doc.go "Zero-copy socket views", PR 5): slices
// returned by Socket.Peek / Socket.Reserve (and shm.PayloadBuf.Slices)
// are windows into a payload ring, not copies. They are invalidated by
// the next Consume/Commit on the same socket and must never outlive the
// callback that obtained them. A wire view (shm.PayloadBuf.View) is a
// data segment's payload and lives exactly as long as its packet: it may
// flow only into packet.Packet.SetPayloadView.
//
// Three violation shapes are flagged, all intraprocedural:
//
//   - Retention: a view slice stored into a struct field, package-level
//     variable, map/slice element, or sent on a channel. The store is the
//     PR-5 hazard shape — the ring advances underneath the stored alias.
//     A wire view is also retained when it is returned or passed to any
//     call but SetPayloadView and the builtins.
//   - Escaping capture: a view slice captured by a func literal in a
//     retained position — a callback registration (On*), event scheduling
//     (At/After/Every/Submit/Acquire and their Call forms), a go or defer
//     statement, or a store of the literal itself. Synchronous literals
//     (sort comparators and the like) pass.
//   - Use after invalidation: a Peek view used after Consume, or a
//     Reserve view used after Commit, on the same receiver expression in
//     the same function. The check is flow-sensitive along linear order
//     with conservative branch union (see flexanalysis.WalkLinear);
//     re-assigning the variable from a fresh view call revalidates it.
//
// Helper indirection (a function that returns views, or one that commits
// internally) is outside the intraprocedural horizon; the runtime apitest
// aliasing suite remains the backstop for those. A correct-but-flagged
// site may carry //flexvet:viewretain <why>.
package viewretain

import (
	"go/ast"
	"go/types"

	"flextoe/internal/analysis/flexanalysis"
)

// Analyzer is the viewretain pass.
var Analyzer = &flexanalysis.Analyzer{
	Name: "viewretain",
	Doc: "forbid retaining Peek/Reserve/Slices/View ring views in fields, globals, " +
		"escaping closures, or past Consume/Commit, and any use of a View but SetPayloadView",
	Run: run,
}

type viewKind uint8

const (
	kindPeek viewKind = iota
	kindReserve
	kindSlices
	kindView // shm.PayloadBuf.View: a data segment's payload
)

func (k viewKind) String() string {
	switch k {
	case kindPeek:
		return "Peek"
	case kindReserve:
		return "Reserve"
	case kindView:
		return "View"
	default:
		return "Slices"
	}
}

// rule states, for a diagnostic, why a view of this kind must not go
// where it went.
func (k viewKind) rule() string {
	if k == kindView {
		return "a wire view may flow only into Packet.SetPayloadView"
	}
	return "ring views are invalidated by the next " + k.invalidatedBy() +
		" and must not outlive the callback that obtained them"
}

// invalidatedBy names the call that kills views of this kind.
func (k viewKind) invalidatedBy() string {
	if k == kindReserve {
		return "Commit"
	}
	return "Consume"
}

// viewVar records one local variable bound to a view slice.
type viewVar struct {
	kind viewKind
	recv string // receiver expression text, e.g. "s.sock"
	pos  ast.Node
}

// scope is one function body under analysis (FuncDecl or FuncLit).
type scope struct {
	body  *ast.BlockStmt
	views map[types.Object]*viewVar
}

func run(pass *flexanalysis.Pass) (any, error) {
	for _, f := range pass.Files {
		scopes := collectScopes(f)
		// Pass A: bind view variables per scope (flow-insensitive).
		owner := map[types.Object]*scope{}
		for _, sc := range scopes {
			bindViews(pass, sc)
			for obj := range sc.views {
				owner[obj] = sc
			}
		}
		for _, sc := range scopes {
			checkRetention(pass, sc)
			checkCaptures(pass, sc, owner)
			checkUseAfterInvalidate(pass, sc)
		}
	}
	return nil, nil
}

// collectScopes returns every function body in the file, outermost first.
// A FuncLit's statements belong to its own scope only: scope walks never
// descend into nested literals.
func collectScopes(f *ast.File) []*scope {
	var scopes []*scope
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				scopes = append(scopes, &scope{body: fn.Body, views: map[types.Object]*viewVar{}})
			}
		case *ast.FuncLit:
			scopes = append(scopes, &scope{body: fn.Body, views: map[types.Object]*viewVar{}})
		}
		return true
	})
	return scopes
}

// ownStmts inspects body without descending into nested func literals:
// those belong to inner scopes.
func ownStmts(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // inner scope
		}
		return visit(n)
	})
}

// viewCall recognizes a call producing ring views and returns the
// receiver expression and kind.
func viewCall(pass *flexanalysis.Pass, call *ast.CallExpr) (recv ast.Expr, kind viewKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, 0, false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil, 0, false
	}
	switch sel.Sel.Name {
	case "Peek", "Reserve":
		sig, isSig := pass.TypeOf(call.Fun).(*types.Signature)
		if !isSig || sig.Results().Len() != 2 ||
			!flexanalysis.IsByteSlice(sig.Results().At(0).Type()) ||
			!flexanalysis.IsByteSlice(sig.Results().At(1).Type()) {
			return nil, 0, false
		}
		k := kindPeek
		if sel.Sel.Name == "Reserve" {
			k = kindReserve
		}
		return sel.X, k, true
	case "Slices", "View":
		if flexanalysis.NamedIs(selection.Recv(), "flextoe/internal/shm", "PayloadBuf") {
			k := kindSlices
			if sel.Sel.Name == "View" {
				k = kindView
			}
			return sel.X, k, true
		}
	}
	return nil, 0, false
}

// bindViews records every local variable assigned from a view call.
func bindViews(pass *flexanalysis.Pass, sc *scope) {
	ownStmts(sc.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, kind, ok := viewCall(pass, call)
		if !ok {
			return true
		}
		recvStr := types.ExprString(recv)
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			// View's second result is its ok flag, not a view.
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && flexanalysis.IsByteSlice(obj.Type()) {
				sc.views[obj] = &viewVar{kind: kind, recv: recvStr, pos: id}
			}
		}
		return true
	})
}

// aliasIdents returns the identifiers that the value of e aliases: bare
// idents, re-slicings, parenthesizations, and composite literals holding
// them. Calls (len(a), copy results) do not alias.
func aliasIdents(e ast.Expr, out []*ast.Ident) []*ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		out = append(out, x)
	case *ast.SliceExpr:
		out = aliasIdents(x.X, out)
	case *ast.ParenExpr:
		out = aliasIdents(x.X, out)
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			out = aliasIdents(x.X, out)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = aliasIdents(elt, out)
		}
	}
	return out
}

// checkRetention flags stores of view values into locations that outlive
// the view: fields, package variables, map/slice elements, channels; and
// a wire view handed to anything but SetPayloadView.
func checkRetention(pass *flexanalysis.Pass, sc *scope) {
	report := func(id *ast.Ident, vv *viewVar, where string) {
		pass.Reportf(id.Pos(), "%s view %s stored into %s: %s", vv.kind, id.Name, where, vv.kind.rule())
	}
	wireViews := func(e ast.Expr, where string) {
		for _, id := range aliasIdents(e, nil) {
			if vv, ok := sc.views[pass.TypesInfo.ObjectOf(id)]; ok && vv.kind == kindView {
				pass.Reportf(id.Pos(), "%s view %s %s: %s", vv.kind, id.Name, where, vv.kind.rule())
			}
		}
	}
	classifyLHS := func(lhs ast.Expr) (string, bool) {
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			return "field " + types.ExprString(l), true
		case *ast.IndexExpr:
			return "element " + types.ExprString(l), true
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(l)
			if obj != nil && obj.Parent() == pass.Pkg.Scope() {
				return "package variable " + l.Name, true
			}
		}
		return "", false
	}
	ownStmts(sc.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				where, bad := classifyLHS(lhs)
				if !bad {
					continue
				}
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				} else if len(st.Rhs) == 1 {
					rhs = st.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				for _, id := range aliasIdents(rhs, nil) {
					obj := pass.TypesInfo.ObjectOf(id)
					if vv, ok := sc.views[obj]; ok {
						report(id, vv, where)
					}
				}
			}
		case *ast.SendStmt:
			for _, id := range aliasIdents(st.Value, nil) {
				obj := pass.TypesInfo.ObjectOf(id)
				if vv, ok := sc.views[obj]; ok {
					report(id, vv, "channel send")
				}
			}
		case *ast.CallExpr:
			if name := callName(st); !isBuiltin(pass, st) && !isSetPayloadView(pass, st) {
				for _, a := range st.Args {
					wireViews(a, "passed to "+name)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				wireViews(r, "returned")
			}
		}
		return true
	})
}

// isBuiltin reports a call of a predeclared function (len, copy, ...):
// none of them retains its arguments.
func isBuiltin(pass *flexanalysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}

// isSetPayloadView reports a call of packet.Packet.SetPayloadView, the one
// sink a wire view may flow into.
func isSetPayloadView(pass *flexanalysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "SetPayloadView" {
		return false
	}
	selection := pass.TypesInfo.Selections[sel]
	return selection != nil && selection.Kind() == types.MethodVal &&
		flexanalysis.NamedIs(selection.Recv(), "flextoe/internal/packet", "Packet")
}

// retainedLitPositions collects func literals in retained positions
// within the scope: callback registrations, event scheduling, go/defer,
// or stores of the literal itself.
func retainedLits(pass *flexanalysis.Pass, sc *scope) map[*ast.FuncLit]string {
	lits := map[*ast.FuncLit]string{}
	mark := func(e ast.Expr, why string) {
		if lit, ok := e.(*ast.FuncLit); ok {
			lits[lit] = why
		}
	}
	ownStmts(sc.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			mark(st.Call.Fun, "go statement")
			for _, a := range st.Call.Args {
				mark(a, "go statement")
			}
		case *ast.DeferStmt:
			mark(st.Call.Fun, "defer statement")
			for _, a := range st.Call.Args {
				mark(a, "defer statement")
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				mark(rhs, "stored closure")
			}
		case *ast.CallExpr:
			name := callName(st)
			if retainingCallName(name) {
				for _, a := range st.Args {
					mark(a, name+" registration")
				}
			}
		}
		return true
	})
	return lits
}

// callName extracts the called method/function name.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

// retainingCallName reports whether passing a closure to a call of this
// name retains it beyond the current callback: callback registration
// (On* prefix) and the engine's scheduling/submission family.
func retainingCallName(name string) bool {
	if len(name) > 2 && name[:2] == "On" {
		return true
	}
	switch name {
	case "At", "AtCall", "After", "AfterCall", "Every", "EveryCall",
		"Immediately", "ImmediatelyCall", "Submit", "SubmitCall", "SubmitStepCall",
		"Acquire", "AcquireCall":
		return true
	}
	return false
}

// checkCaptures flags view variables of an enclosing scope referenced
// inside a retained func literal.
func checkCaptures(pass *flexanalysis.Pass, sc *scope, owner map[types.Object]*scope) {
	for lit, why := range retainedLits(pass, sc) {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			ownerScope, tracked := owner[obj]
			if !tracked || ownerScope.body == lit.Body {
				return true
			}
			// The literal must be nested somewhere inside the owning
			// scope for this to be a capture of a live view.
			vv := ownerScope.views[obj]
			pass.Reportf(id.Pos(),
				"%s view %s captured by %s: ring views must not be retained across callbacks or deferred work",
				vv.kind, id.Name, why)
			return true
		})
	}
}

// invalidation recognizes recv.Consume(...) / recv.Commit(...) calls.
func invalidation(pass *flexanalysis.Pass, call *ast.CallExpr) (recvStr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name = sel.Sel.Name
	if name != "Consume" && name != "Commit" {
		return "", "", false
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	return types.ExprString(sel.X), name, true
}

// checkUseAfterInvalidate runs the flow-sensitive half: views used after
// the matching Consume/Commit on the same receiver in the same function.
func checkUseAfterInvalidate(pass *flexanalysis.Pass, sc *scope) {
	if len(sc.views) == 0 {
		return
	}
	// Work on a copy: rebinding may stop tracking a variable, and
	// sc.views is shared with the retention/capture checks.
	views := make(map[types.Object]*viewVar, len(sc.views))
	for k, v := range sc.views {
		views[k] = v
	}
	// poisoned maps view objects to the invalidating call description.
	poisoned := map[types.Object]string{}
	reported := map[types.Object]bool{}

	scanUses := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // capture rule owns literals
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || reported[obj] {
				return true
			}
			if why, dead := poisoned[obj]; dead {
				vv := views[obj]
				pass.Reportf(id.Pos(),
					"%s view %s used after %s invalidated it: re-obtain the view after advancing the ring",
					vv.kind, id.Name, why)
				reported[obj] = true
			}
			return true
		})
	}

	handleCall := func(call *ast.CallExpr) {
		if recvStr, name, ok := invalidation(pass, call); ok {
			for _, a := range call.Args {
				scanUses(a)
			}
			for obj, vv := range views {
				match := vv.recv == recvStr &&
					((vv.kind == kindPeek && name == "Consume") ||
						(vv.kind == kindReserve && name == "Commit"))
				if match {
					if _, already := poisoned[obj]; !already {
						poisoned[obj] = recvStr + "." + name
					}
				}
			}
			return
		}
		scanUses(call)
	}

	rebind := func(lhs []ast.Expr, fresh bool) {
		for _, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if _, tracked := views[obj]; tracked {
				delete(poisoned, obj)
				delete(reported, obj)
				if !fresh {
					// Rebound to a non-view value: stop tracking entirely.
					delete(views, obj)
				}
			}
		}
	}

	pre := func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok {
					handleCall(call)
				} else {
					scanUses(rhs)
				}
			}
			// A non-ident LHS (a[0] = x, s.f = x) reads its base and
			// index expressions; a plain ident LHS is a rebind.
			for _, lhs := range st.Lhs {
				if _, isIdent := lhs.(*ast.Ident); !isIdent {
					scanUses(lhs)
				}
			}
			freshView := false
			if len(st.Rhs) == 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					_, _, freshView = viewCall(pass, call)
				}
			}
			rebind(st.Lhs, freshView)
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				handleCall(call)
			} else {
				scanUses(st.X)
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				scanUses(r)
			}
		case *ast.IfStmt:
			scanUses(st.Cond)
		case *ast.ForStmt:
			scanUses(st.Cond)
		case *ast.RangeStmt:
			scanUses(st.X)
			rebind([]ast.Expr{st.Key, st.Value}, false)
		case *ast.SwitchStmt:
			scanUses(st.Tag)
		case *ast.SendStmt:
			scanUses(st.Chan)
			scanUses(st.Value)
		case *ast.IncDecStmt:
			scanUses(st.X)
		case *ast.DeferStmt:
			handleCall(st.Call)
		case *ast.GoStmt:
			handleCall(st.Call)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							scanUses(v)
						}
					}
				}
			}
		}
	}
	snap := func() any {
		cp := make(map[types.Object]string, len(poisoned))
		for k, v := range poisoned {
			cp[k] = v
		}
		return cp
	}
	restore := func(s any) {
		poisoned = s.(map[types.Object]string)
	}
	flexanalysis.WalkLinear(sc.body.List, pre, snap, restore)
}
