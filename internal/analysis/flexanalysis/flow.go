package flexanalysis

import "go/ast"

// WalkLinear visits a statement list in source order, approximating
// execution order for flow-sensitive contract checks (view after
// invalidate). pre is called for every statement before its
// nested bodies are descended; it must examine only the statement's own
// expressions (conditions, operands), never nested statement lists — the
// walker owns those.
//
// Branch semantics are a deliberate conservative union: effects recorded
// inside an if/switch/select branch persist after it (the branch may have
// executed), EXCEPT when the branch body terminates (ends in return,
// break, continue, goto, or panic) — then state is rolled back to the
// snapshot taken at branch entry, because code after the construct is
// unreachable from that branch. Loop bodies are visited once with no
// rollback. snap captures the caller's flow state; restore reinstates a
// capture.
func WalkLinear(stmts []ast.Stmt, pre func(ast.Stmt), snap func() any, restore func(any)) {
	for _, s := range stmts {
		walkOne(s, pre, snap, restore)
	}
}

func walkOne(s ast.Stmt, pre func(ast.Stmt), snap func() any, restore func(any)) {
	if s == nil {
		return
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		WalkLinear(st.List, pre, snap, restore)
	case *ast.LabeledStmt:
		walkOne(st.Stmt, pre, snap, restore)
	case *ast.IfStmt:
		walkOne(st.Init, pre, snap, restore)
		pre(st)
		s0 := snap()
		WalkLinear(st.Body.List, pre, snap, restore)
		if terminates(st.Body.List) {
			restore(s0)
		}
		if st.Else != nil {
			s1 := snap()
			walkOne(st.Else, pre, snap, restore)
			if blk, ok := st.Else.(*ast.BlockStmt); ok && terminates(blk.List) {
				restore(s1)
			}
		}
	case *ast.ForStmt:
		walkOne(st.Init, pre, snap, restore)
		pre(st)
		WalkLinear(st.Body.List, pre, snap, restore)
		walkOne(st.Post, pre, snap, restore)
	case *ast.RangeStmt:
		pre(st)
		WalkLinear(st.Body.List, pre, snap, restore)
	case *ast.SwitchStmt:
		walkOne(st.Init, pre, snap, restore)
		pre(st)
		walkClauses(st.Body.List, pre, snap, restore)
	case *ast.TypeSwitchStmt:
		walkOne(st.Init, pre, snap, restore)
		walkOne(st.Assign, pre, snap, restore)
		pre(st)
		walkClauses(st.Body.List, pre, snap, restore)
	case *ast.SelectStmt:
		pre(st)
		walkClauses(st.Body.List, pre, snap, restore)
	default:
		pre(s)
	}
}

func walkClauses(clauses []ast.Stmt, pre func(ast.Stmt), snap func() any, restore func(any)) {
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
		case *ast.CommClause:
			walkOne(cc.Comm, pre, snap, restore)
			body = cc.Body
		default:
			continue
		}
		s0 := snap()
		WalkLinear(body, pre, snap, restore)
		if terminates(body) {
			restore(s0)
		}
	}
}

// terminates reports whether a statement list unconditionally leaves the
// enclosing linear flow: its last statement is a return, a branch
// (break/continue/goto/fallthrough), or a panic call.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}
