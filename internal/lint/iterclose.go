package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IterClose enforces the Volcano iterator discipline from PR 1: an
// iterator that is opened must reach Close on every path, including
// the error return from Open itself (the Materialize pattern
//
//	if err := it.Open(ctx); err != nil {
//		it.Close()
//		return nil, err
//	}
//
// ). Two rules:
//
//  1. A local variable with an iterator-shaped method set (Open,
//     NextBatch, Close) that has Open called on it, never has Close
//     called on it anywhere in the function, and does not escape
//     (returned, passed to a call, stored, sent) is a leak.
//  2. An `if err := x.Open(...); err != nil` (or `err = x.Open(...)`
//     followed by `if err != nil`) whose body returns without closing
//     x — and with no earlier `defer x.Close()` — leaks everything the
//     iterator tree opened before the failure.
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "every opened iterator must reach Close on all paths, including Open's own error return",
	Run:  runIterClose,
}

// isIteratorType reports whether t's method set (or its pointer's)
// contains Open, NextBatch and Close — the shape of rel.Iterator and
// every concrete operator.
func isIteratorType(t types.Type) bool {
	if t == nil {
		return false
	}
	has := func(ms *types.MethodSet) bool {
		var open, next, closed bool
		for i := 0; i < ms.Len(); i++ {
			switch ms.At(i).Obj().Name() {
			case "Open":
				open = true
			case "NextBatch":
				next = true
			case "Close":
				closed = true
			}
		}
		return open && next && closed
	}
	if has(types.NewMethodSet(t)) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return has(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}

func runIterClose(p *Pass) error {
	for _, f := range p.Files {
		if p.SkipFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkIterLeaks(p, fd.Body)
			// One CFG per function body, literals included — the
			// enclosing graph treats closures as opaque.
			for _, b := range funcBodies(fd.Body) {
				checkOpenErrorPaths(p, b, NewCFG(b))
			}
		}
	}
	return nil
}

// iterVar tracks one iterator-typed local through the function body.
type iterVar struct {
	openPos ast.Node
	closed  bool
	escaped bool
}

// checkIterLeaks implements rule 1 on one function body.
func checkIterLeaks(p *Pass, body *ast.BlockStmt) {
	vars := map[types.Object]*iterVar{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := p.TypesInfo.Defs[id]
		if !ok || obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && isIteratorType(v.Type()) {
			vars[obj] = &iterVar{}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}
	objOf := func(e ast.Expr) types.Object {
		if id, ok := e.(*ast.Ident); ok {
			return p.TypesInfo.Uses[id]
		}
		return nil
	}
	// markEscapes flags every tracked variable used inside e.
	markEscapes := func(e ast.Node) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := vars[p.TypesInfo.Uses[id]]; v != nil {
					v.escaped = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if v := vars[objOf(sel.X)]; v != nil {
					switch sel.Sel.Name {
					case "Open":
						if v.openPos == nil {
							v.openPos = n
						}
					case "Close":
						v.closed = true
					}
					// Other method calls on the iterator itself
					// (Next, Schema, Stats) are not escapes.
					if len(n.Args) > 0 {
						for _, a := range n.Args {
							markEscapes(a)
						}
					}
					return false
				}
			}
			for _, a := range n.Args {
				markEscapes(a)
			}
			return true
		case *ast.ReturnStmt:
			markEscapes(n)
			return false
		case *ast.AssignStmt:
			// Aliasing: the iterator appearing on the right of a
			// later assignment may keep living under another name.
			for _, r := range n.Rhs {
				if _, isCall := r.(*ast.CallExpr); !isCall {
					markEscapes(r)
				}
			}
			return true
		case *ast.CompositeLit:
			markEscapes(n)
			return false
		case *ast.SendStmt:
			markEscapes(n.Value)
			return true
		}
		return true
	})
	for _, v := range vars {
		if v.openPos != nil && !v.closed && !v.escaped {
			p.Reportf(v.openPos.Pos(), "iterator is opened but never closed in this function")
		}
	}
}

// checkOpenErrorPaths implements rule 2 on one function body, path-
// sensitively over the CFG: from the top of the error body, does some
// execution path reach the function exit without closing (or handing
// off) the receiver? The pre-CFG version accepted a Close anywhere in
// the error body's subtree, so `if cond { it.Close() }; return err`
// passed even though the other branch leaked.
func checkOpenErrorPaths(p *Pass, body *ast.BlockStmt, cfg *CFG) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, stmt := range list {
			ifs, ok := stmt.(*ast.IfStmt)
			if !ok {
				continue
			}
			var recv ast.Expr
			var errObj types.Object
			if init, ok := ifs.Init.(*ast.AssignStmt); ok {
				recv, errObj = openAssign(p, init)
			} else if ifs.Init == nil && i > 0 {
				if prev, ok := list[i-1].(*ast.AssignStmt); ok {
					recv, errObj = openAssign(p, prev)
				}
			}
			if recv == nil || !condIsErrNotNil(p, ifs.Cond, errObj) {
				continue
			}
			if !bodyReturns(ifs.Body) {
				continue
			}
			if len(ifs.Body.List) == 0 {
				continue
			}
			key := exprString(recv)
			// A defer anywhere before the if covers its error path.
			if deferredCloseBefore(p, body, key, ifs.Pos()) {
				continue
			}
			if cfg.PathFromStmtWithout(ifs.Body.List[0], nil, releasesIter(p, key)) {
				p.Reportf(ifs.Pos(), "error path after %s.Open returns without closing the iterator", key)
			}
		}
		return true
	})
}

// releasesIter builds the rule-2 release predicate for one receiver
// key: a CFG node releases the obligation when it closes the iterator
// (directly or via defer) or hands it off — passes it to a call or
// returns it, making some other owner responsible for the Close.
func releasesIter(p *Pass, key string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		released := false
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" && exprString(sel.X) == key {
					released = true
				}
				for _, a := range m.Args {
					if exprString(a) == key {
						released = true
					}
				}
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if exprString(r) == key {
						released = true
					}
				}
			}
			return !released
		})
		return released
	}
}

// openAssign matches `err := x.Open(...)` / `err = x.Open(...)` on an
// iterator-typed receiver, returning the receiver and the error object.
func openAssign(p *Pass, as *ast.AssignStmt) (ast.Expr, types.Object) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Open" {
		return nil, nil
	}
	if !isIteratorType(p.TypeOf(sel.X)) {
		return nil, nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, nil
	}
	obj := p.TypesInfo.Defs[id]
	if obj == nil {
		obj = p.TypesInfo.Uses[id]
	}
	return sel.X, obj
}

// condIsErrNotNil matches `err != nil` against the given err object.
func condIsErrNotNil(p *Pass, cond ast.Expr, errObj types.Object) bool {
	if errObj == nil {
		return false
	}
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || b.Op.String() != "!=" {
		return false
	}
	for _, pair := range [][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		if id, ok := pair[0].(*ast.Ident); ok && p.TypesInfo.Uses[id] == errObj {
			if nilID, ok := pair[1].(*ast.Ident); ok && nilID.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// bodyReturns reports whether the block contains a return statement
// (at any depth outside nested function literals).
func bodyReturns(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}

// deferredCloseBefore reports whether a `defer <key>.Close()` occurs
// before pos in the function body.
func deferredCloseBefore(p *Pass, body *ast.BlockStmt, key string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		if d.Pos() >= pos {
			return false
		}
		if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" && exprString(sel.X) == key {
			found = true
		}
		return !found
	})
	return found
}
