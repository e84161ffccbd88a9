package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// relPkg is the columnar execution package from PR 7.
const relPkg = "semjoin/internal/rel"

// BatchSel enforces the batch contracts of internal/rel:
//
//  1. selection-vector blindness: inside a loop bounded by b.Rows(),
//     the live-row counter maps physical data only through b.RowIdx(i)
//     or b.TupleAt(i). Calling Vector.ValueAt/IsNull with the counter
//     directly reads the wrong rows the moment the batch carries a
//     selection vector — filters refine sel in place, so the bug is
//     invisible until a filter sits upstream. Loops dominated by a
//     `b.Sel() == nil` (or `b.sel == nil`) guard are exempt: dense
//     fast paths are the designed use of that guard.
//  2. no mutation after handoff: once a batch has been sent
//     downstream on a channel, AppendTuple/Refine on it races with the
//     consumer. Reassigning the variable to a fresh batch (the
//     producer-loop idiom) resets the obligation.
var BatchSel = &Analyzer{
	Name: "batchsel",
	Doc:  "batch kernels must honor the selection vector and never mutate a handed-off batch",
	Run:  runBatchSel,
}

func runBatchSel(p *Pass) error {
	if p.Pkg.Path() != relPkg && !strings.HasSuffix(p.Pkg.Path(), "/testdata/src/batchsel") {
		return nil
	}
	for _, f := range p.Files {
		if p.SkipFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSelBlindLoops(p, fd.Body)
			for _, b := range funcBodies(fd.Body) {
				checkMutateAfterSend(p, b, NewCFG(b))
			}
		}
	}
	return nil
}

// rowsBound matches the bound of `for i := 0; i < <bound>; i++` when
// it is b.Rows() (directly, or an ident assigned from b.Rows() inside
// body), returning the batch key ("b").
func rowsBound(p *Pass, body *ast.BlockStmt, bound ast.Expr) (string, bool) {
	if key, ok := rowsCallKey(p, bound); ok {
		return key, true
	}
	id, ok := bound.(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := p.TypesInfo.Uses[id]
	if obj == nil {
		return "", false
	}
	key, found := "", false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return !found
		}
		for i, l := range as.Lhs {
			lid, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			lobj := p.TypesInfo.Defs[lid]
			if lobj == nil {
				lobj = p.TypesInfo.Uses[lid]
			}
			if lobj != obj {
				continue
			}
			if k, ok := rowsCallKey(p, as.Rhs[i]); ok {
				key, found = k, true
			}
		}
		return !found
	})
	return key, found
}

// rowsCallKey matches `<batch>.Rows()` and returns exprString(batch).
func rowsCallKey(p *Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Rows" {
		return "", false
	}
	if !isNamedType(p.TypeOf(sel.X), relPkg, "Batch") {
		return "", false
	}
	return exprString(sel.X), true
}

// denseGuards returns the source ranges within which batch key is
// proven dense: the body of `if key.Sel() == nil` / `if key.sel == nil`
// and the else of the negated form.
func denseGuards(p *Pass, body *ast.BlockStmt, key string) [][2]token.Pos {
	var regions [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		op, ok := selNilCheck(ifs.Cond, key)
		if !ok {
			return true
		}
		if op == token.EQL {
			regions = append(regions, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		} else if ifs.Else != nil {
			regions = append(regions, [2]token.Pos{ifs.Else.Pos(), ifs.Else.End()})
		}
		return true
	})
	return regions
}

// selNilCheck matches `key.Sel() == nil`, `key.sel == nil` and their
// != forms, returning the operator.
func selNilCheck(cond ast.Expr, key string) (token.Token, bool) {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return 0, false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	isSel := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CallExpr:
			sel, ok := e.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Sel" && exprString(sel.X) == key
		case *ast.SelectorExpr:
			return e.Sel.Name == "sel" && exprString(e.X) == key
		}
		return false
	}
	if (isSel(b.X) && isNil(b.Y)) || (isSel(b.Y) && isNil(b.X)) {
		return b.Op, true
	}
	return 0, false
}

// checkSelBlindLoops implements rule 1 on one function body.
func checkSelBlindLoops(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond == nil {
			return true
		}
		cond, ok := loop.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
			return true
		}
		iv, ok := cond.X.(*ast.Ident)
		if !ok {
			return true
		}
		ivObj := p.TypesInfo.Uses[iv]
		if ivObj == nil {
			return true
		}
		key, ok := rowsBound(p, body, cond.Y)
		if !ok {
			return true
		}
		for _, g := range denseGuards(p, body, key) {
			if loop.Pos() >= g[0] && loop.End() <= g[1] {
				return true // dense fast path under a Sel()==nil guard
			}
		}
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "ValueAt", "IsNull":
			default:
				return true
			}
			if !isNamedType(p.TypeOf(sel.X), relPkg, "Vector") {
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && p.TypesInfo.Uses[arg] == ivObj {
				p.Reportf(call.Pos(), "vector indexed by the live-row counter %s without %s.RowIdx (selection vector ignored)", iv.Name, key)
			}
			return true
		})
		return true
	})
}

// checkMutateAfterSend implements rule 2 over one body's CFG.
func checkMutateAfterSend(p *Pass, body *ast.BlockStmt, cfg *CFG) {
	type mutation struct {
		node ast.Node
		pos  token.Pos
		name string
	}
	batchObj := func(e ast.Expr) *ast.Ident {
		id, ok := e.(*ast.Ident)
		if !ok || !isNamedType(p.TypeOf(id), relPkg, "Batch") {
			return nil
		}
		return id
	}
	for _, bl := range cfg.Blocks {
		for _, n := range bl.Nodes {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				continue
			}
			id := batchObj(send.Value)
			if id == nil {
				continue
			}
			obj := p.TypesInfo.Uses[id]
			if obj == nil {
				continue
			}
			// Collect this body's mutations of the same variable.
			var muts []mutation
			for _, bl2 := range cfg.Blocks {
				for _, m := range bl2.Nodes {
					node := m
					ast.Inspect(node, func(q ast.Node) bool {
						if _, ok := q.(*ast.FuncLit); ok {
							return false
						}
						call, ok := q.(*ast.CallExpr)
						if !ok {
							return true
						}
						sel, ok := call.Fun.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						if sel.Sel.Name != "AppendTuple" && sel.Sel.Name != "Refine" {
							return true
						}
						if rid, ok := sel.X.(*ast.Ident); ok && p.TypesInfo.Uses[rid] == obj {
							muts = append(muts, mutation{node: node, pos: call.Pos(), name: sel.Sel.Name})
						}
						return true
					})
				}
			}
			// Reassigning the variable (fresh batch) ends the handoff.
			reassigned := func(q ast.Node) bool {
				as, ok := q.(*ast.AssignStmt)
				if !ok {
					return false
				}
				for _, l := range as.Lhs {
					if lid, ok := l.(*ast.Ident); ok {
						lobj := p.TypesInfo.Defs[lid]
						if lobj == nil {
							lobj = p.TypesInfo.Uses[lid]
						}
						if lobj == obj {
							return true
						}
					}
				}
				return false
			}
			for _, mu := range muts {
				target := mu.node
				if cfg.PathWithout(n, func(q ast.Node) bool { return q == target }, reassigned) {
					p.Reportf(mu.pos, "%s on a batch already sent downstream (mutation after handoff races with the consumer)", mu.name)
				}
			}
		}
	}
}
