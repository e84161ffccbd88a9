package lint

import (
	"go/ast"
	"go/types"
)

// SpanFinish is the tracing analogue of iterclose, enforcing the PR-8
// span lifecycle: every span or trace created in a function —
// obs.StartSpan, (*Span).StartChild, (*Trace).StartSpan and
// (*Tracer).Start — must reach its End/Finish on every path, including
// early error returns, or be handed off to another owner (passed to a
// call, returned, stored, captured). A span that is never ended keeps
// a zero Duration and is silently dropped from duration histograms and
// the slow-span accounting; a trace that is never finished is never
// sampled and never reaches the TraceStore, which is how a shed or
// crashed request disappears from /traces exactly when it matters.
//
// Two extra release channels reflect the runtime:
//
//   - provenance: a span obtained from tr.StartSpan is also released by
//     tr.Finish(...) or obs.EndQuery(tr, ...) on the same trace
//     expression — Trace.Finish, which EndQuery calls, ends the root
//     span it handed out.
//   - reassignment of the tracked variable is neutral, so the
//     nil-guarded fallback `if root == nil { root = obs.StartSpan(..) }`
//     keeps one obligation, discharged by the shared End.
//
// (*Span).Record is not a creation: it returns an already-ended child.
var SpanFinish = &Analyzer{
	Name: "spanfinish",
	Doc:  "every created span/trace must reach End/Finish (or escape to a new owner) on all paths, including error returns",
	Run:  runSpanFinish,
}

// spanObligation is one tracked creation site.
type spanObligation struct {
	node ast.Node     // the creating assignment (a CFG node)
	obj  types.Object // the variable holding the span/trace
	// provKey is the receiver spelling for provenance release
	// ("tr" when created via tr.StartSpan), or "".
	provKey string
}

func runSpanFinish(p *Pass) error {
	if p.Pkg.Path() == obsPkg {
		return nil // the implementation manages its own lifecycles
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
			for _, b := range funcBodies(fd.Body) {
				checkSpanBody(p, b, NewCFG(b))
			}
			checkDroppedSpans(p, fd.Body)
		}
	}
	return nil
}

// spanCreation matches a span/trace-creating call and returns what it
// creates plus the provenance receiver key (for Trace.StartSpan).
func spanCreation(p *Pass, call *ast.CallExpr) (kind string, provKey string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	// Package function: obs.StartSpan.
	if pkg, fn := stdFuncCall(p, sel); pkg == obsPkg && fn == "StartSpan" {
		return "span", "", true
	}
	recv := p.TypeOf(sel.X)
	switch sel.Sel.Name {
	case "StartSpan":
		if isNamedType(recv, obsPkg, "Trace") {
			return "span", exprString(sel.X), true
		}
	case "StartChild":
		if isNamedType(recv, obsPkg, "Span") {
			return "span", "", true
		}
	case "Start":
		if isNamedType(recv, obsPkg, "Tracer") {
			return "trace", "", true
		}
	}
	return "", "", false
}

// checkSpanBody runs the path-sensitive lifecycle check over one
// function body's CFG.
func checkSpanBody(p *Pass, body *ast.BlockStmt, cfg *CFG) {
	var obligations []spanObligation
	for _, bl := range cfg.Blocks {
		for _, n := range bl.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				continue
			}
			_, provKey, ok := spanCreation(p, call)
			if !ok {
				continue
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := p.TypesInfo.Defs[id]
			if obj == nil {
				obj = p.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			obligations = append(obligations, spanObligation{node: n, obj: obj, provKey: provKey})
		}
	}
	for _, ob := range obligations {
		if cfg.PathWithout(ob.node, nil, spanReleased(p, ob)) {
			p.Reportf(ob.node.Pos(), "span/trace is not ended on every path (missing %s.End/Finish on some return, or hand it off)", ob.obj.Name())
		}
	}
}

// spanReleased builds the release predicate for one obligation: the
// node ends the span (End/Finish on the variable, directly or behind a
// defer), finishes the provenance trace, or lets the variable escape
// to a new owner (call argument, return value, composite literal,
// channel send, aliasing assignment, closure capture).
func spanReleased(p *Pass, ob spanObligation) func(ast.Node) bool {
	usesObj := func(e ast.Node) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.TypesInfo.Uses[id] == ob.obj {
				found = true
			}
			return !found
		})
		return found
	}
	return func(node ast.Node) bool {
		released := false
		ast.Inspect(node, func(n ast.Node) bool {
			if released {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && p.TypesInfo.Uses[id] == ob.obj {
						switch sel.Sel.Name {
						case "End", "Finish":
							released = true
							return false
						}
						// Other method calls on the variable itself are
						// neutral, but their arguments can still escape it.
						for _, a := range n.Args {
							if usesObj(a) {
								released = true
							}
						}
						return false
					}
				}
				if ob.provKey != "" && finishedTrace(p, n) == ob.provKey {
					released = true
					return false
				}
				for _, a := range n.Args {
					if usesObj(a) {
						released = true // handed off
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if usesObj(r) {
						released = true
					}
				}
			case *ast.CompositeLit:
				if usesObj(n) {
					released = true
				}
				return false
			case *ast.SendStmt:
				if usesObj(n.Value) {
					released = true
				}
			case *ast.AssignStmt:
				// Only non-call RHS alias the object; a method call on
				// it (root := tr.StartSpan(..)) derives a new value and
				// is handled by the CallExpr case.
				for _, r := range n.Rhs {
					if _, isCall := r.(*ast.CallExpr); !isCall && usesObj(r) {
						released = true // aliased or stored
					}
				}
			case *ast.FuncLit:
				if usesObj(n) {
					released = true // captured; the closure owns it now
				}
				return false
			}
			return !released
		})
		return released
	}
}

// finishedTrace returns the spelling of the trace call finishes —
// tr.Finish(...) or obs.EndQuery(tr, ...) — or "" when it finishes
// none.
func finishedTrace(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, fn := stdFuncCall(p, sel); pkg == obsPkg && fn == "EndQuery" && len(call.Args) > 0 {
		return exprString(call.Args[0])
	}
	if sel.Sel.Name == "Finish" && isNamedType(p.TypeOf(sel.X), obsPkg, "Trace") {
		return exprString(sel.X)
	}
	return ""
}

// checkDroppedSpans flags creations whose result is discarded: a bare
// `x.StartChild(...)` statement creates a child that nothing can ever
// end. A dropped `tr.StartSpan(...)` is tolerated when the same
// function finishes tr — Trace.Finish (or obs.EndQuery) ends the root
// span it handed out — and flagged otherwise.
func checkDroppedSpans(p *Pass, body *ast.BlockStmt) {
	finished := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key := finishedTrace(p, call); key != "" {
				finished[key] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, provKey, ok := spanCreation(p, call)
		if !ok {
			return true
		}
		if provKey != "" && finished[provKey] {
			return true // root span; Finish on the trace ends it
		}
		p.Reportf(es.Pos(), "result of %s creation is discarded; the span can never be ended", kind)
		return true
	})
}
