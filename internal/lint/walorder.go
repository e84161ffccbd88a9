package lint

import (
	"go/ast"
	"strings"
)

// walPkg is the write-ahead log implementation package from PR 9.
const walPkg = "semjoin/internal/wal"

// walOrderScope lists the packages holding the log-then-apply
// discipline: core owns DurableStore, server acks client updates.
var walOrderScope = map[string]bool{
	"semjoin/internal/core":   true,
	"semjoin/internal/server": true,
}

// walApplyName is the one state-mutating entry point of the update
// streams: DurableStore.apply, which live updates and replay share. A
// call to it from inside a logging function is the "apply" half of the
// write path.
const walApplyName = "apply"

// WalOrder enforces the PR-9 write-ahead discipline inside
// internal/core and internal/server: in any function that appends to a
// *wal.Log, the in-memory apply must come strictly after the
// Append — the record must be on disk (fsynced per the log's
// SyncPolicy, which Append handles internally) before the state it
// describes exists in memory. Apply-before-log means a crash between
// the two leaves an applied update with no record: recovery silently
// loses it, and the WALInfo/LastSeq accounting the server reports is a
// lie. Functions that never Append (replay, recovery, read paths) are
// out of scope — replay intentionally applies without logging.
var WalOrder = &Analyzer{
	Name: "walorder",
	Doc:  "state-mutating applies must follow the WAL Append on every path (log-then-apply), never precede it",
	Run:  runWalOrder,
}

func runWalOrder(p *Pass) error {
	if !walOrderScope[p.Pkg.Path()] && !strings.HasSuffix(p.Pkg.Path(), "/testdata/src/walorder") {
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
			for _, b := range funcBodies(fd.Body) {
				checkWalOrderBody(p, b)
			}
		}
	}
	return nil
}

// isWalAppend matches `<log>.Append(...)` / `<log>.Sync()` on a
// *wal.Log receiver — the durability point of the write path.
func isWalAppend(p *Pass, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Append" && sel.Sel.Name != "Sync" {
		return false
	}
	return isNamedType(p.TypeOf(sel.X), walPkg, "Log")
}

// isWalApply matches a call to the update-stream entry point.
func isWalApply(n ast.Node) (*ast.CallExpr, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return call, ok && sel.Sel.Name == walApplyName
}

// checkWalOrderBody flags every apply call that some execution path
// reaches from the function entry without first passing a WAL Append —
// i.e. the in-memory mutation can happen while nothing is on disk yet.
// Phrasing the query from the entry (rather than "an Append is
// reachable after the apply") keeps the canonical per-record loop
//
//	for _, b := range batches {
//		log.Append(b); apply(b)
//	}
//
// clean: the back-edge makes the next Append reachable from the
// previous apply, but every path from the entry to an apply has
// already logged.
func checkWalOrderBody(p *Pass, body *ast.BlockStmt) {
	if len(body.List) == 0 {
		return
	}
	cfg := NewCFG(body)

	containsAppend := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if isWalAppend(p, m) {
				found = true
			}
			return !found
		})
		return found
	}

	// The check only triggers in functions that log: a function with
	// no Append on a wal.Log is a read or replay path.
	appends := false
	for _, bl := range cfg.Blocks {
		for _, n := range bl.Nodes {
			if containsAppend(n) {
				appends = true
			}
		}
	}
	if !appends {
		return
	}

	for _, bl := range cfg.Blocks {
		for _, n := range bl.Nodes {
			node := n
			ast.Inspect(node, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				apply, ok := isWalApply(m)
				if !ok {
					return true
				}
				// An Append earlier in this same statement covers the
				// apply (`log.Append(..); apply(..)` fused forms).
				logged := false
				ast.Inspect(node, func(q ast.Node) bool {
					if isWalAppend(p, q) && q.Pos() < apply.Pos() {
						logged = true
					}
					return !logged
				})
				if logged {
					return true
				}
				reachedUnlogged := cfg.PathFromStmtWithout(body.List[0],
					func(q ast.Node) bool { return q == node },
					containsAppend)
				if reachedUnlogged {
					p.Reportf(apply.Pos(), "in-memory apply precedes the WAL Append (log-then-apply: a crash here loses the update)")
				}
				return true
			})
		}
	}
}
