// escapecheck: lifetimes of pooled scratch values. A value checked out
// of a scratch pool — sqljson's AcquireState, sqlengine's getBatch, a
// node slice from pathengine's EvalState.Eval, or any sync.Pool Get —
// must not be reached again once some path has released it: not read,
// not stored into a struct field, not sent on a channel, and not
// captured by a closure that can run after the release. A value used
// after its release may already be serving another checkout, which
// corrupts silently (the freelist hands the same backing array to two
// owners). The may-alias lattice (analysis.CellFlow) follows aliases
// (`b := kept`), releases inside one arm of an if, and loops that
// re-acquire from the same site (a back edge revives the cell, so
// per-iteration acquire/release stays clean).
//
// Two statement-order rules cover what the lattice cannot see, values
// that were not acquired in the function at hand (struct fields,
// parameters):
//
//  1. use-after-release: within a statement block, once a value is
//     passed to a release call (ReleaseState, PutNodes, putBatch), no
//     later statement in that block may mention it — until a statement
//     reassigns it, which re-establishes ownership of a fresh value.
//  2. release-then-clear: when the released value lives in a struct
//     field (x.f), the statement immediately following the release
//     must overwrite that field (typically `x.f = nil`), so a stale
//     handle can never outlive the release site.
//
// Deliberately NOT flagged: field stores and channel sends of a value
// that is still live. Those are ownership transfers — detachBatch
// hand-off, parRow sends in the parallel operators — and the receiving
// side becomes the releaser. Only reaching a value after its pool got
// it back is corruption.

package fsdmvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// poolAcquirers names the checkout entry points whose results
// escapecheck tracks; poolReleasers spends them.
var poolAcquirers = map[string]bool{
	"AcquireState": true, // sqljson.TableDef pool
	"getBatch":     true, // sqlengine batch header pool
}

// poolReleasers names the release entry points of the scratch pools;
// argument 0 is the value whose ownership the call consumes.
var poolReleasers = map[string]bool{
	"ReleaseState": true, // sqljson.TableDef pool
	"PutNodes":     true, // pathengine.EvalState arena
	"putBatch":     true, // sqlengine batch header pool
}

// EscapeCheck flags pooled values reached after a release on some
// path — reads, field stores, channel sends, and closure captures —
// and released struct fields left pointing at the returned value.
var EscapeCheck = &analysis.Analyzer{
	Name: "escapecheck",
	Doc:  "a pooled value (AcquireState/getBatch/EvalState.Eval/sync.Pool Get) must not be read, stored, sent, or captured after any path has released it, and a released field must be cleared",
	Run:  runEscapeCheck,
}

func runEscapeCheck(pass *analysis.Pass) error {
	// one finding per position: the flow walk and the block rules can
	// reach the same stale read, and the flow's wording is the sharper
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				checkFuncEscapes(pass, n, report)
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.BlockStmt:
				checkReleaseOrder(t.List, report)
			case *ast.CaseClause:
				checkReleaseOrder(t.Body, report)
			case *ast.CommClause:
				checkReleaseOrder(t.Body, report)
			}
			return true
		})
	}
	return nil
}

// reportFunc reports a finding once per position.
type reportFunc func(pos token.Pos, format string, args ...any)

// checkFuncEscapes runs the cell lattice over one function and reports
// every reach of a spent value.
func checkFuncEscapes(pass *analysis.Pass, fn ast.Node, report reportFunc) {
	cfg := analysis.CFGOf(pass, fn)
	if cfg == nil {
		return
	}
	flow := analysis.NewCellFlow(pass, cfg,
		func(call *ast.CallExpr) bool { return isPoolAcquire(pass.TypesInfo, call) },
		func(n ast.Node) []ast.Expr { return releasedArgs(pass.TypesInfo, n) },
	)
	if !flow.Tracked() {
		return
	}
	flow.Walk(func(n ast.Node, st analysis.CellState) {
		// overwriting a spent variable re-establishes ownership; its
		// plain-identifier assignment targets are not uses
		overwritten := map[*ast.Ident]bool{}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, isID := unparen(lhs).(*ast.Ident); isID {
					overwritten[id] = true
				}
			}
		}
		analysis.InspectNode(n, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				// closure capturing a spent value: the body is not part
				// of this CFG, so scan it against the state at the
				// capture point
				ast.Inspect(t.Body, func(b ast.Node) bool {
					if id, ok := b.(*ast.Ident); ok && st.SpentCells(id) {
						report(id.Pos(), "pooled value %s captured by closure after release: the pool may have handed it to another owner (capture before releasing, or move the release past the closure's last run)", id.Name)
					}
					return true
				})
				return false
			case *ast.SendStmt:
				if st.SpentCells(t.Value) {
					report(t.Value.Pos(), "pooled value %s sent on channel after release: the receiver would share it with the pool's next checkout (send before releasing, or transfer ownership and drop the release)", refString(t.Value))
				}
			case *ast.AssignStmt:
				for i, lhs := range t.Lhs {
					if _, isSel := unparen(lhs).(*ast.SelectorExpr); isSel && i < len(t.Rhs) {
						if st.SpentCells(t.Rhs[i]) {
							report(t.Rhs[i].Pos(), "pooled value %s stored to a field after release: the field would outlive the checkout (store before releasing, or clear the release and transfer ownership)", refString(t.Rhs[i]))
						}
					}
				}
			case *ast.Ident:
				if !overwritten[t] && st.SpentCells(t) {
					report(t.Pos(), "pooled value %s used after release on some path: the pool may already have handed it to another owner (release on every path only after the last use)", t.Name)
				}
			}
			return true
		})
	})
}

// checkReleaseOrder applies the two statement-order rules to one
// statement sequence.
func checkReleaseOrder(stmts []ast.Stmt, report reportFunc) {
	for i, s := range stmts {
		call := releaseCallIn(s)
		if call == nil || len(call.Args) == 0 {
			continue
		}
		released := refString(call.Args[0])
		if released == "" || released == "nil" {
			continue
		}
		// rule 2: a released field must be cleared by the very next
		// statement (before any early return can leak the stale handle)
		if _, isField := unparen(call.Args[0]).(*ast.SelectorExpr); isField {
			if i+1 >= len(stmts) || !assignsTo(stmts[i+1], released) {
				report(call.Pos(), "pooled value %s is not cleared after release: the next statement must reassign it (e.g. %s = nil)", released, released)
			}
		}
		// rule 1: no later statement in this block may use the value
		for _, later := range stmts[i+1:] {
			if assignsTo(later, released) {
				break // fresh value, ownership re-established
			}
			if use := firstUse(later, released); use != nil {
				report(use.Pos(), "pooled value %s used after release: the pool may already have handed it to another owner", released)
				break
			}
		}
	}
}

// releaseCallIn returns the release call when s is a bare call to a
// pool releaser, else nil. A deferred release runs at function exit,
// after every use in the body, so statement order does not apply.
func releaseCallIn(s ast.Stmt) *ast.CallExpr {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, _ := unparen(es.X).(*ast.CallExpr)
	if call == nil {
		return nil
	}
	switch fn := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if poolReleasers[fn.Sel.Name] {
			return call
		}
	case *ast.Ident:
		if poolReleasers[fn.Name] {
			return call
		}
	}
	return nil
}

// assignsTo reports whether s assigns directly to the named reference
// (plain `=` or short `:=`, any position on the left-hand side).
func assignsTo(s ast.Stmt, ref string) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if refString(lhs) == ref {
			return true
		}
	}
	return false
}

// firstUse returns the first mention of ref inside s, skipping
// left-hand sides of assignments (an overwrite is not a use) and
// field names.
func firstUse(s ast.Stmt, ref string) ast.Expr {
	var found ast.Expr
	skip := map[ast.Expr]bool{}
	ast.Inspect(s, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if refString(lhs) == ref {
					skip[lhs] = true
				}
			}
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			skip[sel.Sel] = true // h.b names a field, not the local b
		}
		e, ok := n.(ast.Expr)
		if !ok || skip[e] {
			return true
		}
		if refString(e) == ref {
			found = e
			return false
		}
		return true
	})
	return found
}

// refString renders an identifier or selector chain (j.exp, out) to a
// comparable key; "" for anything more complex (calls, index exprs),
// which the statement-order rules conservatively skip.
func refString(e ast.Expr) string {
	switch t := unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		base := refString(t.X)
		if base == "" {
			return ""
		}
		return base + "." + t.Sel.Name
	}
	return ""
}

// isPoolAcquire matches the pool checkout calls: the named acquirers,
// EvalState's Eval (its node slice belongs to the state's arena) and
// any type-resolved (*sync.Pool).Get.
func isPoolAcquire(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := callee(info, call).(*types.Func)
	if !ok {
		return false
	}
	if poolAcquirers[fn.Name()] {
		return true
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && fn.Name() == "Eval" && sig.Recv() != nil {
		if _, rname, _ := baseTypeName(sig.Recv().Type()); rname == "EvalState" {
			return true
		}
	}
	return isSyncPoolMethod(info, fn, "Get")
}

// releasedArgs lists the expressions a non-deferred node releases:
// argument 0 of every poolReleaser or (*sync.Pool).Put call inside it.
// Deferred releases run at function exit, not at the defer site, so
// they never spend mid-function state.
func releasedArgs(info *types.Info, n ast.Node) []ast.Expr {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return nil
	}
	var out []ast.Expr
	analysis.InspectNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn, ok := callee(info, call).(*types.Func)
		if !ok {
			return true
		}
		if poolReleasers[fn.Name()] || isSyncPoolMethod(info, fn, "Put") {
			out = append(out, call.Args[0])
		}
		return true
	})
	return out
}

// isSyncPoolMethod reports whether fn is sync.Pool's method name.
func isSyncPoolMethod(info *types.Info, fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, rname, _ := baseTypeName(sig.Recv().Type())
	return rname == "Pool"
}
