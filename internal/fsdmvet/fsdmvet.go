// Package fsdmvet implements the repository's project-specific static
// analyzers: machine checks for the engine contracts that PRs 1–4
// established in prose. Each analyzer enforces one invariant:
//
//   - cancelcheck: unbounded row loops tick the ExecCtx (cooperative
//     cancellation, DESIGN §5b).
//   - immutcheck: pathengine.Compiled, sqlengine.preparedPlan and
//     imc.BatchKernel are immutable outside their constructor files
//     (they are shared lock-free across goroutines and cache entries).
//   - metriccheck: metric names are compile-time constants in the
//     pkg.noun.verb snake_case namespace, registered exactly once.
//   - lockcheck: every Lock/RLock is followed by a same-function
//     deferred unlock, or carries an explicit suppression.
//   - errwrapcheck: error values are wrapped with %w (never flattened
//     through %v/%s), and sqlengine builds sentinels at package level.
//   - leakcheck: every go statement is dominated by a
//     sync.WaitGroup.Add registration (or waits on a group itself),
//     and every fleet is joined on all paths out of its owner.
//   - escapecheck: a pooled value (ExpandStates, EvalState node
//     slices, batch headers) is never read, stored to a field, sent on
//     a channel, or captured by a closure after any path has released
//     it (CFG + may-alias), and a released struct field is cleared at
//     the release site.
//   - blockcheck: no channel operation, operator NextBatch pull,
//     store DML, or WaitGroup.Wait while a sync mutex is held.
//
// The last three are flow-sensitive, built on the CFG/dataflow layer
// in internal/analysis (see CFGOf, ReachingDefs, CellFlow).
//
// The suite runs through cmd/fsdmvet (wired into `make lint`); a
// finding is suppressed by annotating the line with
// //fsdmvet:ignore <analyzer> <reason>. See docs/STATIC_ANALYSIS.md.
package fsdmvet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzers is the fsdmvet suite in the order the driver runs it.
var Analyzers = []*analysis.Analyzer{
	CancelCheck,
	ImmutCheck,
	MetricCheck,
	LockCheck,
	ErrWrapCheck,
	LeakCheck,
	EscapeCheck,
	BlockCheck,
}

// baseTypeName unwraps pointers and returns the named type's name and
// defining package, or "" when t is not (a pointer to) a named type.
func baseTypeName(t types.Type) (pkg *types.Package, name string, isPtr bool) {
	if p, ok := t.(*types.Pointer); ok {
		isPtr = true
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", isPtr
	}
	obj := named.Obj()
	return obj.Pkg(), obj.Name(), isPtr
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// callee resolves the object a call expression invokes, unwrapping a
// selector or bare identifier; nil for indirect calls through
// arbitrary expressions.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return info.ObjectOf(fn.Sel)
	case *ast.Ident:
		return info.ObjectOf(fn)
	}
	return nil
}

// selectorCall returns the selector of call when it is of the form
// recv.Name(...), else nil.
func selectorCall(call *ast.CallExpr) *ast.SelectorExpr {
	sel, _ := unparen(call.Fun).(*ast.SelectorExpr)
	return sel
}

// containsCall reports whether the subtree rooted at n contains a
// call for which match returns true.
func containsCall(n ast.Node, match func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && match(call) {
			found = true
			return false
		}
		return true
	})
	return found
}
