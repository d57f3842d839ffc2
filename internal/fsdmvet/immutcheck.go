// immutcheck: construction-time-only mutability for the plan objects
// that are shared lock-free. pathengine.Compiled instances are
// memoized process-wide (PR 3), preparedPlan templates live in the
// plan cache and are instantiated concurrently, and imc.BatchKernel
// closures are executed by parallel scan workers — a post-construction
// write to any of them is a data race waiting for load. The analyzer
// turns the prose contract ("immutable after construction") into a
// file-scoped write check.

package fsdmvet

import (
	"go/ast"
	"path/filepath"

	"repro/internal/analysis"
)

// immutProtected maps "package.Type" to the single file allowed to
// write its fields — the constructor file that builds instances
// before they are published.
var immutProtected = map[string]string{
	"pathengine.Compiled":    "pathengine.go",
	"sqlengine.preparedPlan": "plan.go",
	"imc.BatchKernel":        "vector.go",
	// Every state of an in-memory store is an Image that scans read
	// without a lock while DML publishes the next one: image.go builds
	// each (population, a written row, a fold) before it is published.
	"imc.Image": "image.go",
	// Batch headers are pooled and handed across operators (and, in
	// parallel plans, across goroutines): confining every rows-slice
	// mutation to the batch spine file is what makes the recycling
	// protocol auditable.
	"sqlengine.Batch":       "exec_batch.go",
	"sqlengine.aggFastSpec": "exec_batch.go",
}

// ImmutCheck flags writes to fields of the engine's shared-immutable
// types outside their constructor files. Two write shapes are
// caught: a direct field store through a pointer (p.field = x,
// p.field++), and an element store into a field's slice or map
// (v.field[i] = x) — the latter mutates the shared backing store even
// through a value copy. Reads, whole-struct copies, and writes to
// local value copies stay legal.
var ImmutCheck = &analysis.Analyzer{
	Name: "immutcheck",
	Doc:  "no writes to Compiled/preparedPlan/BatchKernel fields outside their constructor files",
	Run:  runImmutCheck,
}

func runImmutCheck(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		fname := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkImmutWrite(pass, fname, lhs)
				}
			case *ast.IncDecStmt:
				checkImmutWrite(pass, fname, st.X)
			}
			return true
		})
	}
	return nil
}

// checkImmutWrite reports lhs when it stores into a protected type's
// field from outside the type's constructor file.
func checkImmutWrite(pass *analysis.Pass, fname string, lhs ast.Expr) {
	viaElem := false
	e := unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			viaElem = true
			e = unparen(x.X)
			continue
		case *ast.StarExpr:
			e = unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return
	}
	pkg, name, isPtr := baseTypeName(tv.Type)
	if pkg == nil {
		return
	}
	key := pkg.Name() + "." + name
	allowed, protected := immutProtected[key]
	if !protected || fname == allowed {
		return
	}
	// A plain store into a non-pointer base writes a local copy —
	// safe. Element stores share the backing array/map either way.
	if !isPtr && !viaElem {
		return
	}
	what := "write to"
	if viaElem {
		what = "element write into"
	}
	pass.Reportf(lhs.Pos(), "%s %s.%s: %s is immutable after construction (only %s may write it)", what, key, sel.Sel.Name, key, allowed)
}
