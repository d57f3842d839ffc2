// cancelcheck: cooperative-cancellation discipline for row loops.
// DESIGN §5b's contract — every loop that can iterate an unbounded
// number of times per call must observe the query context via the
// ExecCtx tick helper — is what keeps a cancelled query from running
// to completion inside a scan, build, or DML sweep. The analyzer
// recognizes three loop shapes that are unbounded by construction and
// requires a tick inside each.

package fsdmvet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// CancelCheck flags unbounded row loops that never tick the query
// context. A loop needs a tick when it
//
//   - pulls from a child row source (a call to NextBatch, to one of
//     the row steps built on it — batchCursor's next, a rowStepper's
//     step — or to nextSelID, passing an *ExecCtx),
//   - performs per-row store DML (Insert/Update/Delete on a
//     store.Table-shaped receiver), or
//   - is a condition-less `for {}` inside a NextBatch/next/step
//     method.
//
// A tick is a call to tickErr, to any .Err() method (the inline
// ticks%cancelCheckInterval pattern), or to a local closure named
// tick, anywhere inside the loop body. Only functions that can see
// the query context — those with an *ExecCtx or context.Context
// parameter — are checked.
var CancelCheck = &analysis.Analyzer{
	Name: "cancelcheck",
	Doc:  "unbounded row loops must tick the ExecCtx for cooperative cancellation",
	Run:  runCancelCheck,
}

func runCancelCheck(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasCancelParam(pass.TypesInfo, fd) {
				continue
			}
			nextShaped := fd.Name.Name == "NextBatch" || fd.Name.Name == "next" || fd.Name.Name == "step"
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				uncond := false
				switch l := n.(type) {
				case *ast.ForStmt:
					body = l.Body
					uncond = l.Cond == nil && l.Init == nil && l.Post == nil
				case *ast.RangeStmt:
					body = l.Body
				default:
					return true
				}
				var why string
				switch {
				case pullsRowSource(pass.TypesInfo, body):
					why = "pulls a child row source"
				case mutatesTableRows(pass.TypesInfo, body):
					why = "performs per-row store DML"
				case uncond && nextShaped:
					why = "is an unbounded for{} in a row-source method"
				default:
					return true
				}
				if !ticksContext(body) {
					pass.Reportf(n.Pos(), "loop %s but never ticks the query context (call ExecCtx.tickErr every cancelCheckInterval rows)", why)
				}
				return true
			})
		}
	}
	return nil
}

// hasCancelParam reports whether the function can observe the query
// context: a parameter of type *ExecCtx (any package) or
// context.Context.
func hasCancelParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		if _, name, _ := baseTypeName(tv.Type); name == "ExecCtx" || name == "Context" {
			return true
		}
	}
	return false
}

// pullsRowSource reports whether the loop body calls a NextBatch,
// next, step, or nextSelID method that receives an *ExecCtx — the
// operator pull, the row steps layered on it (fillBatch's loop drives
// step; build loops drive a batchCursor's next), and the
// selected-row-id pull the code-space aggregation and join loops
// drive directly.
func pullsRowSource(info *types.Info, body ast.Node) bool {
	return containsCall(body, func(call *ast.CallExpr) bool {
		sel := selectorCall(call)
		if sel == nil {
			return false
		}
		switch sel.Sel.Name {
		case "NextBatch", "next", "step", "nextSelID":
		default:
			return false
		}
		if len(call.Args) == 0 {
			return false
		}
		tv, ok := info.Types[call.Args[0]]
		if !ok {
			return false
		}
		_, name, _ := baseTypeName(tv.Type)
		return name == "ExecCtx"
	})
}

// mutatesTableRows reports whether the loop body performs row DML
// against a store table (Insert/Update/Delete on a receiver whose
// named type is Table).
func mutatesTableRows(info *types.Info, body ast.Node) bool {
	return containsCall(body, func(call *ast.CallExpr) bool {
		sel := selectorCall(call)
		if sel == nil {
			return false
		}
		switch sel.Sel.Name {
		case "Insert", "Update", "Delete":
		default:
			return false
		}
		tv, ok := info.Types[sel.X]
		if !ok {
			return false
		}
		_, name, _ := baseTypeName(tv.Type)
		return name == "Table"
	})
}

// ticksContext reports whether the loop body observes cancellation:
// a tickErr call, an .Err() check, or a call to a closure named tick.
func ticksContext(body ast.Node) bool {
	return containsCall(body, func(call *ast.CallExpr) bool {
		switch fn := unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			return fn.Sel.Name == "tickErr" || fn.Sel.Name == "Err"
		case *ast.Ident:
			return fn.Name == "tick" || fn.Name == "tickErr"
		}
		return false
	})
}
