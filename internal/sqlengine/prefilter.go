// JSON_EXISTS prefilters for JSON_TABLE: WHERE conjuncts over a
// JSON_TABLE's output columns are translated into SQL/JSON path
// predicates evaluated on the document *before* row expansion (§6.3:
// "The WHERE predicates on the views are pushed down as JSON_EXISTS()
// with JSON path predicates to be filtered").
//
// A prefilter is an implied condition: a document that produces any
// row satisfying the conjunct must satisfy the prefilter, so skipping
// non-matching documents is sound while the residual WHERE still runs.
// The payoff is the §6.3 performance asymmetry: a binary format
// answers the existence probe by navigating a handful of fields, while
// text must be parsed in full either way.

package sqlengine

import (
	"repro/internal/jsondom"
	"repro/internal/jsonpath"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
)

// attachPrefilters inspects the WHERE conjuncts and attaches every
// translatable one to the JSON_TABLE operator. Constant-only conjuncts
// compile here, once per plan; conjuncts that reference bind
// parameters are kept as specs and translated by the operator's Open
// with each execution's values, so a cached plan never bakes stale
// parameter constants into an implied filter.
func attachPrefilters(op *jsonTableOp, where Expr) {
	for _, c := range splitAnd(where) {
		if exprContains(c, func(x Expr) bool { _, ok := x.(*Param); return ok }) {
			op.preSpecs = append(op.preSpecs, c)
			continue
		}
		if pf, ok := translatePrefilter(op.ref, c, nil); ok {
			op.preFilters = append(op.preFilters, pf)
		}
	}
}

// translatePrefilter converts one conjunct into a compiled path, or
// reports that it has no path equivalent.
func translatePrefilter(ref *JSONTableRef, c Expr, params []jsondom.Value) (*pathengine.Compiled, bool) {
	constVal := func(x Expr) (jsondom.Value, bool) {
		switch t := x.(type) {
		case *Literal:
			if t.Val.Kind().IsScalar() && t.Val.Kind() != jsondom.KindNull {
				return t.Val, true
			}
		case *Param:
			if t.Index < len(params) && params[t.Index].Kind().IsScalar() &&
				params[t.Index].Kind() != jsondom.KindNull {
				return params[t.Index], true
			}
		}
		return nil, false
	}
	colOf := func(x Expr) (string, bool) {
		cr, ok := x.(*ColRef)
		if !ok || (cr.Table != "" && cr.Table != ref.Alias) {
			return "", false
		}
		return cr.Name, true
	}
	cmpOps := map[string]jsonpath.CmpOp{
		"=": jsonpath.OpEq, "!=": jsonpath.OpNe,
		"<": jsonpath.OpLt, "<=": jsonpath.OpLe,
		">": jsonpath.OpGt, ">=": jsonpath.OpGe,
	}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

	switch t := c.(type) {
	case *BinOp:
		op, ok := cmpOps[t.Op]
		if !ok {
			return nil, false
		}
		if col, ok := colOf(t.L); ok {
			if v, ok := constVal(t.R); ok {
				return buildPrefilter(ref, col, func(rel *jsonpath.Path) jsonpath.Predicate {
					return jsonpath.CmpPred{Left: jsonpath.PathOperand{Path: rel}, Op: op,
						Right: jsonpath.LiteralOperand{Value: v}}
				})
			}
		}
		if col, ok := colOf(t.R); ok {
			if v, ok := constVal(t.L); ok {
				fop := cmpOps[flip[t.Op]]
				return buildPrefilter(ref, col, func(rel *jsonpath.Path) jsonpath.Predicate {
					return jsonpath.CmpPred{Left: jsonpath.PathOperand{Path: rel}, Op: fop,
						Right: jsonpath.LiteralOperand{Value: v}}
				})
			}
		}
	case *InExpr:
		if t.Not {
			return nil, false
		}
		col, ok := colOf(t.X)
		if !ok {
			return nil, false
		}
		vals := make([]jsondom.Value, 0, len(t.List))
		for _, x := range t.List {
			v, ok := constVal(x)
			if !ok {
				return nil, false
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return nil, false
		}
		return buildPrefilter(ref, col, func(rel *jsonpath.Path) jsonpath.Predicate {
			var pred jsonpath.Predicate
			for _, v := range vals {
				cmp := jsonpath.CmpPred{Left: jsonpath.PathOperand{Path: rel},
					Op: jsonpath.OpEq, Right: jsonpath.LiteralOperand{Value: v}}
				if pred == nil {
					pred = cmp
				} else {
					pred = jsonpath.OrPred{L: pred, R: cmp}
				}
			}
			return pred
		})
	case *BetweenExpr:
		if t.Not {
			return nil, false
		}
		col, ok := colOf(t.X)
		if !ok {
			return nil, false
		}
		lo, ok1 := constVal(t.Lo)
		hi, ok2 := constVal(t.Hi)
		if !ok1 || !ok2 {
			return nil, false
		}
		return buildPrefilter(ref, col, func(rel *jsonpath.Path) jsonpath.Predicate {
			return jsonpath.AndPred{
				L: jsonpath.CmpPred{Left: jsonpath.PathOperand{Path: rel},
					Op: jsonpath.OpGe, Right: jsonpath.LiteralOperand{Value: lo}},
				R: jsonpath.CmpPred{Left: jsonpath.PathOperand{Path: rel},
					Op: jsonpath.OpLe, Right: jsonpath.LiteralOperand{Value: hi}},
			}
		})
	}
	return nil, false
}

// buildPrefilter locates the named output column in the JSON_TABLE
// definition and assembles the path: row-pattern steps, the nested
// path chain leading to the column, and a trailing filter step whose
// predicate is produced by mkPred over the column's relative path.
func buildPrefilter(ref *JSONTableRef, col string, mkPred func(rel *jsonpath.Path) jsonpath.Predicate) (*pathengine.Compiled, bool) {
	chain, tc, ok := findJTColumn(ref.Def, col)
	if !ok {
		return nil, false
	}
	// the column path must be a plain field chain for @-relative use
	if _, whole := tc.Path.Path.FieldChain(); !whole {
		return nil, false
	}
	var steps []jsonpath.Step
	steps = append(steps, ref.Def.RowPath.Path.Steps...)
	for _, np := range chain {
		steps = append(steps, np.Path.Path.Steps...)
	}
	rel := &jsonpath.Path{Lax: true, Steps: tc.Path.Path.Steps, Text: "@" + tc.Path.Path.Text}
	steps = append(steps, jsonpath.FilterStep{Pred: mkPred(rel)})
	p := &jsonpath.Path{Lax: true, Steps: steps, Text: "$<prefilter:" + col + ">"}
	return pathengine.Compile(p), true
}

// findJTColumn locates a column by name, returning the nested-path
// chain from the row pattern to its clause.
func findJTColumn(def *sqljson.TableDef, name string) ([]sqljson.NestedPath, sqljson.TableColumn, bool) {
	for _, c := range def.Columns {
		if c.Name == name {
			return nil, c, true
		}
	}
	for _, n := range def.Nested {
		if chain, c, ok := findNested(n, name); ok {
			return chain, c, true
		}
	}
	return nil, sqljson.TableColumn{}, false
}

func findNested(n sqljson.NestedPath, name string) ([]sqljson.NestedPath, sqljson.TableColumn, bool) {
	for _, c := range n.Columns {
		if c.Name == name {
			return []sqljson.NestedPath{n}, c, true
		}
	}
	for _, sub := range n.Nested {
		if chain, c, ok := findNested(sub, name); ok {
			return append([]sqljson.NestedPath{n}, chain...), c, true
		}
	}
	return nil, sqljson.TableColumn{}, false
}
