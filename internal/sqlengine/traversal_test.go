package sqlengine

// Tests for the shared expression traversal (ast.go): a reflection
// guard that holds walkExpr and rewriteExpr to every Expr-typed field
// of every node kind, and the queries the eleven hand-rolled walkers it
// replaced got wrong because their copies of the node list disagreed.

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsondom"
)

// exprKinds is one zero value per Expr node kind. The guard test fails
// when ast.go declares a kind that is missing here.
var exprKinds = []Expr{
	&Literal{}, &ColRef{}, &Param{}, &BinOp{}, &UnOp{}, &IsNullExpr{}, &InExpr{},
	&LikeExpr{}, &BetweenExpr{}, &FuncCall{}, &WindowFunc{}, &JSONValueExpr{},
	&JSONExistsExpr{}, &JSONQueryExpr{}, &JSONTextContainsExpr{}, &OSONExpr{},
}

var (
	exprType      = reflect.TypeOf((*Expr)(nil)).Elem()
	exprSliceType = reflect.TypeOf([]Expr(nil))
	orderType     = reflect.TypeOf([]OrderItem(nil))
)

// mentionsExpr reports whether a value of type t can hold an Expr.
func mentionsExpr(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Interface:
		return t == exprType
	case reflect.Slice, reflect.Array, reflect.Ptr, reflect.Map:
		return mentionsExpr(t.Elem())
	case reflect.Struct:
		if t.PkgPath() != exprType.PkgPath() {
			return false
		}
		for i := 0; i < t.NumField(); i++ {
			if mentionsExpr(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// plantSentinels builds a node of kind's type with a distinct ColRef
// leaf in every field of type Expr, []Expr and []OrderItem.
func plantSentinels(t *testing.T, kind Expr) (Expr, []Expr) {
	t.Helper()
	typ := reflect.TypeOf(kind).Elem()
	node := reflect.New(typ)
	var planted []Expr
	leaf := func(field string) reflect.Value {
		c := &ColRef{Name: fmt.Sprintf("%s.%s#%d", typ.Name(), field, len(planted))}
		planted = append(planted, c)
		return reflect.ValueOf(c)
	}
	for i := 0; i < typ.NumField(); i++ {
		f, fv := typ.Field(i), node.Elem().Field(i)
		switch {
		case f.Type == exprType:
			fv.Set(leaf(f.Name))
		case f.Type == exprSliceType:
			fv.Set(reflect.ValueOf([]Expr{leaf(f.Name).Interface().(Expr), leaf(f.Name).Interface().(Expr)}))
		case f.Type == orderType:
			fv.Set(reflect.ValueOf([]OrderItem{
				{Expr: leaf(f.Name).Interface().(Expr)}, {Expr: leaf(f.Name).Interface().(Expr), Desc: true}}))
		case mentionsExpr(f.Type):
			t.Errorf("%s.%s has type %s: the traversals only know Expr, []Expr and []OrderItem fields",
				typ.Name(), f.Name, f.Type)
		}
	}
	return node.Interface().(Expr), planted
}

// leavesOf returns every node walkExpr reaches below root, in order.
func leavesOf(root Expr) []Expr {
	var out []Expr
	walkExpr(root, func(x Expr) bool {
		if x != root {
			out = append(out, x)
		}
		return true
	})
	return out
}

func sameExprs(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTraversalCoversEveryExprField: every type with an isExpr method
// in ast.go is listed in exprKinds, and for each of them the read
// traversal visits — and the rewriter, in place and in copy mode,
// reassigns — every field that holds an expression. A node kind added
// later cannot be half-handled: the hand-rolled walkers this replaced
// dropped WindowFunc.OrderBy in three places.
func TestTraversalCoversEveryExprField(t *testing.T) {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, k := range exprKinds {
		listed[reflect.TypeOf(k).Elem().Name()] = true
	}
	declared := 0
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "isExpr" || fd.Recv == nil {
			continue
		}
		declared++
		recv := fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
		if !listed[recv] {
			t.Errorf("ast.go declares Expr kind %s, which exprKinds does not list", recv)
		}
	}
	if declared != len(exprKinds) {
		t.Errorf("ast.go declares %d Expr kinds, exprKinds lists %d", declared, len(exprKinds))
	}

	for _, kind := range exprKinds {
		name := reflect.TypeOf(kind).Elem().Name()
		node, planted := plantSentinels(t, kind)

		// read traversal: the node first, then every planted leaf once
		if got := leavesOf(node); !sameExprs(got, planted) {
			t.Errorf("walkExpr(%s) reached %v, want every planted field %v", name, got, planted)
		}
		seen := 0
		walkExpr(node, func(Expr) bool { seen++; return false })
		if seen != 1 {
			t.Errorf("walkExpr(%s) visited %d nodes after visit declined to descend, want 1", name, seen)
		}

		// rewriter: each leaf is handed to rw and its field takes rw's
		// result; copy mode leaves the input tree as it was
		for _, copyMode := range []bool{true, false} {
			var fresh []Expr
			out := rewriteExpr(node, copyMode, func(x Expr) Expr {
				if !isPlanted(planted, x) {
					return x // the root (or its copy)
				}
				r := &Literal{Val: jsondom.String(x.(*ColRef).Name)}
				fresh = append(fresh, r)
				return r
			})
			if got := leavesOf(out); !sameExprs(got, fresh) || len(fresh) != len(planted) {
				t.Errorf("rewriteExpr(%s, copy=%v) rewrote %d of %d fields: result holds %v", name, copyMode, len(fresh), len(planted), got)
			}
			if copyMode && len(planted) > 0 {
				if out == node {
					t.Errorf("rewriteExpr(%s, copy=true) returned the input node", name)
				}
				if got := leavesOf(node); !sameExprs(got, planted) {
					t.Errorf("rewriteExpr(%s, copy=true) mutated its input: %v", name, got)
				}
			}
			if !copyMode && out != node {
				t.Errorf("rewriteExpr(%s, copy=false) did not rewrite in place", name)
			}
		}
	}
}

func isPlanted(planted []Expr, x Expr) bool {
	for _, p := range planted {
		if p == x {
			return true
		}
	}
	return false
}

// newLagTable is the four-row table the ISSUE's hand-checked answers
// are written against: x = 0, 10, 30, 40; doc = {"a": 1..4}.
func newLagTable(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table t (x number, doc varchar2(100))`)
	for i, x := range []int{0, 10, 30, 40} {
		mustExec(t, e, fmt.Sprintf(`insert into t values (%d, '{"a":%d}')`, x, i+1))
	}
	return e
}

// TestTraversalFixedQueries: the statements that failed before the
// walkers shared one traversal, against rows worked out by hand.
func TestTraversalFixedQueries(t *testing.T) {
	e := newLagTable(t)
	mustExec(t, e, `create view v2 as select x, (lag(x) over (order by x)) is null as first from t`)
	for _, c := range []struct{ sql, want string }{
		// (a) a window function under IS NULL / BETWEEN / IN, and in ORDER BY
		{`select x, lag(x) over (order by x) is null from t`, `[[0 true] [10 false] [30 false] [40 false]]`},
		{`select x, lag(x) over (order by x) between 0 and 20 from t`, `[[0 {}] [10 true] [30 true] [40 false]]`},
		{`select x, lag(x) over (order by x) in (0, 10) from t`, `[[0 {}] [10 true] [30 true] [40 false]]`},
		{`select x from t order by lag(x) over (order by x) is null, x desc`, `[[40] [30] [10] [0]]`},
		// (b) an aggregate as JSON_VALUE's document argument
		{`select json_value(max(doc), '$.a') from t`, `[[4]]`},
		// (c) the outer WHERE stays above the view's window: x = 30 is
		// not the first row of t
		{`select * from v2 where x >= 30`, `[[30 false] [40 false]]`},
		// an aggregate inside a window's argument is computed below it
		{`select lag(count(*)) over (order by x) from t group by x`, `[[{}] [1] [1] [1]]`},
	} {
		r, err := e.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := fmt.Sprint(r.Rows); got != c.want {
			t.Errorf("%s:\n  got  %s\n  want %s", c.sql, got, c.want)
		}
	}

	plan := fmt.Sprint(mustExec(t, e, `explain select * from v2 where x >= 30`).Rows)
	filter, window := strings.Index(plan, "Filter"), strings.Index(plan, "Window")
	if filter < 0 || window < 0 || filter > window {
		t.Errorf("the view's window must run under the outer filter:\n%s", plan)
	}
}

// TestAggregateAndWindowPlacementErrors: a window function or an
// aggregate where no operator can compute it is a plan-time error (an
// empty table still rejects it), never an eval-time one or a panic.
func TestAggregateAndWindowPlacementErrors(t *testing.T) {
	for _, rows := range []string{"empty", "filled"} {
		e := New()
		mustExec(t, e, `create table t (x number, doc varchar2(100))`)
		if rows == "filled" {
			e = newLagTable(t)
		}
		for sql, want := range map[string]string{
			`select x from t where lag(x) over (order by x) is null`: "window function lag is not allowed in WHERE",
			`select x from t where x in (1, max(x))`:                 "aggregate max is not allowed in WHERE",
			`update t set x = max(x)`:                                "aggregate max is not allowed in SET",
			`update t set x = 1 where lag(x) over (order by x) = 1`:  "window function lag is not allowed in WHERE",
			`delete from t where count(*) > 1`:                       "aggregate count is not allowed in WHERE",
		} {
			if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s table, %s: err = %v, want %q", rows, sql, err, want)
			}
		}
	}
	// a window function inside an aggregate's argument has no column to
	// read when the aggregate runs; the parent commit indexed past the
	// row and panicked
	e := newLagTable(t)
	if _, err := e.Query(`select sum(lag(x) over (order by x)) from t`); err == nil ||
		!strings.Contains(err.Error(), "outside window context") {
		t.Errorf("window inside an aggregate: err = %v, want a typed error", err)
	}
}
