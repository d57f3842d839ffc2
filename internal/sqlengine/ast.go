// AST node definitions for the SQL subset.

package sqlengine

import (
	"repro/internal/jsondom"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
)

// Statement is any parsed SQL statement.
type Statement interface{ isStmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    []FromItem // comma-separated items, cross/lateral joined
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int // -1 = none
}

// SelectItem is one projection. Star selects all visible columns
// (optionally restricted to one table alias).
type SelectItem struct {
	Star      bool
	StarTable string
	Expr      Expr
	Alias     string
}

// OrderItem is one ORDER BY key. Position > 0 selects a projection by
// ordinal ("order by 1").
type OrderItem struct {
	Expr     Expr
	Position int
	Desc     bool
}

// FromItem is a FROM-clause element.
type FromItem interface{ isFrom() }

// TableRef names a table or view, with optional alias and SAMPLE
// clause (Q1 of Table 9).
type TableRef struct {
	Name      string
	Alias     string
	SamplePct float64 // 0 = no sampling
}

// SubqueryRef is an inline view.
type SubqueryRef struct {
	Query *SelectStmt
	Alias string
}

// JSONTableRef is a JSON_TABLE(...) virtual table (§3.3.2). Arg is the
// document expression, evaluated laterally against the preceding FROM
// items.
type JSONTableRef struct {
	Arg   Expr
	Def   *sqljson.TableDef
	Alias string
	// ColNames caches Def.OutputColumns() names in order.
	ColNames []string
}

// JoinRef is an explicit `left JOIN right ON cond` tree.
type JoinRef struct {
	Left, Right FromItem
	On          Expr
	LeftOuter   bool
}

func (*TableRef) isFrom()     {}
func (*SubqueryRef) isFrom()  {}
func (*JSONTableRef) isFrom() {}
func (*JoinRef) isFrom()      {}

func (*SelectStmt) isStmt() {}

// ExplainStmt is EXPLAIN [ANALYZE] <select>: it renders the operator
// tree; with ANALYZE the query also runs and each line carries the
// operator's row count, batch count, and cumulative wall time.
type ExplainStmt struct {
	Analyze bool
	Query   *SelectStmt
	// QueryText is the SELECT source text, kept so EXPLAIN can report
	// whether the statement's normalized shape is in the plan cache.
	QueryText string
}

func (*ExplainStmt) isStmt() {}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef is one column definition of CREATE TABLE.
type ColumnDef struct {
	Name       string
	TypeName   string // number | varchar2 | raw | boolean
	MaxLen     int
	CheckJSON  bool
	PrimaryKey bool
}

// CreateViewStmt is CREATE [OR REPLACE] VIEW name AS select.
type CreateViewStmt struct {
	Name    string
	Query   *SelectStmt
	Replace bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...), ...
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// CreateSearchIndexStmt is CREATE SEARCH INDEX name ON t (col)
// [PARAMETERS ('DATAGUIDE ON')] (§3.2.1).
type CreateSearchIndexStmt struct {
	Name      string
	Table     string
	Column    string
	DataGuide bool
	// DataGuideOnly skips inverted-list maintenance
	// (PARAMETERS ('DATAGUIDE ONLY')).
	DataGuideOnly bool
}

// AlterTableAddVCStmt is ALTER TABLE t ADD VIRTUAL COLUMN name AS expr
// (the AddVC mechanism of §3.3.1).
type AlterTableAddVCStmt struct {
	Table  string
	Column string
	Expr   Expr
	Hidden bool
}

// DeleteStmt is DELETE FROM t [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE t SET col = expr [, ...] [WHERE expr].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one column assignment of UPDATE.
type SetClause struct {
	Column string
	Expr   Expr
}

// DropStmt is DROP TABLE|VIEW|INDEX name.
type DropStmt struct {
	Kind string // "table", "view", "index"
	Name string
}

// ShowMetricsStmt is SHOW METRICS: it reads every counter, gauge, and
// histogram in the default metrics registry as (metric, value) rows.
type ShowMetricsStmt struct{}

// ShowStatsStmt is SHOW STATS (shorthand: STATS): the SHOW METRICS
// rows followed by the optimizer statistics rows (per-table row
// counts, DataGuide path statistics, populated IMC column statistics).
type ShowStatsStmt struct{}

func (*CreateTableStmt) isStmt()       {}
func (*CreateViewStmt) isStmt()        {}
func (*InsertStmt) isStmt()            {}
func (*CreateSearchIndexStmt) isStmt() {}
func (*AlterTableAddVCStmt) isStmt()   {}
func (*DropStmt) isStmt()              {}
func (*DeleteStmt) isStmt()            {}
func (*UpdateStmt) isStmt()            {}
func (*ShowMetricsStmt) isStmt()       {}
func (*ShowStatsStmt) isStmt()         {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is a SQL scalar expression.
type Expr interface{ isExpr() }

// Literal is a constant. Off is the byte offset of the source token
// that produced it: >0 for number/string literals that literal
// auto-parameterization may replace with a bind slot, -1 for keyword
// literals (null/true/false), and 0 for synthesized literals that have
// no source token. Offset 0 can never be a real literal because every
// statement starts with a keyword.
type Literal struct {
	Val jsondom.Value
	Off int
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table string
	Name  string
}

// Param is a positional bind parameter (?).
type Param struct{ Index int }

// BinOp is a binary operator: arithmetic (+ - * /), concatenation
// (||), comparison (= != < <= > >=), or logic (and, or).
type BinOp struct {
	Op   string
	L, R Expr
}

// UnOp is unary minus or NOT.
type UnOp struct {
	Op string // "-" | "not"
	X  Expr
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is `x [NOT] IN (e1, e2, ...)`.
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// LikeExpr is `x [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

// BetweenExpr is `x [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// FuncCall is a scalar or aggregate function call. Star marks
// COUNT(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

// WindowFunc is an analytic function with an OVER clause; only
// LAG(expr [, offset [, default]]) OVER (ORDER BY ...) is needed for
// Q6 of Table 13.
type WindowFunc struct {
	Name    string
	Args    []Expr
	OrderBy []OrderItem
}

// JSONValueExpr is JSON_VALUE(doc, 'path' [RETURNING type]).
type JSONValueExpr struct {
	Arg       Expr
	PathText  string
	Returning sqljson.ReturnType
	Compiled  *pathengine.Compiled
}

// JSONExistsExpr is JSON_EXISTS(doc, 'path').
type JSONExistsExpr struct {
	Arg      Expr
	PathText string
	Compiled *pathengine.Compiled
}

// JSONQueryExpr is JSON_QUERY(doc, 'path').
type JSONQueryExpr struct {
	Arg      Expr
	PathText string
	Compiled *pathengine.Compiled
}

// JSONTextContainsExpr is JSON_TEXTCONTAINS(doc, 'path', 'keyword').
type JSONTextContainsExpr struct {
	Arg      Expr
	PathText string
	Keyword  string
	Compiled *pathengine.Compiled
}

// OSONExpr is OSON(doc): the constructor that encodes a textual JSON
// document into OSON bytes (§5.2.2).
type OSONExpr struct{ Arg Expr }

func (*Literal) isExpr()              {}
func (*ColRef) isExpr()               {}
func (*Param) isExpr()                {}
func (*BinOp) isExpr()                {}
func (*UnOp) isExpr()                 {}
func (*IsNullExpr) isExpr()           {}
func (*InExpr) isExpr()               {}
func (*LikeExpr) isExpr()             {}
func (*BetweenExpr) isExpr()          {}
func (*FuncCall) isExpr()             {}
func (*WindowFunc) isExpr()           {}
func (*JSONValueExpr) isExpr()        {}
func (*JSONExistsExpr) isExpr()       {}
func (*JSONQueryExpr) isExpr()        {}
func (*JSONTextContainsExpr) isExpr() {}
func (*OSONExpr) isExpr()             {}

// aggregateFuncs are the supported SQL aggregates; json_dataguideagg
// is the user-defined aggregate of §3.4.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"json_dataguideagg": true,
}

// walkExpr is the one read traversal over expressions: it calls visit
// on e and then, unless visit returns false, on every sub-expression in
// source order. Every planner analysis is a closure over it, so a node
// kind added to this switch (and to rewriteExpr's) is handled by all of
// them at once; TestTraversalCoversEveryExprField holds both switches to
// every Expr-typed field.
func walkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch t := e.(type) {
	case *BinOp:
		walkExpr(t.L, visit)
		walkExpr(t.R, visit)
	case *UnOp:
		walkExpr(t.X, visit)
	case *IsNullExpr:
		walkExpr(t.X, visit)
	case *InExpr:
		walkExpr(t.X, visit)
		walkExprs(t.List, visit)
	case *LikeExpr:
		walkExpr(t.X, visit)
		walkExpr(t.Pattern, visit)
	case *BetweenExpr:
		walkExpr(t.X, visit)
		walkExpr(t.Lo, visit)
		walkExpr(t.Hi, visit)
	case *FuncCall:
		walkExprs(t.Args, visit)
	case *WindowFunc:
		walkExprs(t.Args, visit)
		walkOrder(t.OrderBy, visit)
	case *JSONValueExpr:
		walkExpr(t.Arg, visit)
	case *JSONExistsExpr:
		walkExpr(t.Arg, visit)
	case *JSONQueryExpr:
		walkExpr(t.Arg, visit)
	case *JSONTextContainsExpr:
		walkExpr(t.Arg, visit)
	case *OSONExpr:
		walkExpr(t.Arg, visit)
	}
}

func walkExprs(xs []Expr, visit func(Expr) bool) {
	for _, x := range xs {
		walkExpr(x, visit)
	}
}

func walkOrder(items []OrderItem, visit func(Expr) bool) {
	for i := range items {
		walkExpr(items[i].Expr, visit)
	}
}

// walkSelect walks the expressions of one query level: select list,
// WHERE, GROUP BY, HAVING, ORDER BY. With from set it also walks join
// conditions and JSON_TABLE arguments and descends into FROM
// subqueries.
func walkSelect(s *SelectStmt, from bool, visit func(Expr) bool) {
	for i := range s.Items {
		walkExpr(s.Items[i].Expr, visit)
	}
	walkExpr(s.Where, visit)
	walkExprs(s.GroupBy, visit)
	walkExpr(s.Having, visit)
	walkOrder(s.OrderBy, visit)
	if from {
		for _, f := range s.From {
			walkFrom(f, visit)
		}
	}
}

func walkFrom(f FromItem, visit func(Expr) bool) {
	switch t := f.(type) {
	case *SubqueryRef:
		walkSelect(t.Query, true, visit)
	case *JSONTableRef:
		walkExpr(t.Arg, visit)
	case *JoinRef:
		walkFrom(t.Left, visit)
		walkFrom(t.Right, visit)
		walkExpr(t.On, visit)
	}
}

// exprContains reports whether any node of e satisfies match.
func exprContains(e Expr, match func(Expr) bool) (found bool) {
	walkExpr(e, func(x Expr) bool {
		found = found || match(x)
		return !found
	})
	return found
}

func isAggregate(x Expr) bool {
	f, ok := x.(*FuncCall)
	return ok && aggregateFuncs[f.Name]
}

func isWindow(x Expr) bool {
	_, ok := x.(*WindowFunc)
	return ok
}

// hasAggregate reports whether the expression contains an aggregate
// function call.
func hasAggregate(e Expr) bool { return exprContains(e, isAggregate) }

// hasWindow reports whether the expression contains a window function.
func hasWindow(e Expr) bool { return exprContains(e, isWindow) }

// dup returns p itself, or a shallow copy of it in copy mode.
func dup[T any](p *T, copy bool) *T {
	if !copy {
		return p
	}
	c := *p
	return &c
}

// rewriteExpr is the one rewriting traversal: it applies rw bottom-up,
// reassigning every sub-expression field to rw's result. In copy mode
// each interior node (and child slice) is cloned before its fields are
// reassigned, so the input tree is left untouched and shares only its
// leaves with the result.
func rewriteExpr(e Expr, copy bool, rw func(Expr) Expr) Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case *BinOp:
		t = dup(t, copy)
		t.L = rewriteExpr(t.L, copy, rw)
		t.R = rewriteExpr(t.R, copy, rw)
		e = t
	case *UnOp:
		t = dup(t, copy)
		t.X = rewriteExpr(t.X, copy, rw)
		e = t
	case *IsNullExpr:
		t = dup(t, copy)
		t.X = rewriteExpr(t.X, copy, rw)
		e = t
	case *InExpr:
		t = dup(t, copy)
		t.X = rewriteExpr(t.X, copy, rw)
		t.List = rewriteExprs(t.List, copy, rw)
		e = t
	case *LikeExpr:
		t = dup(t, copy)
		t.X = rewriteExpr(t.X, copy, rw)
		t.Pattern = rewriteExpr(t.Pattern, copy, rw)
		e = t
	case *BetweenExpr:
		t = dup(t, copy)
		t.X = rewriteExpr(t.X, copy, rw)
		t.Lo = rewriteExpr(t.Lo, copy, rw)
		t.Hi = rewriteExpr(t.Hi, copy, rw)
		e = t
	case *FuncCall:
		t = dup(t, copy)
		t.Args = rewriteExprs(t.Args, copy, rw)
		e = t
	case *WindowFunc:
		t = dup(t, copy)
		t.Args = rewriteExprs(t.Args, copy, rw)
		t.OrderBy = rewriteOrder(t.OrderBy, copy, rw)
		e = t
	case *JSONValueExpr:
		t = dup(t, copy)
		t.Arg = rewriteExpr(t.Arg, copy, rw)
		e = t
	case *JSONExistsExpr:
		t = dup(t, copy)
		t.Arg = rewriteExpr(t.Arg, copy, rw)
		e = t
	case *JSONQueryExpr:
		t = dup(t, copy)
		t.Arg = rewriteExpr(t.Arg, copy, rw)
		e = t
	case *JSONTextContainsExpr:
		t = dup(t, copy)
		t.Arg = rewriteExpr(t.Arg, copy, rw)
		e = t
	case *OSONExpr:
		t = dup(t, copy)
		t.Arg = rewriteExpr(t.Arg, copy, rw)
		e = t
	}
	return rw(e)
}

// copyExpr returns a deep copy of e (leaves shared).
func copyExpr(e Expr) Expr {
	return rewriteExpr(e, true, func(x Expr) Expr { return x })
}

func rewriteExprs(xs []Expr, copy bool, rw func(Expr) Expr) []Expr {
	if copy {
		xs = append([]Expr(nil), xs...)
	}
	for i := range xs {
		xs[i] = rewriteExpr(xs[i], copy, rw)
	}
	return xs
}

func rewriteOrder(items []OrderItem, copy bool, rw func(Expr) Expr) []OrderItem {
	if copy {
		items = append([]OrderItem(nil), items...)
	}
	for i := range items {
		items[i].Expr = rewriteExpr(items[i].Expr, copy, rw)
	}
	return items
}

// rewriteSelect applies rw in place to every expression of the
// statement, join conditions and JSON_TABLE arguments included; deep
// also rewrites FROM subqueries, otherwise only this query level is
// touched (a subquery is planned, and rewritten, on its own).
func rewriteSelect(stmt *SelectStmt, deep bool, rw func(Expr) Expr) {
	for i := range stmt.Items {
		stmt.Items[i].Expr = rewriteExpr(stmt.Items[i].Expr, false, rw)
	}
	for _, f := range stmt.From {
		rewriteFrom(f, deep, rw)
	}
	stmt.Where = rewriteExpr(stmt.Where, false, rw)
	rewriteExprs(stmt.GroupBy, false, rw)
	stmt.Having = rewriteExpr(stmt.Having, false, rw)
	rewriteOrder(stmt.OrderBy, false, rw)
}

func rewriteFrom(f FromItem, deep bool, rw func(Expr) Expr) {
	switch t := f.(type) {
	case *SubqueryRef:
		if deep {
			rewriteSelect(t.Query, true, rw)
		}
	case *JSONTableRef:
		t.Arg = rewriteExpr(t.Arg, false, rw)
	case *JoinRef:
		rewriteFrom(t.Left, deep, rw)
		rewriteFrom(t.Right, deep, rw)
		t.On = rewriteExpr(t.On, false, rw)
	}
}
