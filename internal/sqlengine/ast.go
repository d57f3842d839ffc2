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
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
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

// hasAggregate reports whether the expression contains an aggregate
// function call (not inside a window function).
func hasAggregate(e Expr) bool {
	switch t := e.(type) {
	case *FuncCall:
		if aggregateFuncs[t.Name] {
			return true
		}
		for _, a := range t.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case *BinOp:
		return hasAggregate(t.L) || hasAggregate(t.R)
	case *UnOp:
		return hasAggregate(t.X)
	case *IsNullExpr:
		return hasAggregate(t.X)
	case *InExpr:
		if hasAggregate(t.X) {
			return true
		}
		for _, a := range t.List {
			if hasAggregate(a) {
				return true
			}
		}
	case *LikeExpr:
		return hasAggregate(t.X) || hasAggregate(t.Pattern)
	case *BetweenExpr:
		return hasAggregate(t.X) || hasAggregate(t.Lo) || hasAggregate(t.Hi)
	}
	return false
}

// hasWindow reports whether the expression contains a window function.
func hasWindow(e Expr) bool {
	switch t := e.(type) {
	case *WindowFunc:
		return true
	case *BinOp:
		return hasWindow(t.L) || hasWindow(t.R)
	case *UnOp:
		return hasWindow(t.X)
	case *FuncCall:
		for _, a := range t.Args {
			if hasWindow(a) {
				return true
			}
		}
	}
	return false
}
