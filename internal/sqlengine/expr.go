// SQL expression evaluation.
//
// SQL values are jsondom scalars; SQL NULL is jsondom.Null. Comparison
// follows SQL three-valued logic (NULL-propagating); WHERE treats a
// NULL predicate as false.

package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
)

// ColMeta describes one column of a row-source schema. Hidden columns
// are excluded from SELECT * expansion (the implicit OSON virtual
// column of §5.2.2 and synthetic aggregate/window columns).
type ColMeta struct {
	Table  string // alias (lower-cased); may be empty
	Name   string // column name (lower-cased)
	Hidden bool
}

// Schema is an ordered list of visible columns.
type Schema []ColMeta

// Resolve finds the position of a column reference, enforcing
// unambiguity.
func (s Schema) Resolve(table, name string) (int, error) {
	found := -1
	for i, c := range s {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("sql: unknown column %s.%s", table, name)
		}
		return 0, fmt.Errorf("sql: unknown column %s", name)
	}
	return found, nil
}

// evalCtx carries everything expression evaluation needs for one row.
// aggCols/winCols map aggregate and window AST nodes to the synthetic
// columns their operators appended to the row.
type evalCtx struct {
	schema  Schema
	row     []jsondom.Value
	params  []jsondom.Value
	aggCols map[*FuncCall]int
	winCols map[*WindowFunc]int
	// colIdx caches column resolution per ColRef node for this
	// context's schema; operators build it once at Open so per-row
	// evaluation avoids the linear name search.
	colIdx map[*ColRef]int
	// ownsReader marks a context built once per operator (bindCtx):
	// it reads OSON through jr, allocated on first use. Per-row contexts
	// (planEnv.ctx) use FromDatum: some run on several workers at once.
	ownsReader bool
	jr         *sqljson.Reader
}

var null = jsondom.Null{}

func isNull(v jsondom.Value) bool { return v == nil || v.Kind() == jsondom.KindNull }

// truthy interprets a predicate result for WHERE/ON/HAVING: only a
// true boolean passes.
func truthy(v jsondom.Value) bool {
	b, ok := v.(jsondom.Bool)
	return ok && bool(b)
}

func evalExpr(ctx *evalCtx, e Expr) (jsondom.Value, error) {
	switch t := e.(type) {
	case *Literal:
		return t.Val, nil
	case *Param:
		if t.Index >= len(ctx.params) {
			return nil, fmt.Errorf("sql: missing bind parameter %d", t.Index+1)
		}
		return ctx.params[t.Index], nil
	case *ColRef:
		if i, ok := ctx.colIdx[t]; ok {
			return ctx.row[i], nil
		}
		i, err := ctx.schema.Resolve(t.Table, t.Name)
		if err != nil {
			return nil, err
		}
		return ctx.row[i], nil
	case *BinOp:
		return evalBinOp(ctx, t)
	case *UnOp:
		x, err := evalExpr(ctx, t.X)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "-":
			if isNull(x) {
				return null, nil
			}
			f, ok := numOf(x)
			if !ok {
				return nil, fmt.Errorf("sql: unary minus on non-number")
			}
			return jsondom.NumberFromFloat(-f), nil
		case "not":
			if isNull(x) {
				return null, nil
			}
			b, ok := x.(jsondom.Bool)
			if !ok {
				return nil, fmt.Errorf("sql: NOT on non-boolean")
			}
			return jsondom.Bool(!b), nil
		}
		return nil, fmt.Errorf("sql: unknown unary op %q", t.Op)
	case *IsNullExpr:
		x, err := evalExpr(ctx, t.X)
		if err != nil {
			return nil, err
		}
		return jsondom.Bool(isNull(x) != t.Not), nil
	case *InExpr:
		x, err := evalExpr(ctx, t.X)
		if err != nil {
			return nil, err
		}
		if isNull(x) {
			return null, nil
		}
		anyNull := false
		for _, le := range t.List {
			v, err := evalExpr(ctx, le)
			if err != nil {
				return nil, err
			}
			if isNull(v) {
				anyNull = true
				continue
			}
			if cmp, ok := compareSQL(x, v); ok && cmp == 0 {
				return jsondom.Bool(!t.Not), nil
			}
		}
		if anyNull {
			return null, nil
		}
		return jsondom.Bool(t.Not), nil
	case *LikeExpr:
		x, err := evalExpr(ctx, t.X)
		if err != nil {
			return nil, err
		}
		pat, err := evalExpr(ctx, t.Pattern)
		if err != nil {
			return nil, err
		}
		if isNull(x) || isNull(pat) {
			return null, nil
		}
		xs, ok1 := x.(jsondom.String)
		ps, ok2 := pat.(jsondom.String)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: LIKE requires strings")
		}
		m := likeMatch(string(xs), string(ps))
		return jsondom.Bool(m != t.Not), nil
	case *BetweenExpr:
		x, err := evalExpr(ctx, t.X)
		if err != nil {
			return nil, err
		}
		lo, err := evalExpr(ctx, t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := evalExpr(ctx, t.Hi)
		if err != nil {
			return nil, err
		}
		if isNull(x) || isNull(lo) || isNull(hi) {
			return null, nil
		}
		c1, ok1 := compareSQL(x, lo)
		c2, ok2 := compareSQL(x, hi)
		if !ok1 || !ok2 {
			return null, nil
		}
		in := c1 >= 0 && c2 <= 0
		return jsondom.Bool(in != t.Not), nil
	case *FuncCall:
		if i, ok := ctx.aggCols[t]; ok {
			return ctx.row[i], nil
		}
		if aggregateFuncs[t.Name] {
			return nil, fmt.Errorf("sql: aggregate %s used outside aggregation context", t.Name)
		}
		return evalScalarFunc(ctx, t)
	case *WindowFunc:
		if i, ok := ctx.winCols[t]; ok {
			return ctx.row[i], nil
		}
		return nil, fmt.Errorf("sql: window function %s outside window context", t.Name)
	case *JSONValueExpr:
		doc, err := evalDoc(ctx, t.Arg)
		if err != nil || doc == nil {
			return null, err
		}
		return doc.Value(t.Compiled, t.Returning)
	case *JSONExistsExpr:
		doc, err := evalDoc(ctx, t.Arg)
		if err != nil || doc == nil {
			return jsondom.Bool(false), err
		}
		ok, err := doc.Exists(t.Compiled)
		if err != nil {
			return nil, err
		}
		return jsondom.Bool(ok), nil
	case *JSONQueryExpr:
		doc, err := evalDoc(ctx, t.Arg)
		if err != nil || doc == nil {
			return null, err
		}
		return doc.Query(t.Compiled)
	case *JSONTextContainsExpr:
		doc, err := evalDoc(ctx, t.Arg)
		if err != nil || doc == nil {
			return jsondom.Bool(false), err
		}
		ok, err := doc.TextContains(t.Compiled, t.Keyword)
		if err != nil {
			return nil, err
		}
		return jsondom.Bool(ok), nil
	case *OSONExpr:
		v, err := evalExpr(ctx, t.Arg)
		if err != nil {
			return nil, err
		}
		if isNull(v) {
			return null, nil
		}
		s, ok := v.(jsondom.String)
		if !ok {
			return nil, fmt.Errorf("sql: OSON() requires a JSON text argument")
		}
		b, err := oson.FromJSONText([]byte(s))
		if err != nil {
			return nil, err
		}
		return jsondom.Binary(b), nil
	}
	return nil, fmt.Errorf("sql: cannot evaluate %T", e)
}

// jsonDoc is what the SQL/JSON operators read: the context's reader
// bound to an OSON datum, or a one-shot sqljson.Document.
type jsonDoc interface {
	Value(c *pathengine.Compiled, rt sqljson.ReturnType) (jsondom.Value, error)
	Exists(c *pathengine.Compiled) (bool, error)
	Query(c *pathengine.Compiled) (jsondom.Value, error)
	TextContains(c *pathengine.Compiled, keyword string) (bool, error)
}

// evalDoc evaluates an expression to a JSON document; a NULL argument
// yields a nil document (operators return NULL/false). The document is
// valid until the context's next evalDoc.
func evalDoc(ctx *evalCtx, e Expr) (jsonDoc, error) {
	v, err := evalExpr(ctx, e)
	if err != nil || isNull(v) {
		return nil, err
	}
	if ctx.ownsReader && sqljson.IsOSON(v) {
		if ctx.jr == nil {
			ctx.jr = new(sqljson.Reader)
		}
		return ctx.jr, ctx.jr.Bind(v)
	}
	return sqljson.FromDatum(v)
}

func evalBinOp(ctx *evalCtx, t *BinOp) (jsondom.Value, error) {
	switch t.Op {
	case "and", "or":
		l, err := evalExpr(ctx, t.L)
		if err != nil {
			return nil, err
		}
		// three-valued logic with short circuit
		if t.Op == "and" {
			if lb, ok := l.(jsondom.Bool); ok && !bool(lb) {
				return jsondom.Bool(false), nil
			}
		} else {
			if lb, ok := l.(jsondom.Bool); ok && bool(lb) {
				return jsondom.Bool(true), nil
			}
		}
		r, err := evalExpr(ctx, t.R)
		if err != nil {
			return nil, err
		}
		lb, lok := l.(jsondom.Bool)
		rb, rok := r.(jsondom.Bool)
		if t.Op == "and" {
			switch {
			case rok && !bool(rb):
				return jsondom.Bool(false), nil
			case lok && rok:
				return jsondom.Bool(bool(lb) && bool(rb)), nil
			default:
				return null, nil
			}
		}
		switch {
		case rok && bool(rb):
			return jsondom.Bool(true), nil
		case lok && rok:
			return jsondom.Bool(bool(lb) || bool(rb)), nil
		default:
			return null, nil
		}
	}

	l, err := evalExpr(ctx, t.L)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(ctx, t.R)
	if err != nil {
		return nil, err
	}
	switch t.Op {
	case "||":
		// Oracle semantics: NULL concatenates as the empty string
		return jsondom.String(concatStr(l) + concatStr(r)), nil
	case "+", "-", "*", "/":
		if isNull(l) || isNull(r) {
			return null, nil
		}
		lf, ok1 := numOf(l)
		rf, ok2 := numOf(r)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: arithmetic on non-numbers (%v %s %v)", l, t.Op, r)
		}
		var out float64
		switch t.Op {
		case "+":
			out = lf + rf
		case "-":
			out = lf - rf
		case "*":
			out = lf * rf
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			out = lf / rf
		}
		return jsondom.NumberFromFloat(out), nil
	case "=", "!=", "<", "<=", ">", ">=":
		if isNull(l) || isNull(r) {
			return null, nil
		}
		cmp, ok := compareSQL(l, r)
		if !ok {
			return null, nil
		}
		var b bool
		switch t.Op {
		case "=":
			b = cmp == 0
		case "!=":
			b = cmp != 0
		case "<":
			b = cmp < 0
		case "<=":
			b = cmp <= 0
		case ">":
			b = cmp > 0
		case ">=":
			b = cmp >= 0
		}
		return jsondom.Bool(b), nil
	}
	return nil, fmt.Errorf("sql: unknown operator %q", t.Op)
}

// compareSQL orders two SQL scalars with mild coercion: numbers
// compare numerically, strings lexically; a number and a numeric
// string compare numerically (Oracle-style implicit conversion).
func compareSQL(a, b jsondom.Value) (int, bool) {
	if cmp, ok := jsondom.CompareScalar(a, b); ok {
		return cmp, true
	}
	// implicit string<->number conversion
	an, aIsNum := numOf(a)
	bn, bIsNum := numOf(b)
	if aIsNum && bIsNum {
		switch {
		case an < bn:
			return -1, true
		case an > bn:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func numOf(v jsondom.Value) (float64, bool) {
	switch t := v.(type) {
	case jsondom.Number:
		return t.Float64(), true
	case jsondom.Double:
		return float64(t), true
	case jsondom.String:
		if n, err := jsondom.N(string(t)); err == nil {
			return n.Float64(), true
		}
	case jsondom.Bool:
		if t {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func concatStr(v jsondom.Value) string {
	switch t := v.(type) {
	case jsondom.Null:
		return ""
	case jsondom.String:
		return string(t)
	default:
		return jsontext.SerializeString(t)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// byte) wildcards.
func likeMatch(s, pat string) bool {
	// iterative two-pointer matcher with backtracking on %
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// evalScalarFunc dispatches non-aggregate function calls.
func evalScalarFunc(ctx *evalCtx, t *FuncCall) (jsondom.Value, error) {
	args := make([]jsondom.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := evalExpr(ctx, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s expects %d arguments, got %d", t.Name, n, len(args))
		}
		return nil
	}
	switch t.Name {
	case "substr":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sql: substr expects 2 or 3 arguments")
		}
		if isNull(args[0]) || isNull(args[1]) {
			return null, nil
		}
		s := concatStr(args[0])
		start, ok := numOf(args[1])
		if !ok {
			return nil, fmt.Errorf("sql: substr position must be a number")
		}
		pos := int(start)
		// Oracle: 1-based; 0 behaves as 1; negative counts from the end
		switch {
		case pos > 0:
			pos--
		case pos == 0:
			pos = 0
		default:
			pos = len(s) + pos
		}
		if pos < 0 || pos >= len(s) {
			return null, nil
		}
		end := len(s)
		if len(args) == 3 {
			if isNull(args[2]) {
				return null, nil
			}
			n, ok := numOf(args[2])
			if !ok || n < 0 {
				return null, nil
			}
			if pos+int(n) < end {
				end = pos + int(n)
			}
		}
		return jsondom.String(s[pos:end]), nil
	case "instr":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("sql: instr expects 2 or 3 arguments")
		}
		if isNull(args[0]) || isNull(args[1]) {
			return null, nil
		}
		s, sub := concatStr(args[0]), concatStr(args[1])
		from := 1
		if len(args) == 3 {
			f, _ := numOf(args[2])
			from = int(f)
			if from < 1 {
				from = 1
			}
		}
		if from > len(s) {
			return jsondom.Number("0"), nil
		}
		idx := strings.Index(s[from-1:], sub)
		if idx < 0 {
			return jsondom.Number("0"), nil
		}
		return jsondom.NumberFromInt(int64(from + idx)), nil
	case "upper":
		if err := arity(1); err != nil {
			return nil, err
		}
		if isNull(args[0]) {
			return null, nil
		}
		return jsondom.String(strings.ToUpper(concatStr(args[0]))), nil
	case "lower":
		if err := arity(1); err != nil {
			return nil, err
		}
		if isNull(args[0]) {
			return null, nil
		}
		return jsondom.String(strings.ToLower(concatStr(args[0]))), nil
	case "length":
		if err := arity(1); err != nil {
			return nil, err
		}
		if isNull(args[0]) {
			return null, nil
		}
		return jsondom.NumberFromInt(int64(len(concatStr(args[0])))), nil
	case "abs":
		if err := arity(1); err != nil {
			return nil, err
		}
		if isNull(args[0]) {
			return null, nil
		}
		f, ok := numOf(args[0])
		if !ok {
			return nil, fmt.Errorf("sql: abs on non-number")
		}
		return jsondom.NumberFromFloat(math.Abs(f)), nil
	case "round", "trunc":
		if len(args) != 1 && len(args) != 2 {
			return nil, fmt.Errorf("sql: %s expects 1 or 2 arguments", t.Name)
		}
		if isNull(args[0]) {
			return null, nil
		}
		f, ok := numOf(args[0])
		if !ok {
			return nil, fmt.Errorf("sql: %s on non-number", t.Name)
		}
		digits := 0.0
		if len(args) == 2 {
			digits, _ = numOf(args[1])
		}
		scale := math.Pow(10, digits)
		if t.Name == "round" {
			return jsondom.NumberFromFloat(math.Round(f*scale) / scale), nil
		}
		return jsondom.NumberFromFloat(math.Trunc(f*scale) / scale), nil
	case "floor":
		if err := arity(1); err != nil {
			return nil, err
		}
		f, _ := numOf(args[0])
		return jsondom.NumberFromFloat(math.Floor(f)), nil
	case "ceil":
		if err := arity(1); err != nil {
			return nil, err
		}
		f, _ := numOf(args[0])
		return jsondom.NumberFromFloat(math.Ceil(f)), nil
	case "mod":
		if err := arity(2); err != nil {
			return nil, err
		}
		if isNull(args[0]) || isNull(args[1]) {
			return null, nil
		}
		a, _ := numOf(args[0])
		b, _ := numOf(args[1])
		if b == 0 {
			return args[0], nil // Oracle MOD(x, 0) = x
		}
		return jsondom.NumberFromFloat(math.Mod(a, b)), nil
	case "nvl", "coalesce":
		if len(args) < 2 {
			return nil, fmt.Errorf("sql: %s expects at least 2 arguments", t.Name)
		}
		for _, a := range args {
			if !isNull(a) {
				return a, nil
			}
		}
		return null, nil
	case "to_number":
		if err := arity(1); err != nil {
			return nil, err
		}
		if isNull(args[0]) {
			return null, nil
		}
		f, ok := numOf(args[0])
		if !ok {
			return nil, fmt.Errorf("sql: to_number conversion failed")
		}
		return jsondom.NumberFromFloat(f), nil
	case "to_char":
		if err := arity(1); err != nil {
			return nil, err
		}
		if isNull(args[0]) {
			return null, nil
		}
		return jsondom.String(concatStr(args[0])), nil
	}
	return nil, fmt.Errorf("sql: unknown function %q", t.Name)
}
