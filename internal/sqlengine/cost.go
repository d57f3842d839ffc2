// Cost-based planning (docs/OPTIMIZER.md). The planner asks a small
// statistics provider chain for per-column/per-path estimates — the
// populated IMC vector statistics first, then the DataGuide entries a
// search index maintains (frequency, non-null counts, min/max, and the
// HyperLogLog NDV sketch) — and turns them into selectivities used to
// (a) order AND-conjuncts most-selective-first, (b) arbitrate
// index-postings vs vectorized-scan access paths, and (c) pick the
// hash-join build side. Every decision is order-preserving: a plan
// chosen by the cost model returns bit-for-bit the rows (and row
// order) of the plan written order would give, which the corpus
// digests (frozen from a reference without it) pin. All estimates land
// on the operators as est-rows so EXPLAIN can show estimate vs actual
// side by side.

package sqlengine

import (
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/dataguide"
	"repro/internal/jsondom"
)

// Default selectivities, used when no statistic resolves for a
// predicate column — the classic textbook constants.
const (
	selDefault      = 1.0 / 3 // unrecognized predicate shapes
	selEqDefault    = 0.1     // equality without an NDV
	selRangeDefault = 0.3     // range comparison without min/max
	selLikeDefault  = 0.25    // LIKE patterns (never estimated)

	// costIndexMaxSel is the access-path crossover: when the postings
	// of an index-driven scan are estimated to cover more than this
	// fraction of the table and a vectorized scan is available, the
	// planner prefers the vectorized scan (wide postings lose the
	// point of the sparse row-id list).
	costIndexMaxSel = 0.25
)

// planEstimate carries the planner's cardinality estimate for one
// operator; it is embedded in every operator so EXPLAIN can render
// est-rows next to the measured rows. Estimates are written at plan
// time only — instantiated clones copy them read-only.
type planEstimate struct {
	est      int64
	estValid bool
}

func (p *planEstimate) setEstRows(n int64)     { p.est, p.estValid = n, true }
func (p *planEstimate) estRows() (int64, bool) { return p.est, p.estValid }

// estNode is satisfied by every operator through the embedded
// planEstimate.
type estNode interface {
	setEstRows(int64)
	estRows() (int64, bool)
}

// costCtx resolves statistics for one SELECT being planned: the FROM
// aliases mapped to base tables, against which column references and
// JSON_VALUE paths in predicates are looked up.
type costCtx struct {
	e *Engine
	// aliases maps lowercased FROM alias -> lowercased base table name
	// (base tables only; views and subqueries carry no statistics).
	aliases map[string]string
}

// newCostCtx indexes the statement's FROM aliases for stats lookup.
func (e *Engine) newCostCtx(stmt *SelectStmt) *costCtx {
	cc := &costCtx{e: e, aliases: make(map[string]string)}
	var walk func(f FromItem)
	walk = func(f FromItem) {
		switch t := f.(type) {
		case *TableRef:
			name := strings.ToLower(t.Name)
			if _, ok := e.cat.Table(name); !ok {
				return
			}
			alias := strings.ToLower(t.Alias)
			if alias == "" {
				alias = name
			}
			cc.aliases[alias] = name
		case *JoinRef:
			walk(t.Left)
			walk(t.Right)
		}
	}
	for _, f := range stmt.From {
		walk(f)
	}
	return cc
}

// tableFor resolves a column qualifier to a base table. An unqualified
// reference resolves only when the statement reads exactly one base
// table; with several, estimation abstains rather than guess (map
// iteration order would make the estimate nondeterministic).
func (cc *costCtx) tableFor(alias string) (string, bool) {
	if alias != "" {
		t, ok := cc.aliases[strings.ToLower(alias)]
		return t, ok
	}
	if len(cc.aliases) == 1 {
		for _, t := range cc.aliases {
			return t, true
		}
	}
	return "", false
}

// colEstimate is the resolved statistics bundle for one predicate
// column, in the unit the statistics were collected in (rows for
// vector stats, documents for DataGuide stats).
type colEstimate struct {
	rows    float64
	nonNull float64
	ndv     float64
	hasNum  bool
	minN    float64
	maxN    float64
}

// columnEstimate resolves the statistics for the column side of a
// predicate: a plain/virtual column reference, or a JSON_VALUE over a
// document column whose path the DataGuide has observed.
func (cc *costCtx) columnEstimate(x Expr) (colEstimate, bool) {
	switch t := x.(type) {
	case *ColRef:
		table, ok := cc.tableFor(t.Table)
		if !ok {
			return colEstimate{}, false
		}
		return cc.resolveColumn(table, strings.ToLower(t.Name))
	case *JSONValueExpr:
		if cr, ok := t.Arg.(*ColRef); ok {
			if table, ok := cc.tableFor(cr.Table); ok {
				return cc.resolvePath(table, t.PathText)
			}
		}
	}
	return colEstimate{}, false
}

// resolveColumn walks the provider chain for a named column: populated
// IMC vector statistics first, then — for a virtual column defined as
// JSON_VALUE — the DataGuide entry of its path.
func (cc *costCtx) resolveColumn(table, col string) (colEstimate, bool) {
	if bfs, ok := cc.e.imcSource(table).(BatchFilterSource); ok {
		// population-time statistics: a dictionary-encoded string vector
		// carries an exact NDV, which the DataGuide's sketch does not
		if vec, ok := bfs.Vector(col); ok && vec.Len() > 0 {
			st := vec.Stats()
			ce := colEstimate{
				rows:    float64(st.Rows),
				nonNull: float64(st.Rows - st.Nulls),
				ndv:     float64(st.NDV),
			}
			if st.IsNumber && st.NDV > 0 {
				ce.hasNum, ce.minN, ce.maxN = true, st.MinNum, st.MaxNum
			}
			return ce, true
		}
	}
	tab, ok := cc.e.cat.Table(table)
	if !ok {
		return colEstimate{}, false
	}
	c, ok := tab.Column(col)
	if ok && c.Virtual && c.ExprText != "" {
		if _, path, ok := parseVCExprText(c.ExprText); ok {
			return cc.resolvePath(table, path)
		}
	}
	return colEstimate{}, false
}

// parseVCExprText recovers (document column, path) from the ExprText a
// virtual column was registered under (the exprKey format
// "json_value(col,path,returning)").
func parseVCExprText(s string) (docCol, path string, ok bool) {
	const pfx = "json_value("
	if !strings.HasPrefix(s, pfx) || !strings.HasSuffix(s, ")") {
		return "", "", false
	}
	body := s[len(pfx) : len(s)-1]
	i := strings.Index(body, ",")
	j := strings.LastIndex(body, ",")
	if i < 0 || j <= i {
		return "", "", false
	}
	return body[:i], body[i+1 : j], true
}

// isPlainPath reports whether a SQL/JSON path is a bare dotted field
// chain ("$.a.b"), the only shape whose DataGuide rendering is
// guaranteed to match the path text verbatim.
func isPlainPath(p string) bool {
	if !strings.HasPrefix(p, "$.") || len(p) == 2 {
		return false
	}
	for _, r := range p[2:] {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// resolvePath looks a scalar path up in the DataGuide of any
// guide-maintaining search index on the table. The non-null count is
// capped at the path frequency so multi-occurrence (array) paths do
// not inflate per-document selectivity.
func (cc *costCtx) resolvePath(table, path string) (colEstimate, bool) {
	if !isPlainPath(path) {
		return colEstimate{}, false
	}
	for _, ix := range cc.e.indexesFor(table) {
		if !ix.DataGuideEnabled() {
			continue
		}
		docs := ix.DocCount()
		if docs == 0 {
			continue
		}
		ent, ok := ix.Guide().Lookup(path, dataguide.CatScalar)
		if !ok {
			continue
		}
		nonNull := float64(ent.NonNull())
		if f := float64(ent.Frequency); nonNull > f {
			nonNull = f
		}
		ce := colEstimate{rows: float64(docs), nonNull: nonNull, ndv: float64(ent.NDV())}
		if mn, ok := ent.Min.(jsondom.Number); ok {
			if mx, ok := ent.Max.(jsondom.Number); ok {
				ce.hasNum, ce.minN, ce.maxN = true, mn.Float64(), mx.Float64()
			}
		}
		return ce, true
	}
	return colEstimate{}, false
}

// existsSel estimates the fraction of documents containing a plain
// path: DataGuide frequency over document count, across the entry
// categories (a path may appear as scalar in some documents and as a
// container in others).
func (cc *costCtx) existsSel(t *JSONExistsExpr) (float64, bool) {
	cr, ok := t.Arg.(*ColRef)
	if !ok || !isPlainPath(t.PathText) {
		return 0, false
	}
	table, ok := cc.tableFor(cr.Table)
	if !ok {
		return 0, false
	}
	for _, ix := range cc.e.indexesFor(table) {
		if !ix.DataGuideEnabled() {
			continue
		}
		docs := ix.DocCount()
		if docs == 0 {
			continue
		}
		freq := 0
		for _, cat := range []dataguide.Category{dataguide.CatScalar, dataguide.CatObject, dataguide.CatArray} {
			if ent, ok := ix.Guide().Lookup(t.PathText, cat); ok && ent.Frequency > freq {
				freq = ent.Frequency
			}
		}
		return clampSel(float64(freq) / float64(docs)), true
	}
	return 0, false
}

// clampSel bounds a selectivity to (0, 1]; the floor keeps estimated
// cardinalities nonzero so downstream ratios stay finite.
func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < 1e-6 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}

// selectivity estimates the fraction of rows a predicate keeps.
// Formulas are catalogued in docs/OPTIMIZER.md; unresolvable columns
// fall back to the textbook defaults, so the ordering degrades to the
// written order rather than failing.
func (cc *costCtx) selectivity(c Expr) float64 {
	switch t := c.(type) {
	case *BinOp:
		switch t.Op {
		case "and":
			return clampSel(cc.selectivity(t.L) * cc.selectivity(t.R))
		case "or":
			a, b := cc.selectivity(t.L), cc.selectivity(t.R)
			return clampSel(a + b - a*b)
		case "=", "!=", "<", "<=", ">", ">=":
			return cc.compareSel(t)
		}
		return selDefault
	case *BetweenExpr:
		if t.Not {
			return clampSel(1 - cc.betweenSel(t))
		}
		return cc.betweenSel(t)
	case *IsNullExpr:
		ce, ok := cc.columnEstimate(t.X)
		if !ok || ce.rows <= 0 {
			if t.Not {
				return clampSel(1 - selEqDefault)
			}
			return selEqDefault
		}
		nullFrac := clampSel((ce.rows - ce.nonNull) / ce.rows)
		if t.Not {
			return clampSel(1 - nullFrac)
		}
		return nullFrac
	case *InExpr:
		s := cc.eqSel(t.X) * float64(len(t.List))
		if t.Not {
			s = 1 - s
		}
		return clampSel(s)
	case *LikeExpr:
		if t.Not {
			return clampSel(1 - selLikeDefault)
		}
		return selLikeDefault
	case *UnOp:
		if t.Op == "not" {
			return clampSel(1 - cc.selectivity(t.X))
		}
	case *JSONExistsExpr:
		if s, ok := cc.existsSel(t); ok {
			return s
		}
		return selDefault
	case *JSONTextContainsExpr:
		return selEqDefault
	}
	return selDefault
}

// eqSel is the equality selectivity of a column expression:
// non-null-fraction / NDV, the uniform-distribution estimate.
func (cc *costCtx) eqSel(x Expr) float64 {
	ce, ok := cc.columnEstimate(x)
	if !ok || ce.rows <= 0 || ce.ndv <= 0 {
		return selEqDefault
	}
	return clampSel((ce.nonNull / ce.rows) / ce.ndv)
}

// compareSel estimates a comparison conjunct, normalizing so the
// column side is on the left.
func (cc *costCtx) compareSel(b *BinOp) float64 {
	colX, lit, op := b.L, b.R, b.Op
	if !isColumnish(colX) && isColumnish(b.R) {
		flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
		colX, lit, op = b.R, b.L, flip[op]
	}
	switch op {
	case "=":
		return cc.eqSel(colX)
	case "!=":
		return clampSel(1 - cc.eqSel(colX))
	}
	ce, ok := cc.columnEstimate(colX)
	if !ok || ce.rows <= 0 {
		return selRangeDefault
	}
	nonNullFrac := clampSel(ce.nonNull / ce.rows)
	v, ok := litNumber(lit, cc)
	if !ok || !ce.hasNum || ce.maxN <= ce.minN {
		return clampSel(selRangeDefault * nonNullFrac)
	}
	frac := (v - ce.minN) / (ce.maxN - ce.minN)
	if op == ">" || op == ">=" {
		frac = 1 - frac
	}
	return clampSel(frac * nonNullFrac)
}

// betweenSel interpolates BETWEEN bounds against the column's min/max.
func (cc *costCtx) betweenSel(t *BetweenExpr) float64 {
	ce, ok := cc.columnEstimate(t.X)
	if !ok || ce.rows <= 0 {
		return selEqDefault
	}
	nonNullFrac := clampSel(ce.nonNull / ce.rows)
	lo, okLo := litNumber(t.Lo, cc)
	hi, okHi := litNumber(t.Hi, cc)
	if !okLo || !okHi || !ce.hasNum || ce.maxN <= ce.minN {
		return clampSel(selEqDefault * nonNullFrac)
	}
	return clampSel((hi - lo) / (ce.maxN - ce.minN) * nonNullFrac)
}

// isColumnish reports whether an expression can carry column
// statistics (a column reference or a JSON_VALUE over one).
func isColumnish(x Expr) bool {
	switch t := x.(type) {
	case *ColRef:
		return true
	case *JSONValueExpr:
		_, ok := t.Arg.(*ColRef)
		return ok
	}
	return false
}

// litNumber extracts a numeric comparison operand: a number literal
// (bind parameters are unknown at plan time and return false).
func litNumber(x Expr, _ *costCtx) (float64, bool) {
	l, ok := x.(*Literal)
	if !ok {
		return 0, false
	}
	n, ok := l.Val.(jsondom.Number)
	if !ok {
		return 0, false
	}
	return n.Float64(), true
}

// orderConjuncts stable-sorts AND-conjuncts most-selective-first. AND
// commutes over the row set, and the executor's short-circuit then
// evaluates the cheapest-to-fail predicate first; ties keep the
// written order, so the sort is deterministic and order-preserving on
// the output rows.
func (cc *costCtx) orderConjuncts(conjs []Expr) ([]Expr, bool) {
	if len(conjs) < 2 {
		return conjs, false
	}
	type ranked struct {
		e   Expr
		sel float64
	}
	rs := make([]ranked, len(conjs))
	for i, c := range conjs {
		rs[i] = ranked{c, cc.selectivity(c)}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sel < rs[j].sel })
	out := make([]Expr, len(conjs))
	changed := false
	for i := range rs {
		out[i] = rs[i].e
		if out[i] != conjs[i] {
			changed = true
		}
	}
	return out, changed
}

// joinAnd folds conjuncts back into a left-deep AND tree (the shape
// splitAnd decomposes).
func joinAnd(conjs []Expr) Expr {
	var out Expr
	for _, c := range conjs {
		out = andExpr(out, c)
	}
	return out
}

// setScanEstimate stamps a table scan with base rows times the
// selectivity of the conjuncts the access path consumed (those present
// in the pre-pushdown WHERE but absent from the residual).
func (cc *costCtx) setScanEstimate(scan *tableScan, orig, residual Expr) {
	n := int64(scan.tab.NumRows())
	if scan.samplePct > 0 {
		n = int64(float64(n) * scan.samplePct / 100)
	}
	if scan.rowIDsVia == "pk" {
		// a key names at most one row, whatever the column statistics say
		scan.setEstRows(min(n, 1))
		return
	}
	resid := make(map[Expr]bool)
	for _, c := range splitAnd(residual) {
		resid[c] = true
	}
	sel := 1.0
	for _, c := range splitAnd(orig) {
		if !resid[c] {
			sel *= cc.selectivity(c)
		}
	}
	scan.setEstRows(scaleRows(n, sel))
}

// indexScanSelectivity estimates the table fraction an index-driven
// scan will read: the product of the consumed JSON_EXISTS conjunct
// frequencies. ok is false when any consumed conjunct lacks DataGuide
// evidence — the planner then keeps the index scan rather than guess.
func (cc *costCtx) indexScanSelectivity(orig, residual Expr) (float64, bool) {
	resid := make(map[Expr]bool)
	for _, c := range splitAnd(residual) {
		resid[c] = true
	}
	sel, any := 1.0, false
	for _, c := range splitAnd(orig) {
		if resid[c] {
			continue
		}
		je, ok := c.(*JSONExistsExpr)
		if !ok {
			continue
		}
		s, ok := cc.existsSel(je)
		if !ok {
			return 0, false
		}
		sel *= s
		any = true
	}
	return sel, any
}

// scaleRows applies a selectivity to a cardinality, keeping nonzero
// inputs at one row minimum.
func scaleRows(n int64, sel float64) int64 {
	v := float64(n) * sel
	if v < 1 {
		if n > 0 {
			return 1
		}
		return 0
	}
	return int64(math.Round(v))
}

// annotateEstimates walks a finished plan bottom-up, computing and
// stamping each operator's est-rows. It abstains — leaving est-rows
// unset — where no statistic resolves.
func (cc *costCtx) annotateEstimates(s rowSource) (int64, bool) {
	switch t := s.(type) {
	case *tableScan:
		if n, ok := t.estRows(); ok {
			return n, true
		}
		n := int64(t.tab.NumRows())
		if t.samplePct > 0 {
			n = int64(float64(n) * t.samplePct / 100)
		}
		t.setEstRows(n)
		return n, true
	case *parallelScanOp:
		n, ok := cc.annotateEstimates(t.template)
		if !ok {
			return 0, false
		}
		if t.filter != nil {
			n = scaleRows(n, cc.selectivity(t.filter))
		}
		t.setEstRows(n)
		return n, true
	case *filterOp:
		n, ok := cc.annotateEstimates(t.in)
		if !ok {
			return 0, false
		}
		n = scaleRows(n, cc.selectivity(t.pred))
		t.setEstRows(n)
		return n, true
	case *projectOp:
		return passEstimate(cc, t, t.in)
	case *aliasWrap:
		return passEstimate(cc, t, t.in)
	case *windowOp:
		return passEstimate(cc, t, t.in)
	case *sortOp:
		return passEstimate(cc, t, t.in)
	case *limitOp:
		n, ok := cc.annotateEstimates(t.in)
		if !ok {
			return 0, false
		}
		if int64(t.limit) < n {
			n = int64(t.limit)
		}
		t.setEstRows(n)
		return n, true
	case *groupAggOp:
		n, ok := cc.annotateEstimates(t.in)
		if t.implicitGroup {
			t.setEstRows(1)
			return 1, true
		}
		if !ok {
			return 0, false
		}
		g := cc.groupEstimate(t.groupBy, n)
		t.setEstRows(g)
		return g, true
	case *hashJoin:
		ln, lok := cc.annotateEstimates(t.left)
		rn, rok := cc.annotateEstimates(t.right)
		if !lok || !rok {
			return 0, false
		}
		est := cc.joinEstimate(t, ln, rn)
		t.setEstRows(est)
		return est, true
	case *crossJoin:
		ln, lok := cc.annotateEstimates(t.left)
		rn, rok := cc.annotateEstimates(t.right)
		if !lok || !rok {
			return 0, false
		}
		t.setEstRows(ln * rn)
		return ln * rn, true
	case *jsonTableOp:
		if t.left == nil {
			return 0, false
		}
		// nested-array expansion is not modeled; the child estimate is
		// a lower bound
		return passEstimate(cc, t, t.left)
	}
	return 0, false
}

// passEstimate forwards the child estimate through a
// cardinality-preserving operator.
func passEstimate(cc *costCtx, node estNode, child rowSource) (int64, bool) {
	n, ok := cc.annotateEstimates(child)
	if !ok {
		return 0, false
	}
	node.setEstRows(n)
	return n, true
}

// groupEstimate bounds the group count by the product of the group-key
// NDVs when they resolve, else by the quarter-of-input default.
func (cc *costCtx) groupEstimate(keys []Expr, in int64) int64 {
	prod, resolved := 1.0, true
	for _, k := range keys {
		ce, ok := cc.columnEstimate(k)
		if !ok || ce.ndv <= 0 {
			resolved = false
			break
		}
		prod *= ce.ndv
	}
	g := in / 4
	if resolved {
		g = int64(prod)
	}
	if g > in {
		g = in
	}
	if g < 1 {
		g = 1
	}
	return g
}

// joinEstimate is the textbook equi-join estimate:
// |L|*|R| / max(NDV of any key pair), falling back to max(|L|,|R|)
// when no key NDV resolves. A left-outer join emits at least |L|.
func (cc *costCtx) joinEstimate(h *hashJoin, ln, rn int64) int64 {
	d := 0.0
	for i := range h.leftKeys {
		if ce, ok := cc.columnEstimate(h.leftKeys[i]); ok && ce.ndv > d {
			d = ce.ndv
		}
		if i < len(h.rightKeys) {
			if ce, ok := cc.columnEstimate(h.rightKeys[i]); ok && ce.ndv > d {
				d = ce.ndv
			}
		}
	}
	var est int64
	if d >= 1 {
		est = int64(float64(ln) * float64(rn) / d)
	} else {
		est = ln
		if rn > est {
			est = rn
		}
	}
	if h.leftOuter && est < ln {
		est = ln
	}
	if est < 1 && ln > 0 && rn > 0 {
		est = 1
	}
	return est
}

// planStatsFP fingerprints the sizes of the base tables a plan reads,
// bucketed by power of two: a cached plan whose underlying tables have
// doubled (or halved) since planning re-plans on next lookup, so
// the cost model's decisions track statistics drift without hooks on
// the insert path.
func planStatsFP(s rowSource) uint64 {
	h := uint64(14695981039346656037)
	fold := func(n int) {
		h ^= uint64(bits.Len64(uint64(n))) + 0x9e3779b9
		h *= 1099511628211
	}
	var walk func(rowSource)
	walk = func(s rowSource) {
		switch t := s.(type) {
		case *tableScan:
			fold(t.tab.NumRows())
		case *parallelScanOp:
			fold(t.template.tab.NumRows())
		}
		if n, ok := s.(opNode); ok {
			for _, c := range n.opChildren() {
				walk(c)
			}
		}
	}
	walk(s)
	return h
}
