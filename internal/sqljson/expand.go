// ExpandState: pooled per-operator scratch for JSON_TABLE expansion.
//
// The one-shot Expand path allocates per document: a Document wrapper,
// an OSON Doc and OsonTree, per-step node slices inside path
// evaluation, and the [][]jsondom.Value cross-product rows. An
// ExpandState owns all of that scratch and reuses it across the
// document stream an operator feeds it, so steady-state expansion
// allocates only what the caller retains (boxed scalars that aren't
// interned).
//
// Ownership rules (enforced by the fsdmvet poolcheck analyzer):
//
//   - The row slice passed to emit is state-owned scratch, overwritten
//     by the next row; consumers must copy what they keep (the
//     sqlengine operator copies into its row arena / batch vectors).
//   - Boxed values inside the row are safe to retain: OSON-backed
//     strings and numbers alias the datum buffer handed to Bind (the
//     store-owned immutable encoding), not the state's reusable Doc.
//   - An ExpandState serves one goroutine; parallel workers build their
//     own (worker clones get fresh states on first use).

package sqljson

import (
	"fmt"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/pathengine"
)

// ExpandStats counts an ExpandState's activity for metrics and EXPLAIN
// ANALYZE.
type ExpandStats struct {
	// Docs is the number of documents bound.
	Docs int64
	// Rows is the number of rows emitted.
	Rows int64
	// ParseReuse counts OSON documents parsed into the reused Doc
	// struct (arena reuse of the parse scratch).
	ParseReuse int64
	// ArenaGets and ArenaHits count path-evaluation scratch checkouts
	// and how many were served from the freelists.
	ArenaGets int64
	// ArenaHits is the freelist-hit portion of ArenaGets.
	ArenaHits int64
	// InternHits counts column values served from the per-column value
	// dictionaries (a pointer-stable box reused instead of a fresh
	// allocation).
	InternHits int64
}

// internMax bounds each column's value dictionary. Document
// collections are structurally homogeneous with low-cardinality
// categorical fields (part numbers, cost centers, statuses), so a few
// thousand entries capture them; past the cap the column is treated as
// high-cardinality and values are boxed directly.
const internMax = 4096

// colIntern is one output column's value dictionary: the boxed,
// coerced value for each distinct raw string. Keys and boxes are
// cloned on insert so an entry never pins a document buffer. The
// per-column scoping makes an entry coercion-consistent for free (a
// column's ReturnType is fixed). Only strings intern: numeric columns
// in document workloads are mostly high-cardinality (prices, totals),
// where a dictionary pays clone-and-insert per row for nothing —
// integers already intern through boxing, floats box one small value.
type colIntern struct {
	byText map[string]jsondom.Value
	hit    int
	miss   int
	dead   bool
}

// internProbation is the miss count after which a column's hit rate is
// judged: a column still missing more than it hits is high-cardinality
// and its dictionary is dropped (dead), reverting to direct boxing.
const internProbation = 256

// ExpandState is the reusable expansion scratch owned by one JSON_TABLE
// operator (one goroutine).
type ExpandState struct {
	def   *TableDef
	total int

	// rd is the OSON half: the reused Doc, tree and arena (reader.go)
	rd  Reader
	dst pathengine.EvalState[jsondom.Value]
	row []jsondom.Value

	// bound document: exactly one of bOson (in rd) / bDom is active
	bOson bool
	bDom  jsondom.Value

	// intern holds one value dictionary per flattened output column:
	// expansion's dictionary encoding. Equal raw scalars come back as
	// the same boxed jsondom.Value, so downstream operators hash and
	// compare pointer-stable dictionary references instead of paying a
	// fresh box per row.
	intern []colIntern

	docs       int64
	rows       int64
	internHits int64
}

// NewExpandState builds expansion scratch for a definition. The def
// must not change afterwards (defs are plan state, immutable once
// parsed).
func NewExpandState(def *TableDef) *ExpandState {
	total := len(def.Columns)
	for i := range def.Nested {
		total += nestedWidth(&def.Nested[i])
	}
	return &ExpandState{
		def:    def,
		total:  total,
		row:    make([]jsondom.Value, total),
		intern: make([]colIntern, total),
	}
}

// nestedWidth counts the flattened column block of one NESTED PATH
// clause without allocating (the counting twin of flattenNested).
func nestedWidth(n *NestedPath) int {
	w := len(n.Columns)
	for i := range n.Nested {
		w += nestedWidth(&n.Nested[i])
	}
	return w
}

// Width returns the flattened output width of the definition.
func (es *ExpandState) Width() int { return es.total }

// Stats snapshots the state's counters.
func (es *ExpandState) Stats() ExpandStats {
	og, oh := es.rd.st.Reuse()
	dg, dh := es.dst.Reuse()
	return ExpandStats{
		Docs:       es.docs,
		Rows:       es.rows,
		ParseReuse: es.rd.parses,
		ArenaGets:  og + dg,
		ArenaHits:  oh + dh,
		InternHits: es.internHits,
	}
}

// Bind points the state at one document datum, reusing the parse and
// navigation scratch. Strings hold JSON text, binary values hold OSON
// (by magic) or BSON, mirroring FromDatum.
func (es *ExpandState) Bind(v jsondom.Value) error {
	es.docs++
	es.bDom = nil
	es.bOson = IsOSON(v)
	if es.bOson {
		return es.rd.Bind(v)
	}
	switch t := v.(type) {
	case jsondom.String:
		dom, err := jsontext.Parse([]byte(t))
		if err != nil {
			return err
		}
		es.bDom = dom
		return nil
	case jsondom.Binary:
		dom, err := bson.Decode(t)
		if err != nil {
			return err
		}
		es.bDom = dom
		return nil
	case *jsondom.Object, *jsondom.Array:
		es.bDom = v
		return nil
	}
	return fmt.Errorf("%w: kind %v", ErrNotJSON, v.Kind())
}

// Exists reports whether the path matches the bound document
// (JSON_EXISTS semantics, used for pushed-down prefilters).
func (es *ExpandState) Exists(c *pathengine.Compiled) (bool, error) {
	if es.bOson {
		return es.rd.Exists(c)
	}
	return es.dst.Exists(pathengine.Dom, es.bDom, c), nil
}

// Expand emits the JSON_TABLE rows of the bound document. The row slice
// passed to emit is scratch owned by the state — valid only for the
// duration of the callback; consumers copy what they keep.
func (es *ExpandState) Expand(emit func(row []jsondom.Value) error) error {
	if es.bOson {
		if err := expandEmit(es, &es.rd.st, &es.rd.tree, es.rd.tree.Doc.Root(), emit); err != nil {
			return err
		}
		if err := es.rd.tree.Err(); err != nil {
			return err
		}
		return nil
	}
	return expandEmit(es, &es.dst, pathengine.Dom, es.bDom, emit)
}

// expandEmit evaluates the row pattern and expands each match through
// the column tree, emitting complete width-sized rows.
func expandEmit[N any](es *ExpandState, st *pathengine.EvalState[N], t pathengine.Tree[N], root N, emit func([]jsondom.Value) error) error {
	matches := st.Eval(t, root, es.def.RowPath)
	for _, m := range matches {
		if err := emitNode(es, st, t, m, es.def.Columns, es.def.Nested, 0, es.total, emit); err != nil {
			st.PutNodes(matches)
			return err
		}
	}
	st.PutNodes(matches)
	return nil
}

// emitNode writes one row-pattern match into the scratch row at
// [base, base+width) and emits every complete row it induces.
//
// Invariant: on entry, everything in the scratch row outside
// [base, base+width) already holds the correct values for the rows this
// node will emit (ancestor own-columns, nulled sibling blocks). Own
// column values land at base; nested sibling blocks follow. Siblings
// combine by union join — before any sibling expands, all sibling
// blocks are nulled, and each sibling re-nulls its block after
// expanding so the next one emits against nulls again. A node with no
// matched children emits one row itself (left-outer-join semantics).
func emitNode[N any](es *ExpandState, st *pathengine.EvalState[N], t pathengine.Tree[N], node N, cols []TableColumn, nested []NestedPath, base, width int, emit func([]jsondom.Value) error) error {
	row := es.row
	for i := range cols {
		v, err := columnValueState(es, st, t, node, &cols[i], base+i)
		if err != nil {
			return err
		}
		row[base+i] = v
	}
	if len(nested) == 0 {
		es.rows++
		return emit(row)
	}
	for j := base + len(cols); j < base+width; j++ {
		row[j] = jsondom.BoxedNull()
	}
	anyChild := false
	off := base + len(cols)
	for i := range nested {
		n := &nested[i]
		w := nestedWidth(n)
		matches := st.Eval(t, node, n.Path)
		if len(matches) > 0 {
			anyChild = true
			for _, m := range matches {
				if err := emitNode(es, st, t, m, n.Columns, n.Nested, off, w, emit); err != nil {
					st.PutNodes(matches)
					return err
				}
			}
			// restore the union-join invariant for later siblings
			for j := off; j < off+w; j++ {
				row[j] = jsondom.BoxedNull()
			}
		}
		st.PutNodes(matches)
		off += w
	}
	if !anyChild {
		// outer-join semantics: the parent row survives with NULL details
		es.rows++
		return emit(row)
	}
	return nil
}

// columnValueState is columnValue running over the state's scratch:
// JSON_VALUE semantics (exactly one scalar, coerced to the column type,
// NULL otherwise) with unboxed scalar access and dictionary-interned
// boxing (col is the flattened output column index).
func columnValueState[N any](es *ExpandState, st *pathengine.EvalState[N], t pathengine.Tree[N], node N, c *TableColumn, col int) (jsondom.Value, error) {
	if target, found, ok := pathengine.EvalFieldChain(t, node, c.Path); ok {
		if !found {
			return jsondom.BoxedNull(), nil
		}
		s, ok := t.ScalarRaw(target)
		if !ok {
			return jsondom.BoxedNull(), nil
		}
		return es.internScalar(col, s, c.Type), nil
	}
	res := st.Eval(t, node, c.Path)
	if len(res) != 1 {
		st.PutNodes(res)
		return jsondom.BoxedNull(), nil
	}
	s, ok := t.ScalarRaw(res[0])
	st.PutNodes(res)
	if !ok {
		return jsondom.BoxedNull(), nil
	}
	return es.internScalar(col, s, c.Type), nil
}

// internScalar coerces and boxes one column value through the column's
// value dictionary: a repeated raw scalar returns the same boxed value
// it produced the first time, so steady-state expansion of homogeneous
// collections emits dictionary references instead of fresh boxes.
// Entries clone both key and box, never aliasing a document buffer.
func (es *ExpandState) internScalar(col int, s jsondom.Scalar, rt ReturnType) jsondom.Value {
	if s.K != jsondom.KindString {
		// nulls, booleans, and small integers intern through boxing;
		// other numerics are left direct (see colIntern)
		return coerceScalar(s, rt)
	}
	ci := &es.intern[col]
	if ci.dead {
		return coerceScalar(s, rt)
	}
	if v, ok := ci.byText[s.Str]; ok {
		ci.hit++
		es.internHits++
		return v
	}
	v := coerceScalar(s, rt)
	ci.miss++
	if ci.miss >= internProbation && ci.hit < ci.miss {
		// high-cardinality column: stop paying clone-and-insert per row
		ci.dead = true
		ci.byText = nil
		return v
	}
	if len(ci.byText) < internMax {
		if ci.byText == nil {
			ci.byText = make(map[string]jsondom.Value)
		}
		key := string(append([]byte(nil), s.Str...))
		v = cloneBox(v)
		ci.byText[key] = v
	}
	return v
}

// cloneBox deep-copies the string payload of a boxed value so a
// dictionary entry owns its bytes instead of pinning the document (or
// datum) buffer the scalar aliased.
func cloneBox(v jsondom.Value) jsondom.Value {
	switch t := v.(type) {
	case jsondom.String:
		return jsondom.String(string(append([]byte(nil), t...)))
	case jsondom.Number:
		return jsondom.Number(string(append([]byte(nil), t...)))
	}
	return v
}

// coerceScalar applies Coerce to an unboxed scalar, boxing the result
// once (with interning for nulls, booleans, and small integers).
func coerceScalar(s jsondom.Scalar, rt ReturnType) jsondom.Value {
	if s.K == jsondom.KindNull {
		return jsondom.BoxedNull()
	}
	switch rt {
	case RetNumber:
		switch s.K {
		case jsondom.KindNumber:
			return s.Box()
		case jsondom.KindDouble:
			return jsondom.NumberFromFloat(s.F)
		case jsondom.KindString:
			if n, err := jsondom.N(s.Str); err == nil {
				return n
			}
			return jsondom.BoxedNull()
		case jsondom.KindBool:
			if s.B {
				return jsondom.Number("1")
			}
			return jsondom.Number("0")
		}
		return jsondom.BoxedNull()
	case RetVarchar:
		if s.K == jsondom.KindString {
			return jsondom.String(s.Str)
		}
		return jsondom.String(jsontext.SerializeString(s.Box()))
	case RetBool:
		switch s.K {
		case jsondom.KindBool:
			return jsondom.BoxedBool(s.B)
		case jsondom.KindString:
			switch {
			case equalFoldTF(s.Str, "true"):
				return jsondom.BoxedBool(true)
			case equalFoldTF(s.Str, "false"):
				return jsondom.BoxedBool(false)
			}
		}
		return jsondom.BoxedNull()
	}
	return s.Box()
}

// equalFoldTF is the ASCII case-insensitive comparison Coerce's
// strings.ToLower performed, without the lowered-copy allocation.
func equalFoldTF(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
