// JSON_TABLE: the virtual-table row source of §3.3.2 and §5.1.
//
// JSON_TABLE turns one JSON document into a set of relational rows. A
// NESTED PATH clause un-nests an array: child hierarchies join to
// their parent with LEFT OUTER JOIN semantics (parents appear even
// with no children, child columns NULL), and sibling hierarchies
// combine with UNION JOIN semantics (a row carries values from exactly
// one sibling, the others NULL) — the De-normalized Master-Detail View
// shape (DMDV).
//
// Expansion is generic over the pathengine Tree backend, so OSON
// documents are navigated directly over their serialized bytes and
// only projected scalar leaves are decoded, while text documents pay
// one DOM parse per document — exactly the cost asymmetry §5.1
// describes.

package sqljson

import (
	"context"
	"sync"

	"repro/internal/jsondom"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// TableColumn defines one output column of JSON_TABLE.
type TableColumn struct {
	Name string
	Type ReturnType
	// Path is relative to the enclosing row pattern.
	Path *pathengine.Compiled
}

// NestedPath defines a NESTED PATH clause.
type NestedPath struct {
	Path    *pathengine.Compiled
	Columns []TableColumn
	Nested  []NestedPath
}

// TableDef is a complete JSON_TABLE definition: the root row pattern
// plus its column tree.
type TableDef struct {
	RowPath *pathengine.Compiled
	Columns []TableColumn
	Nested  []NestedPath

	// outCols caches the flattened column list. Set by Finish, which
	// must run before the def is shared across concurrent executions
	// (the parser finishes every def it builds); unfinished defs
	// recompute per call.
	outCols []TableColumn

	// pool recycles ExpandStates across executions of this definition:
	// plans are cloned per execution, but the def is shared plan state,
	// so pooling here lets the evaluation arenas, parse scratch, and
	// value dictionaries warm up once per definition instead of once
	// per query run. Checked out with AcquireState, returned with
	// ReleaseState.
	pool sync.Pool
}

// AcquireState checks an ExpandState for this definition out of the
// pool (building one on first use). The caller owns it until
// ReleaseState; a state serves one goroutine.
func (d *TableDef) AcquireState() *ExpandState {
	if v := d.pool.Get(); v != nil {
		return v.(*ExpandState)
	}
	return NewExpandState(d)
}

// ReleaseState returns a state obtained from AcquireState to the pool.
// The caller must not touch the state afterwards (clear the reference;
// the escapecheck analyzer enforces release-then-nil at call sites).
func (d *TableDef) ReleaseState(es *ExpandState) {
	if es != nil {
		d.pool.Put(es)
	}
}

// Finish precomputes the flattened output layout so per-document
// expansion never rebuilds it. Call once, before the def escapes to a
// plan; a finished def is immutable.
func (d *TableDef) Finish() {
	d.outCols = nil
	d.outCols = d.OutputColumns()
}

// OutputColumns flattens the column tree in declaration order: own
// columns first, then each nested clause depth-first, matching the
// column order of the generated view in Table 8.
func (d *TableDef) OutputColumns() []TableColumn {
	if d.outCols != nil {
		return d.outCols
	}
	var out []TableColumn
	out = append(out, d.Columns...)
	for _, n := range d.Nested {
		out = append(out, flattenNested(n)...)
	}
	return out
}

func flattenNested(n NestedPath) []TableColumn {
	var out []TableColumn
	out = append(out, n.Columns...)
	for _, c := range n.Nested {
		out = append(out, flattenNested(c)...)
	}
	return out
}

// ExpandContext is Expand with a cancellation point: the context is
// checked once per document, a natural granularity since a single
// document expands in microseconds while a scan visits millions.
func (d *TableDef) ExpandContext(ctx context.Context, doc *Document) ([][]jsondom.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.Expand(doc)
}

// Expand computes the relational rows JSON_TABLE produces for one
// document, dispatching on the document's encoding: OSON navigates its
// serialized bytes directly; text and BSON materialize a DOM first.
func (d *TableDef) Expand(doc *Document) ([][]jsondom.Value, error) {
	if doc.enc == EncOSON {
		t := pathengine.NewOsonTree(doc.od)
		rows, err := ExpandTree[oson.NodeAddr](t, doc.od.Root(), d)
		if err != nil {
			return nil, err
		}
		if t.Err() != nil {
			return nil, t.Err()
		}
		return rows, nil
	}
	dom, err := doc.DOM()
	if err != nil {
		return nil, err
	}
	return ExpandTree[jsondom.Value](pathengine.Dom, dom, d)
}

// ExpandTree expands the definition over any Tree backend.
func ExpandTree[N any](t pathengine.Tree[N], root N, d *TableDef) ([][]jsondom.Value, error) {
	matches := pathengine.Eval(t, root, d.RowPath)
	total := len(d.OutputColumns())
	var rows [][]jsondom.Value
	for _, m := range matches {
		sub, err := expandNode(t, m, d.Columns, d.Nested, total)
		if err != nil {
			return nil, err
		}
		rows = append(rows, sub...)
	}
	return rows, nil
}

// expandNode computes the rows for one row-pattern match: its own
// column values crossed with the union-join of its nested clauses.
func expandNode[N any](t pathengine.Tree[N], node N, cols []TableColumn, nested []NestedPath, width int) ([][]jsondom.Value, error) {
	own := make([]jsondom.Value, len(cols))
	for i, c := range cols {
		v, err := columnValue(t, node, c)
		if err != nil {
			return nil, err
		}
		own[i] = v
	}
	if len(nested) == 0 {
		row := make([]jsondom.Value, width)
		copy(row, own)
		for i := len(own); i < width; i++ {
			row[i] = jsondom.Null{}
		}
		return [][]jsondom.Value{row}, nil
	}

	// widths and offsets of each sibling's column block
	offsets := make([]int, len(nested))
	widths := make([]int, len(nested))
	off := len(cols)
	for i, n := range nested {
		offsets[i] = off
		widths[i] = len(flattenNested(n))
		off += widths[i]
	}

	// expand each sibling independently; siblings combine by union join
	var combined [][]jsondom.Value
	anyChild := false
	for i, n := range nested {
		matches := pathengine.Eval(t, node, n.Path)
		var childRows [][]jsondom.Value
		for _, m := range matches {
			rs, err := expandNode(t, m, n.Columns, n.Nested, widths[i])
			if err != nil {
				return nil, err
			}
			childRows = append(childRows, rs...)
		}
		if len(childRows) == 0 {
			continue // this sibling contributes nothing to the union
		}
		anyChild = true
		for _, cr := range childRows {
			row := make([]jsondom.Value, width)
			copy(row, own)
			for j := len(cols); j < width; j++ {
				row[j] = jsondom.Null{}
			}
			copy(row[offsets[i]:offsets[i]+widths[i]], cr)
			combined = append(combined, row)
		}
	}
	if !anyChild {
		// outer-join semantics: the parent row survives with NULL details
		row := make([]jsondom.Value, width)
		copy(row, own)
		for j := len(cols); j < width; j++ {
			row[j] = jsondom.Null{}
		}
		return [][]jsondom.Value{row}, nil
	}
	return combined, nil
}

// columnValue applies JSON_VALUE semantics for one column: the path
// must select exactly one scalar, which is coerced to the column type;
// anything else is NULL. Pure field-chain paths (the common DMDV
// column shape) take an allocation-free navigation fast path.
func columnValue[N any](t pathengine.Tree[N], node N, c TableColumn) (jsondom.Value, error) {
	if target, found, ok := pathengine.EvalFieldChain(t, node, c.Path); ok {
		if !found {
			return jsondom.Null{}, nil
		}
		v, ok := t.Scalar(target)
		if !ok {
			return jsondom.Null{}, nil
		}
		return Coerce(v, c.Type)
	}
	res := pathengine.Eval(t, node, c.Path)
	if len(res) != 1 {
		return jsondom.Null{}, nil
	}
	v, ok := t.Scalar(res[0])
	if !ok {
		return jsondom.Null{}, nil
	}
	return Coerce(v, c.Type)
}
