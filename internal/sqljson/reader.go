// Reader: one SQL/JSON operator's reusable OSON decoder.
//
// A scalar operator (JSON_VALUE, JSON_EXISTS, JSON_QUERY,
// JSON_TEXTCONTAINS) reads one document per row. Parsing an OSON
// header is O(1) (§4.2.1); what a per-call decode costs is its
// allocation: a Doc, a tree and an evaluation arena each time. A Reader
// owns that scratch and rebinds it per row — oson.ParseInto into one
// Doc, Reset on one OsonTree, one EvalState whose freelists warm up
// once — so navigating the in-memory OSON column rebuilds nothing per
// row (§5.2.2). ExpandState keeps its OSON half in a Reader, so the
// tree has one OSON bind path, and a one-shot Document over OSON runs
// the same operator code over a tree of its own.
//
// Lifetime rules (ExpandState's, which it shares):
//
//   - A bound document is valid until the next Bind.
//   - Values the operators return alias the datum buffer handed to
//     Bind (the store-owned immutable encoding), never the reused Doc,
//     so they stay valid after the reader rebinds.
//   - A Reader serves one goroutine.

package sqljson

import (
	"fmt"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// Reader is the reusable OSON decode scratch of one SQL/JSON operator
// (one goroutine). The zero value is ready to Bind.
type Reader struct {
	doc    oson.Doc
	tree   pathengine.OsonTree
	st     pathengine.EvalState[oson.NodeAddr]
	parses int64 // datums parsed into the reused doc
}

// IsOSON reports whether a datum is an OSON document a Reader can
// bind: bytes carrying the OSON magic, or a set-encoded document.
func IsOSON(v jsondom.Value) bool {
	switch t := v.(type) {
	case jsondom.Binary:
		return hasOsonMagic(t)
	case oson.SharedValue:
		return true
	}
	return false
}

func hasOsonMagic(b []byte) bool { return len(b) >= 4 && string(b[:4]) == oson.Magic }

// Bind points the reader at an OSON datum (see IsOSON), reusing its
// parse and navigation scratch and clearing the tree's sticky error.
// Any other datum is an error. After a failed Bind the reader holds no
// readable document.
func (r *Reader) Bind(v jsondom.Value) error {
	switch t := v.(type) {
	case jsondom.Binary:
		if hasOsonMagic(t) {
			if err := oson.ParseInto(&r.doc, t); err != nil {
				return err
			}
			r.parses++
			r.tree.Reset(&r.doc)
			return nil
		}
	case oson.SharedValue:
		r.tree.Reset(t.Doc)
		return nil
	}
	return fmt.Errorf("%w: %T is not an OSON document", ErrNotJSON, v)
}

// Value implements JSON_VALUE over the bound document (Document.Value
// states the semantics).
func (r *Reader) Value(c *pathengine.Compiled, rt ReturnType) (jsondom.Value, error) {
	return osonValue(&r.st, &r.tree, c, rt)
}

// Exists implements JSON_EXISTS over the bound document; it decodes
// nothing.
func (r *Reader) Exists(c *pathengine.Compiled) (bool, error) {
	return osonExists(&r.st, &r.tree, c)
}

// Query implements JSON_QUERY over the bound document.
func (r *Reader) Query(c *pathengine.Compiled) (jsondom.Value, error) {
	vals, err := osonEval(&r.st, &r.tree, c, 0)
	if err != nil {
		return nil, err
	}
	return queryResult(vals), nil
}

// TextContains implements JSON_TEXTCONTAINS over the bound document.
func (r *Reader) TextContains(c *pathengine.Compiled, keyword string) (bool, error) {
	vals, err := osonEval(&r.st, &r.tree, c, 0)
	if err != nil {
		return false, err
	}
	return anyContains(vals, keyword), nil
}

// The OSON operators run over a tree and an arena that either a Reader
// owns or a one-shot Document makes per call: one implementation, and
// the one-shot path allocates no more than a tree.

// osonValue is JSON_VALUE over one OSON tree. No match is decoded
// except the one scalar returned.
func osonValue(st *pathengine.EvalState[oson.NodeAddr], t *pathengine.OsonTree, c *pathengine.Compiled, rt ReturnType) (jsondom.Value, error) {
	root := t.Doc.Root()
	node, found, ok := pathengine.EvalFieldChain[oson.NodeAddr](t, root, c)
	if !ok {
		nodes := st.Eval(t, root, c)
		found = len(nodes) == 1
		if found {
			node = nodes[0]
		}
		st.PutNodes(nodes)
	}
	var v jsondom.Value
	isScalar := false
	if found {
		v, isScalar = t.Scalar(node)
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	if !isScalar {
		return jsondom.Null{}, nil
	}
	return Coerce(v, rt)
}

// osonExists is JSON_EXISTS over one OSON tree.
func osonExists(st *pathengine.EvalState[oson.NodeAddr], t *pathengine.OsonTree, c *pathengine.Compiled) (bool, error) {
	ok := st.Exists(t, t.Doc.Root(), c)
	if err := t.Err(); err != nil {
		return false, err
	}
	return ok, nil
}

// osonEval evaluates a path over one OSON tree and decodes at most
// limit matches (all of them when limit <= 0).
func osonEval(st *pathengine.EvalState[oson.NodeAddr], t *pathengine.OsonTree, c *pathengine.Compiled, limit int) ([]jsondom.Value, error) {
	vals, err := decodeMatches[oson.NodeAddr](st, t, t.Doc.Root(), c, limit)
	if err != nil {
		return nil, err
	}
	if err := t.Err(); err != nil {
		return nil, err
	}
	return vals, nil
}

// decodeMatches evaluates c over one tree and materializes at most
// limit of the matches (all when limit <= 0): nodes past the limit are
// never decoded.
func decodeMatches[N any](st *pathengine.EvalState[N], t pathengine.Tree[N], root N, c *pathengine.Compiled, limit int) ([]jsondom.Value, error) {
	nodes := st.Eval(t, root, c)
	n := len(nodes)
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]jsondom.Value, 0, n)
	var err error
	for _, node := range nodes[:n] {
		var v jsondom.Value
		if v, err = t.Materialize(node); err != nil {
			break
		}
		out = append(out, v)
	}
	st.PutNodes(nodes)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// queryResult is JSON_QUERY's answer for a match sequence: NULL for no
// match, the fragment's text for one, an array wrapper around several.
func queryResult(vals []jsondom.Value) jsondom.Value {
	switch len(vals) {
	case 0:
		return jsondom.Null{}
	case 1:
		return jsondom.String(jsontext.SerializeString(vals[0]))
	}
	return jsondom.String(jsontext.SerializeString(jsondom.NewArray(vals...)))
}
