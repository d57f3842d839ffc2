// Package sqljson implements the SQL/JSON operators of [21] used
// throughout the paper: JSON_VALUE, JSON_QUERY, JSON_EXISTS,
// JSON_TEXTCONTAINS and the JSON_TABLE row source (§3.3, §5.1).
//
// Operators accept documents in any of the three storage encodings of
// §6.3 — JSON text, BSON, OSON — through the Document wrapper, which
// picks the matching evaluation strategy:
//
//   - JSON text: the streaming path engine for simple paths; DOM
//     construction otherwise (and always for JSON_TABLE, which touches
//     many paths per document);
//   - OSON: direct navigation over the serialized bytes, no
//     materialization;
//   - BSON: decoded to a DOM (its serial format has no random access),
//     matching the paper's characterization in §4.1.
package sqljson

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// Encoding identifies the physical format of a document.
type Encoding uint8

// Document encodings.
const (
	EncText Encoding = iota
	EncBSON
	EncOSON
	EncDOM // already materialized
)

// String names the encoding as used in benchmark and EXPLAIN output.
func (e Encoding) String() string {
	switch e {
	case EncText:
		return "json-text"
	case EncBSON:
		return "bson"
	case EncOSON:
		return "oson"
	case EncDOM:
		return "dom"
	}
	return "unknown"
}

// ErrNotJSON is returned when a datum cannot be interpreted as a JSON
// document.
var ErrNotJSON = errors.New("sqljson: value is not a JSON document")

// Document wraps one JSON document in any supported encoding. It is
// one-shot: an operator reading a stream of OSON datums holds a Reader
// instead (reader.go), which runs the same OSON code.
type Document struct {
	enc  Encoding
	text []byte
	od   *oson.Doc
	dom  jsondom.Value // cache for text/bson materialization
}

// FromDatum interprets a SQL value as a JSON document: strings hold
// JSON text, binary values hold OSON (by magic) or BSON.
func FromDatum(v jsondom.Value) (*Document, error) {
	switch t := v.(type) {
	case jsondom.String:
		return &Document{enc: EncText, text: []byte(t)}, nil
	case jsondom.Binary:
		if hasOsonMagic(t) {
			od, err := oson.Parse(t)
			if err != nil {
				return nil, err
			}
			return &Document{enc: EncOSON, od: od}, nil
		}
		dom, err := bson.Decode(t)
		if err != nil {
			return nil, err
		}
		return &Document{enc: EncBSON, dom: dom}, nil
	case oson.SharedValue:
		return &Document{enc: EncOSON, od: t.Doc}, nil
	case *jsondom.Object, *jsondom.Array:
		return &Document{enc: EncDOM, dom: t}, nil
	}
	return nil, fmt.Errorf("%w: kind %v", ErrNotJSON, v.Kind())
}

// FromDOM wraps a materialized tree.
func FromDOM(v jsondom.Value) *Document { return &Document{enc: EncDOM, dom: v} }

// Encoding returns the document's physical encoding.
func (d *Document) Encoding() Encoding { return d.enc }

// DOM materializes (and caches) the full document tree.
func (d *Document) DOM() (jsondom.Value, error) {
	if d.dom != nil {
		return d.dom, nil
	}
	switch d.enc {
	case EncText:
		v, err := jsontext.Parse(d.text)
		if err != nil {
			return nil, err
		}
		d.dom = v
		return v, nil
	case EncOSON:
		v, err := d.od.DecodeRoot()
		if err != nil {
			return nil, err
		}
		d.dom = v
		return v, nil
	}
	return d.dom, nil
}

// Eval evaluates a compiled path, choosing the strategy by encoding.
// limit > 0 truncates the result sequence; matches past it are not
// decoded.
func (d *Document) Eval(c *pathengine.Compiled, limit int) ([]jsondom.Value, error) {
	switch {
	case d.enc == EncOSON:
		var st pathengine.EvalState[oson.NodeAddr]
		return osonEval(&st, pathengine.NewOsonTree(d.od), c, limit)
	case d.enc == EncText && d.dom == nil:
		return pathengine.EvalText(d.text, c, limit)
	}
	dom, err := d.DOM()
	if err != nil {
		return nil, err
	}
	var st pathengine.EvalState[jsondom.Value]
	return decodeMatches[jsondom.Value](&st, pathengine.Dom, dom, c, limit)
}

// Exists implements JSON_EXISTS.
func (d *Document) Exists(c *pathengine.Compiled) (bool, error) {
	if d.enc == EncOSON {
		var st pathengine.EvalState[oson.NodeAddr]
		return osonExists(&st, pathengine.NewOsonTree(d.od), c)
	}
	vals, err := d.Eval(c, 1)
	if err != nil {
		return false, err
	}
	return len(vals) > 0, nil
}

// ReturnType is the RETURNING clause of JSON_VALUE.
type ReturnType uint8

// JSON_VALUE RETURNING types.
const (
	RetAny ReturnType = iota
	RetNumber
	RetVarchar
	RetBool
)

// Value implements JSON_VALUE: the path must select at most one scalar;
// containers and multiple matches yield SQL NULL (lax error handling,
// the Oracle default). The result is coerced to the requested type.
func (d *Document) Value(c *pathengine.Compiled, rt ReturnType) (jsondom.Value, error) {
	if d.enc == EncOSON {
		var st pathengine.EvalState[oson.NodeAddr]
		return osonValue(&st, pathengine.NewOsonTree(d.od), c, rt)
	}
	// field-chain fast path over a cached DOM
	if d.dom != nil {
		if node, found, ok := pathengine.EvalFieldChain[jsondom.Value](pathengine.Dom, d.dom, c); ok {
			if !found || !node.Kind().IsScalar() {
				return jsondom.Null{}, nil
			}
			return Coerce(node, rt)
		}
	}
	vals, err := d.Eval(c, 2)
	if err != nil {
		return nil, err
	}
	if len(vals) != 1 || !vals[0].Kind().IsScalar() {
		return jsondom.Null{}, nil
	}
	return Coerce(vals[0], rt)
}

// Coerce converts a scalar to a JSON_VALUE return type. NULL passes
// through; impossible conversions yield NULL (lax NULL ON ERROR).
func Coerce(v jsondom.Value, rt ReturnType) (jsondom.Value, error) {
	if v.Kind() == jsondom.KindNull {
		return v, nil
	}
	switch rt {
	case RetAny:
		return v, nil
	case RetNumber:
		switch t := v.(type) {
		case jsondom.Number:
			// return the incoming interface value, not t: re-boxing the
			// unboxed string re-allocates the interface header on a path
			// hit once per scanned row.
			return v, nil
		case jsondom.Double:
			return jsondom.NumberFromFloat(float64(t)), nil
		case jsondom.String:
			if n, err := jsondom.N(string(t)); err == nil {
				return n, nil
			}
			return jsondom.Null{}, nil
		case jsondom.Bool:
			if t {
				return jsondom.Number("1"), nil
			}
			return jsondom.Number("0"), nil
		}
		return jsondom.Null{}, nil
	case RetVarchar:
		switch t := v.(type) {
		case jsondom.String:
			return v, nil // avoid re-boxing; see RetNumber above
		default:
			return jsondom.String(jsontext.SerializeString(t)), nil
		}
	case RetBool:
		switch t := v.(type) {
		case jsondom.Bool:
			return t, nil
		case jsondom.String:
			switch strings.ToLower(string(t)) {
			case "true":
				return jsondom.Bool(true), nil
			case "false":
				return jsondom.Bool(false), nil
			}
		}
		return jsondom.Null{}, nil
	}
	return v, nil
}

// Query implements JSON_QUERY: it returns the matched fragment(s) as
// JSON text. Zero matches yield NULL; multiple matches are wrapped in
// an array (WITH ARRAY WRAPPER semantics).
func (d *Document) Query(c *pathengine.Compiled) (jsondom.Value, error) {
	vals, err := d.Eval(c, 0)
	if err != nil {
		return nil, err
	}
	return queryResult(vals), nil
}

// Tokenize splits a string into lower-cased alphanumeric keywords, the
// tokenization the JSON search index applies to string leaves (§3.2.1).
func Tokenize(s string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(s)
	for i := 0; i <= len(lower); i++ {
		var alnum bool
		if i < len(lower) {
			c := lower[i]
			alnum = c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c >= 0x80
		}
		if alnum {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	return out
}

// TextContains implements JSON_TEXTCONTAINS: it reports whether any
// string value under the path contains the keyword (full-text
// semantics: keyword match on tokenized words).
func (d *Document) TextContains(c *pathengine.Compiled, keyword string) (bool, error) {
	vals, err := d.Eval(c, 0)
	if err != nil {
		return false, err
	}
	return anyContains(vals, keyword), nil
}

// anyContains reports whether any value holds the keyword.
func anyContains(vals []jsondom.Value, keyword string) bool {
	kw := strings.ToLower(keyword)
	for _, v := range vals {
		if containsKeyword(v, kw) {
			return true
		}
	}
	return false
}

func containsKeyword(v jsondom.Value, kw string) bool {
	switch t := v.(type) {
	case jsondom.String:
		for _, tok := range Tokenize(string(t)) {
			if tok == kw {
				return true
			}
		}
	case *jsondom.Object:
		for _, f := range t.Fields() {
			if containsKeyword(f.Value, kw) {
				return true
			}
		}
	case *jsondom.Array:
		for _, e := range t.Elems {
			if containsKeyword(e, kw) {
				return true
			}
		}
	}
	return false
}
