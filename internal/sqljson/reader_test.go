package sqljson

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
)

// countingTree counts the nodes an evaluation materializes.
type countingTree struct {
	*pathengine.OsonTree
	decodes int
}

func (c *countingTree) Materialize(n oson.NodeAddr) (jsondom.Value, error) {
	c.decodes++
	return c.OsonTree.Materialize(n)
}

// bigArray is {"arr":["s0", …, "s999"]} as OSON.
func bigArray(t *testing.T) jsondom.Binary {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"arr":[`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"s%d"`, i)
	}
	sb.WriteString(`]}`)
	b, err := oson.FromJSONText([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return jsondom.Binary(b)
}

// TestEvalDecodesOnlyWhatItReturns: a limit bounds the nodes decoded,
// not only the values returned.
func TestEvalDecodesOnlyWhatItReturns(t *testing.T) {
	doc, err := oson.Parse(bigArray(t))
	if err != nil {
		t.Fatal(err)
	}
	c := pathengine.MustCompile(`$.arr[*]`)
	for _, limit := range []int{1, 2, 0} {
		ct := &countingTree{OsonTree: pathengine.NewOsonTree(doc)}
		var st pathengine.EvalState[oson.NodeAddr]
		vals, err := decodeMatches[oson.NodeAddr](&st, ct, doc.Root(), c, limit)
		if err != nil {
			t.Fatal(err)
		}
		want := limit
		if limit == 0 {
			want = 1000
		}
		if len(vals) != want || ct.decodes != want {
			t.Errorf("limit %d: %d values, %d decodes; want %d of each", limit, len(vals), ct.decodes, want)
		}
	}
	// the public path: JSON_VALUE over 1,000 matches is NULL and
	// decodes none of them (each decoded string would box once; what
	// remains is the one-shot tree and the arena's growth to 1,000 nodes)
	d, err := FromDatum(bigArray(t))
	if err != nil {
		t.Fatal(err)
	}
	var v jsondom.Value
	allocs := testing.AllocsPerRun(10, func() {
		v, err = d.Value(c, RetAny)
	})
	if err != nil || v.Kind() != jsondom.KindNull {
		t.Fatalf("json_value = %v, %v; want NULL", v, err)
	}
	if allocs > 50 {
		t.Errorf("json_value over 1,000 matches: %v allocs/op", allocs)
	}
	if vals, err := d.Eval(c, 2); err != nil || len(vals) != 2 || vals[1] != jsondom.Value(jsondom.String("s1")) {
		t.Fatalf("Eval limit 2 = %v, %v", vals, err)
	}
}

// TestReaderMatchesDocument: a reader rebound across documents answers
// every operator exactly as a one-shot Document over each one, and
// what it returned for one document survives the next bind.
func TestReaderMatchesDocument(t *testing.T) {
	texts := []string{
		poText,
		`{"purchaseOrder":{"id":7,"items":[{"name":"x y","price":1}],"foreign_id":null}}`,
		`{"purchaseOrder":[1,2,{"id":"9"}]}`,
		`[]`,
	}
	paths := []string{`$.purchaseOrder.id`, `$.purchaseOrder.items[*].name`, `$.purchaseOrder.items`,
		`$.purchaseOrder.items[*]?(@.price > 50).name`, `$.purchaseOrder.foreign_id`, `$..partName`, `$`}
	var r Reader
	var kept []jsondom.Value
	var want []string
	for _, text := range texts {
		b, err := oson.FromJSONText([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		if !IsOSON(jsondom.Binary(b)) {
			t.Fatal("IsOSON = false for OSON bytes")
		}
		if err := r.Bind(jsondom.Binary(b)); err != nil {
			t.Fatal(err)
		}
		d, err := FromDatum(jsondom.String(text))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			c := pathengine.MustCompile(p)
			got, w := answers(t, &r, c), answers(t, d, c)
			for i := range got {
				if !jsondom.Equal(asDOM(t, got[i]), asDOM(t, w[i])) {
					t.Errorf("%s over %.40s: reader %v, text document %v", p, text, got, w)
				}
			}
			kept = append(kept, got...)
			want = append(want, fmt.Sprint(got))
		}
	}
	for i := range want {
		if got := fmt.Sprint(kept[4*i : 4*i+4]); got != want[i] {
			t.Fatalf("value %d changed after the reader rebound: %s, was %s", i, got, want[i])
		}
	}
}

// asDOM parses JSON_QUERY's text answer, whose member order follows
// the encoding.
func asDOM(t *testing.T, v jsondom.Value) jsondom.Value {
	t.Helper()
	s, ok := v.(jsondom.String)
	if !ok || !strings.ContainsAny(string(s), "[{") {
		return v
	}
	dom, err := jsontext.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// operand is the four scalar operators, which Reader and Document share.
type operand interface {
	Value(c *pathengine.Compiled, rt ReturnType) (jsondom.Value, error)
	Exists(c *pathengine.Compiled) (bool, error)
	Query(c *pathengine.Compiled) (jsondom.Value, error)
	TextContains(c *pathengine.Compiled, keyword string) (bool, error)
}

// answers runs the four scalar operators over one document.
func answers(t *testing.T, d operand, c *pathengine.Compiled) []jsondom.Value {
	t.Helper()
	v, err1 := d.Value(c, RetVarchar)
	ok, err2 := d.Exists(c)
	q, err3 := d.Query(c)
	tc, err4 := d.TextContains(c, "Y")
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		t.Fatal(err)
	}
	return []jsondom.Value{v, jsondom.Bool(ok), q, jsondom.Bool(tc)}
}

// TestReaderStickyErrorDoesNotCarryOver: a document whose tree is
// corrupt fails its operators; the next bind starts clean.
func TestReaderStickyErrorDoesNotCarryOver(t *testing.T) {
	good, err := oson.FromJSONText([]byte(poText))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	for i := binary.LittleEndian.Uint32(bad[9:]); i < binary.LittleEndian.Uint32(bad[13:]); i++ {
		bad[i] = 0xff
	}
	c := pathengine.MustCompile(`$.purchaseOrder.id`)
	var r Reader
	for round := 0; round < 2; round++ {
		if err := r.Bind(jsondom.Binary(bad)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Value(c, RetNumber); !errors.Is(err, oson.ErrCorrupt) {
			t.Fatalf("corrupt tree: Value err = %v", err)
		}
		if _, err := r.Exists(c); !errors.Is(err, oson.ErrCorrupt) {
			t.Fatalf("corrupt tree: Exists err = %v", err)
		}
		if err := r.Bind(jsondom.Binary(good)); err != nil {
			t.Fatal(err)
		}
		if v, err := r.Value(c, RetNumber); err != nil || !jsondom.Equal(v, jsondom.Number("1")) {
			t.Fatalf("after the corrupt document: %v, %v", v, err)
		}
		if err := r.Bind(jsondom.Binary(good[:10])); !errors.Is(err, oson.ErrCorrupt) {
			t.Fatalf("truncated header: Bind err = %v", err)
		}
	}
	if err := r.Bind(jsondom.String(`{}`)); !errors.Is(err, ErrNotJSON) {
		t.Fatalf("Bind(text) err = %v", err)
	}
	if IsOSON(jsondom.String(poText)) || IsOSON(jsondom.Binary(`{}`)) {
		t.Fatal("IsOSON accepted a non-OSON datum")
	}
}
