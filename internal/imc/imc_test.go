package imc

import (
	"testing"

	"repro/internal/jsondom"
	"repro/internal/oson"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
	"repro/internal/store"
)

func jsonTable(t *testing.T) *store.Table {
	t.Helper()
	tab := store.MustNewTable("t",
		store.Column{Name: "id", Type: store.TypeNumber},
		store.Column{Name: "jdoc", Type: store.TypeVarchar, CheckJSON: true},
	)
	docs := []string{
		`{"num":1,"str1":"alpha"}`,
		`{"num":2,"str1":"beta"}`,
		`{"num":3,"str1":"gamma"}`,
	}
	for i, d := range docs {
		if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), jsondom.String(d)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func TestPopulateOSON(t *testing.T) {
	tab := jsonTable(t)
	s := NewStore(tab)
	if err := s.PopulateOSON("jdoc"); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Substitute(1, "jdoc")
	if !ok {
		t.Fatal("no substitution")
	}
	b := v.(jsondom.Binary)
	if string(b[:4]) != oson.Magic {
		t.Fatal("not OSON bytes")
	}
	doc, err := sqljson.FromDatum(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := doc.Value(pathengine.MustCompile("$.num"), sqljson.RetNumber)
	if err != nil || got.(jsondom.Number) != "2" {
		t.Fatalf("num = %v, %v", got, err)
	}
	// other columns are not substituted
	if _, ok := s.Substitute(1, "id"); ok {
		t.Fatal("id should not substitute")
	}
	if _, ok := s.Substitute(99, "jdoc"); ok {
		t.Fatal("out-of-range row")
	}
	if s.MemoryBytes() == 0 {
		t.Fatal("memory accounting")
	}
}

func TestPopulateOSONErrors(t *testing.T) {
	tab := jsonTable(t)
	s := NewStore(tab)
	if err := s.PopulateOSON("nope"); err == nil {
		t.Fatal("missing column should fail")
	}
	// NULL documents are skipped, not errors
	tab2 := store.MustNewTable("t2", store.Column{Name: "j", Type: store.TypeVarchar})
	tab2.Insert(store.Row{jsondom.Null{}}) //nolint:errcheck
	s2 := NewStore(tab2)
	if err := s2.PopulateOSON("j"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Substitute(0, "j"); ok {
		t.Fatal("NULL row should not substitute")
	}
	// malformed text fails population
	tab3 := store.MustNewTable("t3", store.Column{Name: "j", Type: store.TypeVarchar})
	tab3.Insert(store.Row{jsondom.String("{bad")}) //nolint:errcheck
	s3 := NewStore(tab3)
	if err := s3.PopulateOSON("j"); err == nil {
		t.Fatal("bad JSON should fail population")
	}
}

func TestPopulateVC(t *testing.T) {
	tab := jsonTable(t)
	numPath := pathengine.MustCompile("$.num")
	strPath := pathengine.MustCompile("$.str1")
	addVC := func(name string, p *pathengine.Compiled, rt sqljson.ReturnType) {
		err := tab.AddVirtualColumn(store.Column{
			Name: name, Virtual: true,
			Expr: func(row store.Row) (jsondom.Value, error) {
				doc, err := sqljson.FromDatum(row[1])
				if err != nil {
					return nil, err
				}
				return doc.Value(p, rt)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	addVC("vnum", numPath, sqljson.RetNumber)
	addVC("vstr", strPath, sqljson.RetVarchar)

	s := NewStore(tab)
	if err := s.PopulateVC("vnum"); err != nil {
		t.Fatal(err)
	}
	if err := s.PopulateVC("vstr"); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Substitute(2, "vnum")
	if !ok || v.(jsondom.Number) != "3" {
		t.Fatalf("vnum = %v, %v", v, ok)
	}
	v, ok = s.Substitute(0, "vstr")
	if !ok || v.(jsondom.String) != "alpha" {
		t.Fatalf("vstr = %v, %v", v, ok)
	}
	vec, ok := s.Vector("vnum")
	if !ok || !vec.IsNumber || vec.Len() != 3 {
		t.Fatalf("vector = %+v", vec)
	}
	if vec.MemoryBytes() == 0 {
		t.Fatal("vector memory")
	}
	// missing/stored column errors
	if err := s.PopulateVC("id"); err == nil {
		t.Fatal("stored column should fail")
	}
	if err := s.PopulateVC("zzz"); err == nil {
		t.Fatal("missing column should fail")
	}
}

func TestVCNullsAndTypeDrift(t *testing.T) {
	tab := store.MustNewTable("t", store.Column{Name: "j", Type: store.TypeVarchar})
	for _, d := range []string{`{"v":1}`, `{}`, `{"v":"oops"}`} {
		tab.Insert(store.Row{jsondom.String(d)}) //nolint:errcheck
	}
	p := pathengine.MustCompile("$.v")
	tab.AddVirtualColumn(store.Column{ //nolint:errcheck
		Name: "vv", Virtual: true,
		Expr: func(row store.Row) (jsondom.Value, error) {
			doc, err := sqljson.FromDatum(row[0])
			if err != nil {
				return nil, err
			}
			vals, err := doc.Eval(p, 1)
			if err != nil || len(vals) == 0 {
				return jsondom.Null{}, err
			}
			return vals[0], nil
		},
	})
	s := NewStore(tab)
	if err := s.PopulateVC("vv"); err != nil {
		t.Fatal(err)
	}
	vec, _ := s.Vector("vv")
	if !vec.IsNumber {
		t.Fatal("inferred type should be number")
	}
	if !vec.Nulls[1] {
		t.Fatal("missing value should be null")
	}
	if !vec.Nulls[2] {
		t.Fatal("type-drifted value should be null")
	}
	if v := vec.Value(0); v.(jsondom.Number) != "1" {
		t.Fatalf("value 0 = %v", v)
	}
	if v := vec.Value(99); v.Kind() != jsondom.KindNull {
		t.Fatal("out of range value")
	}
}

func TestOSONSubstitutionAgreesWithText(t *testing.T) {
	tab := jsonTable(t)
	s := NewStore(tab)
	if err := s.PopulateOSON("jdoc"); err != nil {
		t.Fatal(err)
	}
	p := pathengine.MustCompile("$.str1")
	tab.Scan(func(rid int, row store.Row) bool {
		textDoc, _ := sqljson.FromDatum(row[1])
		want, err := textDoc.Value(p, sqljson.RetVarchar)
		if err != nil {
			t.Fatal(err)
		}
		sub, ok := s.Substitute(rid, "jdoc")
		if !ok {
			t.Fatal("missing substitution")
		}
		osonDoc, _ := sqljson.FromDatum(sub)
		got, err := osonDoc.Value(p, sqljson.RetVarchar)
		if err != nil || !jsondom.Equal(got, want) {
			t.Fatalf("row %d: %v != %v (%v)", rid, got, want, err)
		}
		return true
	})
}

func TestPopulateOSONShared(t *testing.T) {
	tab := jsonTable(t)
	s := NewStore(tab)
	if err := s.PopulateOSONShared("jdoc"); err != nil {
		t.Fatal(err)
	}
	// query agreement with the text form
	p := pathengine.MustCompile("$.str1")
	tab.Scan(func(rid int, row store.Row) bool {
		textDoc, _ := sqljson.FromDatum(row[1])
		want, err := textDoc.Value(p, sqljson.RetVarchar)
		if err != nil {
			t.Fatal(err)
		}
		sub, ok := s.Substitute(rid, "jdoc")
		if !ok {
			t.Fatalf("row %d not substituted", rid)
		}
		doc, err := sqljson.FromDatum(sub)
		if err != nil {
			t.Fatal(err)
		}
		got, err := doc.Value(p, sqljson.RetVarchar)
		if err != nil || !jsondom.Equal(got, want) {
			t.Fatalf("row %d: %v != %v (%v)", rid, got, want, err)
		}
		return true
	})
	// set encoding must use less memory than per-document encoding for
	// a homogeneous collection
	s2 := NewStore(tab)
	if err := s2.PopulateOSON("jdoc"); err != nil {
		t.Fatal(err)
	}
	if s.MemoryBytes() >= s2.MemoryBytes() {
		t.Fatalf("shared %d should be under per-doc %d", s.MemoryBytes(), s2.MemoryBytes())
	}
	// errors
	if err := s.PopulateOSONShared("nope"); err == nil {
		t.Fatal("missing column should fail")
	}
	bad := store.MustNewTable("b", store.Column{Name: "j", Type: store.TypeVarchar})
	bad.Insert(store.Row{jsondom.String("{oops")}) //nolint:errcheck
	if err := NewStore(bad).PopulateOSONShared("j"); err == nil {
		t.Fatal("bad text should fail")
	}
}

// TestCompileBatchFilter pins every supported predicate shape to its
// expected matches on a four-row vector pair, and every shape the
// compiler must decline.
func TestCompileBatchFilter(t *testing.T) {
	tab := store.MustNewTable("t", store.Column{Name: "j", Type: store.TypeVarchar})
	for _, d := range []string{
		`{"n":1,"s":"apple"}`, `{"n":2,"s":"banana"}`, `{"n":3,"s":"cherry"}`, `{}`,
	} {
		tab.Insert(store.Row{jsondom.String(d)}) //nolint:errcheck
	}
	addVC := func(name, path string, rt sqljson.ReturnType) {
		p := pathengine.MustCompile(path)
		tab.AddVirtualColumn(store.Column{ //nolint:errcheck
			Name: name, Virtual: true,
			Expr: func(row store.Row) (jsondom.Value, error) {
				doc, err := sqljson.FromDatum(row[0])
				if err != nil {
					return nil, err
				}
				return doc.Value(p, rt)
			},
		})
	}
	addVC("vn", "$.n", sqljson.RetNumber)
	addVC("vs", "$.s", sqljson.RetVarchar)
	s := NewStore(tab)
	if err := s.PopulateVC("vn"); err != nil {
		t.Fatal(err)
	}
	if err := s.PopulateVC("vs"); err != nil {
		t.Fatal(err)
	}

	matches := func(k BatchKernel) []int {
		sel := NewBitmap(4)
		k.And(0, sel)
		var out []int
		for i := 0; i < 4; i++ {
			if sel.Get(i) {
				out = append(out, i)
			}
		}
		return out
	}
	num := func(v string) jsondom.Value { return jsondom.Number(jsondom.MustNumber(v)) }

	cases := []struct {
		col  string
		op   string
		args []jsondom.Value
		want []int
	}{
		{"vn", "=", []jsondom.Value{num("2")}, []int{1}},
		{"vn", "!=", []jsondom.Value{num("2")}, []int{0, 2}}, // nulls never match
		{"vn", "<", []jsondom.Value{num("3")}, []int{0, 1}},
		{"vn", "<=", []jsondom.Value{num("2")}, []int{0, 1}},
		{"vn", ">", []jsondom.Value{num("1")}, []int{1, 2}},
		{"vn", ">=", []jsondom.Value{num("3")}, []int{2}},
		{"vn", "between", []jsondom.Value{num("2"), num("3")}, []int{1, 2}},
		{"vs", "=", []jsondom.Value{jsondom.String("banana")}, []int{1}},
		{"vs", "!=", []jsondom.Value{jsondom.String("banana")}, []int{0, 2}},
		{"vs", "<", []jsondom.Value{jsondom.String("banana")}, []int{0}},
		{"vs", "<=", []jsondom.Value{jsondom.String("banana")}, []int{0, 1}},
		{"vs", ">", []jsondom.Value{jsondom.String("apple")}, []int{1, 2}},
		{"vs", ">=", []jsondom.Value{jsondom.String("cherry")}, []int{2}},
		{"vs", "between", []jsondom.Value{jsondom.String("b"), jsondom.String("c")}, []int{1}},
	}
	for _, c := range cases {
		k, ok := s.CompileBatchFilter(c.col, c.op, c.args)
		if !ok {
			t.Errorf("%s %s: not compiled", c.col, c.op)
			continue
		}
		got := matches(k)
		if len(got) != len(c.want) {
			t.Errorf("%s %s %v: got %v, want %v", c.col, c.op, c.args, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s %s %v: got %v, want %v", c.col, c.op, c.args, got, c.want)
				break
			}
		}
	}

	// unsupported shapes decline compilation instead of mis-filtering
	if _, ok := s.CompileBatchFilter("missing", "=", []jsondom.Value{num("1")}); ok {
		t.Error("missing column compiled")
	}
	if _, ok := s.CompileBatchFilter("vn", "like", []jsondom.Value{num("1")}); ok {
		t.Error("unsupported op compiled")
	}
	if _, ok := s.CompileBatchFilter("vn", "=", []jsondom.Value{jsondom.String("x")}); ok {
		t.Error("type-mismatched operand compiled")
	}
	if _, ok := s.CompileBatchFilter("vs", "=", []jsondom.Value{num("1")}); ok {
		t.Error("number operand against string vector compiled")
	}
	if _, ok := s.CompileBatchFilter("vn", "between", []jsondom.Value{num("1")}); ok {
		t.Error("between with one operand compiled")
	}
	// row ids beyond the vector are safely false: within a chunk the
	// selection is cleared past the vector's end, and a chunk wholly
	// beyond it prunes and selects nothing
	for _, c := range []struct {
		col string
		arg jsondom.Value
	}{{"vn", num("1")}, {"vs", jsondom.String("apple")}} {
		for _, op := range []string{"=", "!="} {
			k, _ := s.CompileBatchFilter(c.col, op, []jsondom.Value{c.arg})
			sel := NewBitmap(ChunkSize)
			k.And(0, sel)
			if next := sel.NextSet(4); next >= 0 {
				t.Errorf("%s %s: row %d beyond the vector matched", c.col, op, next)
			}
			sel.Reset(ChunkSize)
			k.And(7, sel)
			if !k.Prune(7) || sel.Count() != 0 {
				t.Errorf("%s %s: chunk beyond the vector: prune=%v selected=%d", c.col, op, k.Prune(7), sel.Count())
			}
		}
	}
}
