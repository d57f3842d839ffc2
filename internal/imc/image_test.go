package imc

// The maintained store against the obvious oracle: after any sequence
// of writes, a subscribed store must answer every kernel and every
// substitution exactly as a store populated afresh over the same table
// does — with rows pending, and after a fold.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
	"repro/internal/store"
)

// maintTable is (id, jdoc) with a number and a string virtual column
// over the document, which every third row leaves out.
func maintTable(t *testing.T, rows int) *store.Table {
	t.Helper()
	tab := store.MustNewTable("m",
		store.Column{Name: "id", Type: store.TypeNumber},
		store.Column{Name: "jdoc", Type: store.TypeVarchar, CheckJSON: true},
	)
	for name, spec := range map[string]struct {
		path string
		rt   sqljson.ReturnType
	}{"vn": {"$.n", sqljson.RetNumber}, "vs": {"$.s", sqljson.RetVarchar}} {
		p := pathengine.MustCompile(spec.path)
		rt := spec.rt
		err := tab.AddVirtualColumn(store.Column{Name: name, Expr: func(row store.Row) (jsondom.Value, error) {
			doc, err := sqljson.FromDatum(row[1])
			if err != nil {
				return nil, err
			}
			return doc.Value(p, rt)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if _, err := tab.Insert(maintRow(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// maintRow renders the row with key id whose document carries value v.
func maintRow(id, v int) store.Row {
	doc := fmt.Sprintf(`{"n":%d,"s":"s%03d","pad":"%d"}`, v%50, v%37, v)
	if v%3 == 0 {
		doc = fmt.Sprintf(`{"pad":"%d"}`, v)
	}
	return store.Row{jsondom.NumberFromInt(int64(id)), jsondom.String(doc)}
}

func populated(t *testing.T, tab *store.Table, shared bool) *Store {
	t.Helper()
	s := NewStore(tab)
	pop := s.PopulateOSON
	if shared {
		pop = s.PopulateOSONShared
	}
	if err := pop("jdoc"); err != nil {
		t.Fatal(err)
	}
	for _, vc := range []string{"vn", "vs"} {
		if err := s.PopulateVC(vc); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// selected runs one kernel over every chunk of [0, n) the way a scan
// does and returns the surviving row ids.
func selected(k BatchKernel, n int) []int {
	var ids []int
	sel := NewBitmap(ChunkSize)
	for c := 0; c*ChunkSize < n; c++ {
		if k.Prune(c) {
			continue
		}
		sel.Reset(min(ChunkSize, n-c*ChunkSize))
		k.And(c, sel)
		for i := sel.NextSet(0); i >= 0; i = sel.NextSet(i + 1) {
			ids = append(ids, c*ChunkSize+i)
		}
	}
	return ids
}

var maintFilters = []struct {
	col, op string
	args    []jsondom.Value
}{
	{"vn", "=", []jsondom.Value{jsondom.NumberFromInt(7)}},
	{"vn", "!=", []jsondom.Value{jsondom.NumberFromInt(7)}},
	{"vn", "<", []jsondom.Value{jsondom.NumberFromInt(3)}},
	{"vn", ">=", []jsondom.Value{jsondom.NumberFromInt(48)}},
	{"vn", "between", []jsondom.Value{jsondom.NumberFromInt(10), jsondom.NumberFromInt(12)}},
	{"vn", "between", []jsondom.Value{jsondom.NumberFromInt(12), jsondom.NumberFromInt(10)}},
	{"vs", "=", []jsondom.Value{jsondom.String("s005")}},
	{"vs", "=", []jsondom.Value{jsondom.String("nowhere")}},
	{"vs", "!=", []jsondom.Value{jsondom.String("s005")}},
	{"vs", "<=", []jsondom.Value{jsondom.String("s002")}},
	{"vs", ">", []jsondom.Value{jsondom.String("s034x")}},
	{"vs", "between", []jsondom.Value{jsondom.String("s010"), jsondom.String("s011")}},
}

// sameAnswers compares the maintained store's current image with a
// fresh population of the table, row id by row id.
func sameAnswers(t *testing.T, when string, tab *store.Table, s *Store, shared bool) {
	t.Helper()
	fresh, img, n := populated(t, tab, shared), s.Image(), tab.MaxRowID()
	if img.broken != "" {
		t.Fatalf("%s: store broken: %s", when, img.broken)
	}
	for _, f := range maintFilters {
		k, ok := img.CompileBatchFilter(f.col, f.op, f.args)
		fk, fok := fresh.CompileBatchFilter(f.col, f.op, f.args)
		if !ok || !fok {
			t.Fatalf("%s: %s %s does not compile (%v, %v)", when, f.col, f.op, ok, fok)
		}
		// deleted rows stay in neither: scans skip tombstones themselves
		got, want := selected(k, n), selected(fk, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s %s %v selects %v, a fresh store %v", when, f.col, f.op, f.args, got, want)
		}
	}
	for rid := 0; rid < n; rid++ {
		if _, live := tab.Get(rid); !live {
			continue
		}
		for _, col := range []string{"jdoc", "vn", "vs", "id"} {
			got, ok := img.Substitute(rid, col)
			want, wok := fresh.Substitute(rid, col)
			if ok != wok || (ok && col != "jdoc" && !jsondom.Equal(got, want)) {
				t.Fatalf("%s: row %d %s = %v (%v), a fresh store %v (%v)", when, rid, col, got, ok, want, wok)
			}
			if ok && col == "jdoc" {
				g, _ := sqljson.FromDatum(got)
				w, _ := sqljson.FromDatum(want)
				p := pathengine.MustCompile("$.pad")
				gv, _ := g.Value(p, sqljson.RetVarchar)
				wv, _ := w.Value(p, sqljson.RetVarchar)
				if !jsondom.Equal(gv, wv) {
					t.Fatalf("%s: row %d document has pad %v, a fresh store %v", when, rid, gv, wv)
				}
			}
		}
	}
}

func TestMaintainedStoreAnswersLikeAFreshOne(t *testing.T) {
	defer func(old func(int) int) { foldThreshold = old }(foldThreshold)
	for _, shared := range []bool{false, true} {
		foldThreshold = func(int) int { return math.MaxInt }
		tab := maintTable(t, 2500) // three chunks, the last one partial
		s := populated(t, tab, shared)
		s.Subscribe()
		rng := rand.New(rand.NewSource(3))
		next := 2500
		write := func(n int) {
			for i := 0; i < n; i++ {
				rid := rng.Intn(tab.MaxRowID())
				switch op := rng.Intn(10); {
				case op < 5:
					if _, live := tab.Get(rid); live {
						if err := tab.Update(rid, maintRow(rid, rng.Intn(1000))); err != nil {
							t.Fatal(err)
						}
					}
				case op < 7:
					tab.Delete(rid)
				default:
					if _, err := tab.Insert(maintRow(next, rng.Intn(1000))); err != nil {
						t.Fatal(err)
					}
					next++
				}
			}
		}
		write(1)
		sameAnswers(t, "after one write", tab, s, shared)
		write(400)
		if pending, stale := s.Image().Pending(); pending == 0 || stale == 0 || stale >= pending {
			t.Fatalf("after 401 writes: pending=%d stale=%d", pending, stale)
		}
		sameAnswers(t, "with rows pending", tab, s, shared)
		// what a scan bound before a write keeps seeing
		before := s.Image()
		k, _ := before.CompileBatchFilter("vn", "=", []jsondom.Value{jsondom.NumberFromInt(7)})
		n := tab.MaxRowID()
		want := selected(k, n)
		write(200)
		if got := selected(k, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("an image changed under its reader: %v, then %v", want, got)
		}
		foldThreshold = func(int) int { return 0 }
		folds := mFolds.Value()
		insert := func() {
			if _, err := tab.Insert(maintRow(next, 5)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		insert()
		if pending, _ := s.Image().Pending(); pending != 0 || mFolds.Value() != folds+1 {
			t.Fatalf("a write past the threshold left %d rows pending after %d folds", pending, mFolds.Value()-folds)
		}
		sameAnswers(t, "after the fold", tab, s, shared)
		// a folded vector is a populated vector: same dictionary, codes,
		// zone maps and statistics as a population of the table as it is
		fresh := populated(t, tab, shared)
		for _, vc := range []string{"vn", "vs"} {
			got, _ := s.Vector(vc)
			want, _ := fresh.Vector(vc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("folded vector %s differs from a populated one", vc)
			}
		}
		s.Unsubscribe()
		insert()
		s.Subscribe()
		if s.Image().broken == "" {
			t.Fatal("a store that missed a write answers after it is subscribed again")
		}
		if err := s.PopulateVC("vn"); err != nil || s.Image().broken != "" {
			t.Fatalf("a population does not mend a broken store: %v, %q", err, s.Image().broken)
		}
	}
}

// TestPopulateByRowID: vectors and documents are indexed by row id, so a
// population over tombstones leaves a null slot for each.
func TestPopulateByRowID(t *testing.T) {
	tab := maintTable(t, 10)
	tab.Delete(1)
	tab.Delete(4)
	s := populated(t, tab, false)
	vec, _ := s.Vector("vs")
	if vec.Len() != 10 || !vec.Nulls[1] || !vec.Nulls[4] {
		t.Fatalf("vector over tombstones: len %d, nulls %v", vec.Len(), vec.Nulls)
	}
	if got, _ := s.Substitute(5, "vs"); !jsondom.Equal(got, jsondom.String("s005")) {
		t.Fatalf("row 5 reads %v from the store", got)
	}
	if _, ok := s.Substitute(4, "jdoc"); ok {
		t.Fatal("a deleted row has a document")
	}
	if d, ok := s.Substitute(5, "jdoc"); !ok || d.Kind() != jsondom.KindBinary {
		t.Fatalf("row 5 document = %v, %v", d, ok)
	}
}
