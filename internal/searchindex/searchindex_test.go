package searchindex

import (
	"fmt"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/store"
)

var docs = []string{
	`{"purchaseOrder":{"id":1,"podate":"2014-09-08",
		"items":[{"name":"phone","price":100},{"name":"smart phone","price":200}]}}`,
	`{"purchaseOrder":{"id":2,"podate":"2015-03-04","foreign_id":"CDEG35",
		"items":[{"name":"table","price":52.78}]}}`,
}

func loadedIndex(t *testing.T, dataGuide bool) *Index {
	t.Helper()
	ix := New("sx", "po", "jdoc", dataGuide)
	for i, d := range docs {
		if err := ix.AddDocument(i, jsontext.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestPathPostings(t *testing.T) {
	ix := loadedIndex(t, false)
	if ids := ix.DocsWithPath("$.purchaseOrder.foreign_id"); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("foreign_id postings = %v", ids)
	}
	if ids := ix.DocsWithPath("$.purchaseOrder.items.name"); len(ids) != 2 {
		t.Fatalf("name postings = %v", ids)
	}
	if ids := ix.DocsWithPath("$.nope"); len(ids) != 0 {
		t.Fatalf("phantom postings = %v", ids)
	}
	// a path occurring many times in one doc posts once
	if ids := ix.DocsWithPath("$.purchaseOrder.items.price"); len(ids) != 2 {
		t.Fatalf("price postings = %v", ids)
	}
	if ix.DistinctPathCount() == 0 || ix.DocCount() != 2 {
		t.Fatal("counters")
	}
}

func TestKeywordPostings(t *testing.T) {
	ix := loadedIndex(t, false)
	if ids := ix.DocsWithKeyword("phone"); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("phone postings = %v", ids)
	}
	// multi-token keyword: conjunction
	if ids := ix.DocsWithKeyword("smart phone"); len(ids) != 1 {
		t.Fatalf("smart phone = %v", ids)
	}
	if ids := ix.DocsWithKeyword("PHONE"); len(ids) != 1 {
		t.Fatalf("case insensitive = %v", ids)
	}
	if ids := ix.DocsWithKeyword("zzz"); len(ids) != 0 {
		t.Fatalf("missing keyword = %v", ids)
	}
	if ids := ix.DocsWithKeyword(""); len(ids) != 0 {
		t.Fatalf("empty keyword = %v", ids)
	}
}

func TestValuePostings(t *testing.T) {
	ix := loadedIndex(t, false)
	if ids := ix.DocsWithValue("$.purchaseOrder.id", jsondom.Number("2")); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("id=2 postings = %v", ids)
	}
	if ids := ix.DocsWithValue("$.purchaseOrder.items.price", jsondom.Number("100")); len(ids) != 1 {
		t.Fatalf("price=100 postings = %v", ids)
	}
	if ids := ix.DocsWithValue("$.purchaseOrder.id", jsondom.Number("99")); len(ids) != 0 {
		t.Fatalf("missing value = %v", ids)
	}
}

func TestDataGuideMaintenance(t *testing.T) {
	ix := loadedIndex(t, true)
	if !ix.DataGuideEnabled() {
		t.Fatal("dataguide should be on")
	}
	g := ix.Guide()
	if g.DocCount() != 2 {
		t.Fatalf("guide docs = %d", g.DocCount())
	}
	rows := ix.DGTable()
	found := false
	for _, r := range rows {
		if r.Path == "$.purchaseOrder.foreign_id" && r.Type == "string" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing $DG row: %v", rows)
	}
	// the $DG table is additive: re-adding similar docs adds nothing
	before := len(ix.DGTable())
	ix.AddDocument(2, jsontext.MustParse(docs[0])) //nolint:errcheck
	if len(ix.DGTable()) != before {
		t.Fatal("homogeneous doc extended $DG")
	}
	// disabled guide stays empty
	ix2 := loadedIndex(t, false)
	if len(ix2.DGTable()) != 0 || ix2.Guide().Len() != 0 {
		t.Fatal("disabled dataguide accumulated state")
	}
}

func poTable() *store.Table {
	return store.MustNewTable("po",
		store.Column{Name: "did", Type: store.TypeNumber},
		store.Column{Name: "jdoc", Type: store.TypeVarchar, CheckJSON: true},
		store.Column{Name: "note", Type: store.TypeVarchar},
	)
}

// TestSubscriber: the index takes the rows the table holds when it
// subscribes and follows every write after — an update moves the row's
// postings, a delete drops them, the DataGuide keeps what it learned —
// until it unsubscribes.
func TestSubscriber(t *testing.T) {
	tab := poTable()
	row := func(id int, doc string) store.Row {
		v := jsondom.Value(jsondom.Null{})
		if doc != "" {
			v = jsondom.String(doc)
		}
		return store.Row{jsondom.NumberFromInt(int64(id)), v, jsondom.Null{}}
	}
	tab.Insert(row(0, docs[0])) //nolint:errcheck
	tab.Insert(row(1, ""))      //nolint:errcheck // NULL documents have no postings
	tab.Insert(row(2, docs[1])) //nolint:errcheck
	tab.Delete(2)
	for _, col := range []string{"note", "missing"} {
		if err := New("bad", "po", col, false).Subscribe(tab); err == nil {
			t.Fatalf("an index subscribed to column %s, which has no IS JSON check", col)
		}
	}
	ix := New("sx", "po", "jdoc", true)
	if err := ix.Subscribe(tab); err != nil {
		t.Fatal(err)
	}
	foreign := "$.purchaseOrder.foreign_id"
	postings := func() string {
		return fmt.Sprint(ix.DocCount(), ix.DocsWithPath(foreign), ix.DocsWithKeyword("phone"), ix.DocsWithValue("$.purchaseOrder.id", jsondom.Number("2")))
	}
	if got := postings(); got != "1 [] [0] []" {
		t.Fatalf("after the backfill: %s", got)
	}
	tab.Insert(row(3, docs[0]))       //nolint:errcheck
	tab.Insert(row(4, docs[1]))       //nolint:errcheck
	tab.Update(0, row(0, docs[1]))    //nolint:errcheck
	tab.Update(1, row(1, docs[0]))    //nolint:errcheck
	tab.Update(4, row(4, `{"a":[]}`)) //nolint:errcheck
	if got := postings(); got != "4 [0] [1 3] [0]" {
		t.Fatalf("after inserts and updates: %s", got)
	}
	tab.Delete(0)
	tab.Update(3, row(3, "")) //nolint:errcheck
	if got := postings(); got != "2 [] [1] []" {
		t.Fatalf("after a delete and an update to NULL: %s", got)
	}
	if _, ok := ix.Guide().Lookup(foreign, 2); !ok || ix.Stale() {
		t.Fatalf("the DataGuide forgot %s, or the index went stale (%v)", foreign, ix.Stale())
	}
	ix.Unsubscribe()
	tab.Insert(row(5, docs[0])) //nolint:errcheck
	if got := postings(); got != "2 [] [1] []" {
		t.Fatalf("after Unsubscribe: %s", got)
	}

	// a document the index cannot read does not fail the write: the
	// index marks itself stale
	raw := store.MustNewTable("r", store.Column{Name: "jdoc", Type: store.TypeRaw, CheckJSON: true})
	rx := New("rx", "r", "jdoc", false)
	if err := rx.Subscribe(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Insert(store.Row{jsondom.Binary{1, 2, 3}}); err != nil || !rx.Stale() {
		t.Fatalf("insert of an unreadable document: %v, stale %v", err, rx.Stale())
	}
}

func BenchmarkAddDocumentHomogeneous(b *testing.B) {
	ix := New("sx", "po", "jdoc", true)
	doc := jsontext.MustParse(docs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.AddDocument(i, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDataGuideOnlyMode(t *testing.T) {
	ix := NewDataGuideOnly("dg", "po", "jdoc")
	if ix.PostingsEnabled() {
		t.Fatal("postings should be off")
	}
	if !ix.DataGuideEnabled() {
		t.Fatal("dataguide should be on")
	}
	tab := poTable()
	if err := ix.Subscribe(tab); err != nil {
		t.Fatal(err)
	}
	// homogeneous inserts hit the fingerprint fast path after the first
	for i := 0; i < 5; i++ {
		if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), jsondom.String(docs[0]), jsondom.Null{}}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.DocCount() != 5 {
		t.Fatalf("docs = %d", ix.DocCount())
	}
	g := ix.Guide()
	if g.DocCount() != 5 {
		t.Fatalf("guide docs = %d (fingerprint hits must bump)", g.DocCount())
	}
	e, ok := g.Lookup("$.purchaseOrder.id", 2)
	if !ok || e.Frequency != 5 {
		t.Fatalf("frequency = %+v", e)
	}
	// structural change is still detected
	before := len(ix.DGTable())
	if _, err := tab.Insert(store.Row{jsondom.Number("9"), jsondom.String(`{"purchaseOrder":{"brand_new":1}}`), jsondom.Null{}}); err != nil {
		t.Fatal(err)
	}
	if len(ix.DGTable()) != before+1 {
		t.Fatalf("new path not recorded: %d -> %d", before, len(ix.DGTable()))
	}
	// no postings are accumulated
	if ids := ix.DocsWithPath("$.purchaseOrder.id"); len(ids) != 0 {
		t.Fatalf("postings accumulated in dataguide-only mode: %v", ids)
	}
	// AddDocument (DOM path) also honors the postings switch
	if err := ix.AddDocument(99, jsontext.MustParse(docs[1])); err != nil {
		t.Fatal(err)
	}
	if ids := ix.DocsWithKeyword("table"); len(ids) != 0 {
		t.Fatalf("keyword postings in dataguide-only mode: %v", ids)
	}
}
