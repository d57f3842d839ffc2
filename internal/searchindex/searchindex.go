// Package searchindex implements the schema-agnostic JSON search index
// of §3.2: an inverted index over every JSON field-name path and every
// leaf scalar value (strings tokenized into keywords). It subscribes to
// its table's writes (Index.Subscribe) and follows each insert, update
// and delete under the table's write lock, so its postings always
// describe the documents the table holds.
//
// The index hosts the *persistent JSON DataGuide*: its maintenance is
// folded into DML, and in the DataGuide-only mode, where a document of
// a structure seen before is common, such a document does not touch
// the DataGuide module beyond the structural check (§3.2.1). The
// DataGuide only ever grows (§3.4). The $DG rows the paper stores
// relationally are exposed via Guide().Entries().
package searchindex

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataguide"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/sqljson"
	"repro/internal/store"
)

// Index is a JSON search index over one JSON column of a table.
type Index struct {
	Name      string
	TableName string
	Column    string

	mu sync.RWMutex
	// The postings map each term to the ids of the documents holding
	// it, ascending.
	// pathPostings: field-name path -> doc ids containing that path.
	pathPostings map[string][]int
	// keywordPostings: token -> doc ids containing the keyword in any
	// string leaf.
	keywordPostings map[string][]int
	// valuePostings: path + "=" + scalar rendering -> doc ids, for
	// equality probes on leaf values.
	valuePostings map[string][]int

	dataGuide bool
	// postings controls inverted-list maintenance; a DataGuide-only
	// index (Figure 7's third mode) skips it and streams the document
	// through the event-driven structural analysis instead.
	postings bool
	guide    *dataguide.Guide
	// fpEntries caches, per structure fingerprint, the DataGuide
	// entries a document of that structure touches; fingerprint hits
	// skip structural analysis entirely (§3.2.1's common case).
	fpEntries map[uint64][]*dataguide.Entry
	// dgRows mirrors the relational $DG table: append-only (§3.4:
	// "persistent JSON DataGuide is additive").
	dgRows []DGRow

	docCount int

	// tab is the table the index subscribes to and pos the position of
	// Column in its stored rows (Subscribe).
	tab *store.Table
	pos int
	// stale is set, and never cleared, once a written document could
	// not be read: the postings may no longer describe the table.
	stale atomic.Bool
}

// DGRow is one row of the $DG table (Tables 2, 4, 6).
type DGRow struct {
	Path string
	Type string
}

// New creates a search index. dataGuide enables persistent DataGuide
// maintenance.
func New(name, table, column string, dataGuide bool) *Index {
	return &Index{
		Name:            name,
		TableName:       table,
		Column:          column,
		pathPostings:    make(map[string][]int),
		keywordPostings: make(map[string][]int),
		valuePostings:   make(map[string][]int),
		dataGuide:       dataGuide,
		postings:        true,
		guide:           dataguide.New(),
		fpEntries:       make(map[uint64][]*dataguide.Entry),
	}
}

// NewDataGuideOnly creates an index that maintains only the persistent
// DataGuide, without inverted lists — the configuration §6.5 measures
// as "json-constraint-dataguide".
func NewDataGuideOnly(name, table, column string) *Index {
	ix := New(name, table, column, true)
	ix.postings = false
	return ix
}

// DataGuideEnabled reports whether DataGuide maintenance is on.
func (ix *Index) DataGuideEnabled() bool { return ix.dataGuide }

// PostingsEnabled reports whether inverted lists are maintained (false
// for DataGuide-only indexes).
func (ix *Index) PostingsEnabled() bool { return ix.postings }

// Guide returns the maintained DataGuide (empty when disabled).
func (ix *Index) Guide() *dataguide.Guide {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.guide
}

// DGTable returns the accumulated $DG rows in insertion order.
func (ix *Index) DGTable() []DGRow {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]DGRow(nil), ix.dgRows...)
}

// DocCount returns the number of documents the index holds: a deleted
// or overwritten document no longer counts.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docCount
}

// Stale reports whether some written document could not be read, so
// that the postings may miss or keep a document they should not.
func (ix *Index) Stale() bool { return ix.stale.Load() }

// Subscribe indexes every row t holds and subscribes the index to t's
// writes, under one lock of the table (store.Table.Subscribe), so no
// write falls between the two. Column must be a stored column of t
// with an IS JSON check: every value the index reads has then passed
// jsontext.Valid.
func (ix *Index) Subscribe(t *store.Table) error {
	c, ok := t.Column(ix.Column)
	pos, _ := t.ColumnPos(ix.Column)
	if !ok || c.Virtual || !c.CheckJSON {
		return fmt.Errorf("searchindex: %s.%s is not a stored column with an IS JSON check", t.Name, ix.Column)
	}
	ix.tab, ix.pos = t, pos
	t.Subscribe(ix, func(rows []store.Row, tombs []bool, writes uint64) {
		for rid, row := range rows {
			if rid >= len(tombs) || !tombs[rid] {
				ix.RowWritten(rid, nil, row, writes)
			}
		}
	})
	return nil
}

// Unsubscribe ends the subscription Subscribe started.
func (ix *Index) Unsubscribe() { ix.tab.Unsubscribe(ix) }

// RowWritten implements store.WriteObserver: an insert adds the
// document's postings, an update replaces the old document's postings
// with the new one's, a delete removes them; the DataGuide merges every
// new document and forgets none. A NULL document has no postings. A
// document that cannot be read marks the index stale instead of
// failing the write.
func (ix *Index) RowWritten(rowID int, old, row store.Row, _ uint64) {
	var err error
	if old != nil && old[ix.pos].Kind() != jsondom.KindNull {
		err = ix.remove(rowID, old[ix.pos])
	}
	if row != nil && row[ix.pos].Kind() != jsondom.KindNull {
		err = errors.Join(err, ix.add(rowID, row[ix.pos]))
	}
	if err != nil {
		ix.stale.Store(true)
	}
}

// add indexes one stored document.
func (ix *Index) add(docID int, v jsondom.Value) error {
	if s, ok := v.(jsondom.String); ok && !ix.postings {
		// DataGuide-only maintenance streams the text through the
		// event-driven structural analysis (§3.2.1) — no DOM is built
		return ix.addTextDataGuideOnly([]byte(s))
	}
	dom, err := parse(v)
	if err != nil {
		return err
	}
	return ix.AddDocument(docID, dom)
}

// remove takes one stored document out of the postings and the count.
func (ix *Index) remove(docID int, v jsondom.Value) error {
	var dom jsondom.Value
	if ix.postings {
		var err error
		if dom, err = parse(v); err != nil {
			return err
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.docCount--
	if dom != nil {
		ix.post(dom, "$", docID, false)
	}
	return nil
}

// parse returns the DOM of a stored document.
func parse(v jsondom.Value) (jsondom.Value, error) {
	doc, err := sqljson.FromDatum(v)
	if err != nil {
		return nil, err
	}
	return doc.DOM()
}

func (ix *Index) addTextDataGuideOnly(text []byte) error {
	// cheap single-scan structure fingerprint; a hit means this
	// structure contributed to the DataGuide before, so processing
	// stops without touching the persistent DataGuide module (§3.2.1)
	fp, err := jsontext.StructureFingerprint(text)
	if err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.docCount++
	mDocsIndexed.Inc()
	if touched, ok := ix.fpEntries[fp]; ok {
		ix.guide.BumpFrequency(touched)
		return nil
	}
	t0 := time.Now()
	added, touched, err := ix.guide.AddTextTracked(text)
	if err != nil {
		return err
	}
	ix.fpEntries[fp] = touched
	ix.merged(t0, added)
	return nil
}

// AddDocument indexes one parsed document under the given id.
func (ix *Index) AddDocument(docID int, dom jsondom.Value) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.docCount++
	mDocsIndexed.Inc()
	if ix.postings {
		ix.post(dom, "$", docID, true)
	}
	if ix.dataGuide {
		t0 := time.Now()
		ix.merged(t0, ix.guide.Add(dom))
	}
	return nil
}

// merged accounts one DataGuide merge begun at t0 and appends the $DG
// rows it discovered. Caller holds ix.mu.
func (ix *Index) merged(t0 time.Time, added []*dataguide.Entry) {
	mDGDocs.Inc()
	mDGLatency.Observe(int64(time.Since(t0)))
	for _, e := range added {
		ix.dgRows = append(ix.dgRows, DGRow{Path: e.Path, Type: e.TypeString()})
	}
	mDGPaths.Add(int64(len(added)))
}

// post adds docID to (add) or removes it from the postings of every
// term of the document v, found under path: each field-name path, each
// keyword of a string leaf, each path=value of a scalar leaf. Caller
// holds ix.mu.
func (ix *Index) post(v jsondom.Value, path string, docID int, add bool) {
	switch t := v.(type) {
	case *jsondom.Object:
		for _, f := range t.Fields() {
			childPath := path + "." + f.Name
			posting(ix.pathPostings, childPath, docID, add)
			ix.post(f.Value, childPath, docID, add)
		}
	case *jsondom.Array:
		for _, e := range t.Elems {
			ix.post(e, path, docID, add)
		}
	case jsondom.String:
		for _, tok := range sqljson.Tokenize(string(t)) {
			posting(ix.keywordPostings, tok, docID, add)
		}
		posting(ix.valuePostings, path+"="+jsontext.SerializeString(v), docID, add)
	default:
		if v.Kind().IsScalar() {
			posting(ix.valuePostings, path+"="+jsontext.SerializeString(v), docID, add)
		}
	}
}

// posting adds id to or removes it from the ascending list m[key]; a
// term met twice in one document is posted once. Ids of inserted rows
// only grow, so an insert appends; an update searches.
func posting(m map[string][]int, key string, id int, add bool) {
	ids := m[key]
	n := len(ids)
	if add && (n == 0 || ids[n-1] < id) {
		m[key] = append(ids, id)
		return
	}
	i, found := slices.BinarySearch(ids, id)
	switch {
	case add && !found:
		m[key] = slices.Insert(ids, i, id)
	case !add && found && n == 1:
		delete(m, key)
	case !add && found:
		m[key] = slices.Delete(ids, i, i+1)
	}
}

// DocsWithPath returns the ids of documents containing the field-name
// path (array steps are transparent, matching DataGuide paths).
func (ix *Index) DocsWithPath(path string) []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]int(nil), ix.pathPostings[path]...)
}

// DocsWithKeyword returns the ids of documents whose string leaves
// contain the keyword.
func (ix *Index) DocsWithKeyword(keyword string) []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	toks := sqljson.Tokenize(keyword)
	if len(toks) == 0 {
		return nil
	}
	// conjunction over the keyword's tokens
	result := append([]int(nil), ix.keywordPostings[toks[0]]...)
	for _, tok := range toks[1:] {
		result = Intersect(result, ix.keywordPostings[tok])
	}
	return result
}

// DocsWithValue returns the ids of documents having the exact scalar
// value at the path.
func (ix *Index) DocsWithValue(path string, v jsondom.Value) []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	key := path + "=" + jsontext.SerializeString(v)
	return append([]int(nil), ix.valuePostings[key]...)
}

// DistinctPathCount returns the number of distinct indexed paths.
func (ix *Index) DistinctPathCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.pathPostings)
}

// Intersect returns the ids both ascending id lists hold, ascending.
func Intersect(a, b []int) []int {
	var out []int
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			out = append(out, a[0])
			a, b = a[1:], b[1:]
		}
	}
	return out
}
