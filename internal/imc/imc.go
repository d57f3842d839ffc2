// Package imc implements the dual-format in-memory store integration
// of §5.2, modeled on Oracle Database In-Memory [19]:
//
//   - In-memory OSON (§5.2.2): for a table whose JSON documents are
//     stored as text, population encodes each document to OSON once;
//     scans then substitute the OSON bytes for the text column, so all
//     SQL/JSON operators transparently navigate the binary form while
//     the on-disk format remains text.
//   - In-memory virtual columns (§5.2.1): JSON_VALUE virtual columns
//     are evaluated once at population time into typed column vectors
//     (values + null bitmap); scans then serve the vector value
//     instead of re-evaluating the path per row.
//
// A populated Store implements sqlengine.InMemorySource and is
// attached with Engine.AttachIMC. An attached store subscribes to its
// table's writes and stays consistent with the row store while DML
// runs (image.go): every state it has been in is an immutable Image,
// and a scan reads the one that was current when it opened.
package imc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/store"
)

// Store is the in-memory representation of one table.
type Store struct {
	// mu serializes the publishers of img: populations, the maintenance
	// of written rows, folds. It is taken under the table's lock (read
	// for a population, write for a written row), never the other way
	// round. Readers load img without it.
	mu  sync.Mutex
	tab *store.Table
	img atomic.Pointer[Image]
	// subscribed is set while the store receives the table's writes.
	subscribed bool
}

// NewStore creates an empty in-memory store for a table.
func NewStore(tab *store.Table) *Store {
	s := &Store{tab: tab}
	s.img.Store(&Image{})
	return s
}

// Image returns the store's current state. Every Image is immutable, so
// a scan that reads one image from Open to Close sees one consistent
// table, whatever is written meanwhile.
func (s *Store) Image() *Image { return s.img.Load() }

// PopulateOSON encodes the named JSON text column of every row into
// OSON (§5.2.2's implicit OSON() constructor invocation during
// population). Rows whose column is NULL or not a string are left
// unsubstituted.
func (s *Store) PopulateOSON(jsonCol string) error {
	return s.populateOSON(jsonCol, nil)
}

// PopulateOSONShared is PopulateOSON using the OSON set encoding of
// §7: all documents share one merged field-name dictionary, removing
// the per-document dictionary segments from memory and making field-id
// resolution a one-time, store-wide operation.
func (s *Store) PopulateOSONShared(jsonCol string) error {
	return s.populateOSON(jsonCol, oson.NewSharedDict())
}

// encodeDoc renders one stored value of the document column as its
// in-memory image, against dict when the store uses the set encoding;
// nil for a value that is not JSON text (the scan then serves the
// stored value itself).
func encodeDoc(v jsondom.Value, dict *oson.SharedDict) (jsondom.Value, error) {
	str, ok := v.(jsondom.String)
	if !ok {
		return nil, nil
	}
	if dict == nil {
		b, err := oson.FromJSONText([]byte(str))
		if err != nil {
			return nil, err
		}
		return jsondom.Binary(b), nil
	}
	dom, err := jsontext.Parse([]byte(str))
	if err != nil {
		return nil, err
	}
	b, err := oson.EncodeShared(dom, dict)
	if err != nil {
		return nil, err
	}
	doc, err := oson.ParseShared(b, dict)
	if err != nil {
		return nil, err
	}
	return oson.SharedValue{Doc: doc}, nil
}

// docBytes is the accounted size of one in-memory document.
func docBytes(d jsondom.Value) int {
	switch t := d.(type) {
	case jsondom.Binary:
		return len(t)
	case oson.SharedValue:
		return len(t.Doc.Bytes())
	}
	return 0
}

func (s *Store) populateOSON(jsonCol string, dict *oson.SharedDict) error {
	pos, ok := s.tab.ColumnPos(jsonCol)
	if !ok {
		return fmt.Errorf("imc: no column %q in table %q", jsonCol, s.tab.Name)
	}
	return s.populate(func(next *Image, rows []store.Row, tombs []bool) error {
		docs := make([]jsondom.Value, len(rows))
		var bytes int64
		for rid, row := range rows {
			docs[rid] = jsondom.Null{}
			if rid < len(tombs) && tombs[rid] {
				continue // a deleted row keeps its slot: scans index by row id
			}
			d, err := encodeDoc(row[pos], dict)
			if err != nil {
				return fmt.Errorf("imc: row %d: %w", rid, err)
			}
			if d != nil {
				docs[rid] = d
				bytes += int64(docBytes(d))
			}
		}
		if dict != nil {
			bytes += int64(dict.MemoryBytes())
		}
		mPopRows.Add(int64(len(docs)))
		mPopBytes.Add(bytes)
		next.setDocs(jsonCol, pos, docs, dict)
		return nil
	})
}

// PopulateVC evaluates the named virtual column for every row into a
// typed vector (§5.2.1): chunked, zone-mapped, and — for string
// columns — dictionary-encoded (see vector.go). The vector type is
// inferred from the first non-null value.
func (s *Store) PopulateVC(vcName string) error {
	col, ok := s.tab.Column(vcName)
	if !ok || !col.Virtual || col.Expr == nil {
		return fmt.Errorf("imc: %q is not a virtual column of %q", vcName, s.tab.Name)
	}
	return s.populate(func(next *Image, rows []store.Row, tombs []bool) error {
		b := newVectorBuilder(len(rows))
		for rid, row := range rows {
			if rid < len(tombs) && tombs[rid] {
				b.addVal(colVal{})
				continue
			}
			v, err := col.Expr(row)
			if err != nil {
				return fmt.Errorf("imc: row %d: %w", rid, err)
			}
			b.addVal(valOf(v))
		}
		vec := b.build()
		mPopRows.Add(int64(vec.Len()))
		mPopBytes.Add(int64(vec.MemoryBytes()))
		next.setVector(vcol{name: vcName, expr: col.Expr, vec: vec})
		return nil
	})
}

// populate runs one population under the table's read lock — no write
// commits while build reads the rows — and publishes the image build
// filled in. Rows written since the last fold are folded in first, so
// every part of the published image covers the same row ids and none
// is pending. A store that is not subscribed cannot know what was
// written between two of its populations; it records that they saw
// different tables (skewed), and Subscribe refuses such a store.
func (s *Store) populate(build func(next *Image, rows []store.Row, tombs []bool) error) error {
	var err error
	s.tab.View(func(rows []store.Row, tombs []bool, writes uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		cur := s.img.Load()
		next := cur.folded()
		if err = build(next, rows, tombs); err != nil {
			return
		}
		next.populatedAt(len(rows), writes, cur.skewed || (cur.populated() && cur.writes != writes))
		mPopulations.Inc()
		s.publish(cur, next)
	})
	return err
}

// publish makes next the store's image and moves the gauges by the
// difference to cur, the image it replaces. The caller holds s.mu.
func (s *Store) publish(cur, next *Image) {
	for i := 0; i < max(len(cur.vcs), len(next.vcs)); i++ {
		var old, built *Vector
		if i < len(cur.vcs) {
			old = cur.vcs[i].vec
		}
		if i < len(next.vcs) {
			built = next.vcs[i].vec
		}
		if old == built {
			continue // a written row leaves the vectors alone
		}
		if old != nil {
			gBytesDict.Add(-int64(old.DictBytes()))
			gBytesCodes.Add(-int64(old.CodesBytes()))
		}
		if built != nil {
			gBytesDict.Add(int64(built.DictBytes()))
			gBytesCodes.Add(int64(built.CodesBytes()))
		}
	}
	if s.subscribed {
		gDeltaRows.Add(int64(next.delta.count() - cur.delta.count()))
	}
	s.img.Store(next)
}

// Subscribe starts the maintenance of the store under DML: from here
// on the table tells it of every committed write (RowWritten). The
// engine subscribes a store when it is attached. A store whose image
// does not describe the table as it is now — rows were written since
// it was populated, or between two of its populations — cannot be
// brought up to date from the writes to come: it is marked broken, with
// the reason, and scans read the table itself until it is populated
// again. The check and the subscription happen under one table lock, so
// no write falls between them.
func (s *Store) Subscribe() {
	s.tab.Subscribe(s, func(_ []store.Row, _ []bool, writes uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		cur := s.img.Load()
		if !s.subscribed {
			s.subscribed = true
			gDeltaRows.Add(int64(cur.delta.count()))
		}
		if cur.populated() && cur.broken == "" && (cur.skewed || cur.writes != writes) {
			s.publish(cur, brokenImage(fmt.Sprintf("populated at write %d of the table, attached at write %d", cur.writes, writes)))
		}
	})
}

// Unsubscribe ends the maintenance: the engine calls it when the store
// is detached. The image stays readable as it is.
func (s *Store) Unsubscribe() {
	s.tab.Unsubscribe(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subscribed {
		s.subscribed = false
		gDeltaRows.Add(-int64(s.img.Load().delta.count()))
	}
}

// RowWritten implements store.WriteObserver: it computes the in-memory
// image of the one written row — its OSON encoding and each populated
// virtual column's value, as population computes them per row — and
// publishes an image that serves it in place of what the vectors hold
// for the row id. Past foldThreshold pending rows the new image is a
// folded one. It runs under the table's write lock, so images follow
// each other in commit order; a row that cannot be maintained marks the
// store broken instead of failing the write.
func (s *Store) RowWritten(rowID int, _, row store.Row, writes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.img.Load()
	if !cur.populated() || cur.broken != "" {
		return
	}
	next, err := cur.written(rowID, row, writes)
	if err != nil {
		s.publish(cur, brokenImage(fmt.Sprintf("row %d could not be maintained: %v", rowID, err)))
		return
	}
	mRowsMaintained.Inc()
	s.publish(cur, next)
}

// Substitute implements sqlengine.InMemorySource on the current image.
func (s *Store) Substitute(rowID int, col string) (jsondom.Value, bool) {
	return s.img.Load().Substitute(rowID, col)
}

// CompileBatchFilter compiles a predicate kernel against the current
// image (Image.CompileBatchFilter).
func (s *Store) CompileBatchFilter(col, op string, operands []jsondom.Value) (BatchKernel, bool) {
	return s.img.Load().CompileBatchFilter(col, op, operands)
}

func numericOperand(v jsondom.Value) (float64, bool) {
	c := valOf(v)
	return c.num, c.kind == kindNum
}

// Vector returns a populated vector by column name, as it was last
// built: rows written since are not in it (Image.Vector says when that
// matters).
func (s *Store) Vector(name string) (*Vector, bool) {
	if vc := s.img.Load().vcol(name); vc != nil {
		return vc.vec, true
	}
	return nil, false
}

// PopulatedColumns lists the populated column vectors in sorted order.
func (s *Store) PopulatedColumns() []string { return s.img.Load().PopulatedColumns() }

// MemoryBytes reports the total in-memory footprint: OSON bytes plus
// vector bytes, the pending rows' documents included.
func (s *Store) MemoryBytes() int {
	m := s.img.Load()
	total := 0
	for _, d := range m.osonDocs {
		total += docBytes(d)
	}
	if m.sharedDict != nil {
		total += m.sharedDict.MemoryBytes()
	}
	for _, vc := range m.vcs {
		total += vc.vec.MemoryBytes()
	}
	if m.delta != nil {
		for _, cd := range m.delta.chunks {
			if cd != nil {
				for _, d := range cd.docs {
					total += docBytes(d)
				}
			}
		}
	}
	return total
}
