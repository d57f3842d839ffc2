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
// attached with Engine.AttachIMC.
package imc

import (
	"fmt"
	"sync"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/store"
)

// Store is the in-memory representation of one table.
type Store struct {
	mu  sync.RWMutex
	tab *store.Table

	osonCol  string
	osonDocs []jsondom.Value // Binary OSON per row; Null where source was NULL
	// sharedDict is set when the OSON column was populated with the set
	// encoding of §7 (one merged dictionary for the whole store).
	sharedDict *oson.SharedDict

	vectors map[string]*Vector
}

// NewStore creates an empty in-memory store for a table.
func NewStore(tab *store.Table) *Store {
	return &Store{tab: tab, vectors: make(map[string]*Vector)}
}

// PopulateOSON encodes the named JSON text column of every row into
// OSON (§5.2.2's implicit OSON() constructor invocation during
// population). Rows whose column is NULL or not a string are left
// unsubstituted.
func (s *Store) PopulateOSON(jsonCol string) error {
	pos, ok := s.tab.ColumnPos(jsonCol)
	if !ok {
		return fmt.Errorf("imc: no column %q in table %q", jsonCol, s.tab.Name)
	}
	docs := make([]jsondom.Value, 0, s.tab.NumRows())
	var encErr error
	s.tab.Scan(func(rid int, row store.Row) bool {
		v := row[pos]
		str, ok := v.(jsondom.String)
		if !ok {
			docs = append(docs, jsondom.Null{})
			return true
		}
		b, err := oson.FromJSONText([]byte(str))
		if err != nil {
			encErr = fmt.Errorf("imc: row %d: %w", rid, err)
			return false
		}
		docs = append(docs, jsondom.Binary(b))
		return true
	})
	if encErr != nil {
		return encErr
	}
	var bytes int64
	for _, d := range docs {
		if b, ok := d.(jsondom.Binary); ok {
			bytes += int64(len(b))
		}
	}
	mPopulations.Inc()
	mPopRows.Add(int64(len(docs)))
	mPopBytes.Add(bytes)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.osonCol = jsonCol
	s.osonDocs = docs
	return nil
}

// PopulateOSONShared is PopulateOSON using the OSON set encoding of
// §7: all documents share one merged field-name dictionary, removing
// the per-document dictionary segments from memory and making field-id
// resolution a one-time, store-wide operation.
func (s *Store) PopulateOSONShared(jsonCol string) error {
	pos, ok := s.tab.ColumnPos(jsonCol)
	if !ok {
		return fmt.Errorf("imc: no column %q in table %q", jsonCol, s.tab.Name)
	}
	dict := oson.NewSharedDict()
	docs := make([]jsondom.Value, 0, s.tab.NumRows())
	var encErr error
	s.tab.Scan(func(rid int, row store.Row) bool {
		str, ok := row[pos].(jsondom.String)
		if !ok {
			docs = append(docs, jsondom.Null{})
			return true
		}
		dom, err := jsontext.Parse([]byte(str))
		if err != nil {
			encErr = fmt.Errorf("imc: row %d: %w", rid, err)
			return false
		}
		b, err := oson.EncodeShared(dom, dict)
		if err != nil {
			encErr = fmt.Errorf("imc: row %d: %w", rid, err)
			return false
		}
		doc, err := oson.ParseShared(b, dict)
		if err != nil {
			encErr = fmt.Errorf("imc: row %d: %w", rid, err)
			return false
		}
		docs = append(docs, oson.SharedValue{Doc: doc})
		return true
	})
	if encErr != nil {
		return encErr
	}
	var bytes int64
	for _, d := range docs {
		if sv, ok := d.(oson.SharedValue); ok {
			bytes += int64(len(sv.Doc.Bytes()))
		}
	}
	mPopulations.Inc()
	mPopRows.Add(int64(len(docs)))
	mPopBytes.Add(bytes + int64(dict.MemoryBytes()))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.osonCol = jsonCol
	s.osonDocs = docs
	s.sharedDict = dict
	return nil
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
	b := newVectorBuilder(s.tab.NumRows())
	var evalErr error
	s.tab.Scan(func(rid int, row store.Row) bool {
		v, err := col.Expr(row)
		if err != nil {
			evalErr = fmt.Errorf("imc: row %d: %w", rid, err)
			return false
		}
		b.add(v)
		return true
	})
	if evalErr != nil {
		return evalErr
	}
	vec := b.build()
	mPopulations.Inc()
	mPopRows.Add(int64(vec.Len()))
	mPopBytes.Add(int64(vec.MemoryBytes()))
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.vectors[vcName]
	s.vectors[vcName] = vec
	if old != nil {
		gBytesDict.Add(-int64(old.DictBytes()))
		gBytesCodes.Add(-int64(old.CodesBytes()))
	}
	gBytesDict.Add(int64(vec.DictBytes()))
	gBytesCodes.Add(int64(vec.CodesBytes()))
	return nil
}

// vector returns the populated vector for a column under the read
// lock; compilation of kernels and filters happens outside it.
func (s *Store) vector(col string) (*Vector, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vec, ok := s.vectors[col]
	return vec, ok
}

// numPopulated returns the number of rows materialized by the OSON
// populations.
func (s *Store) numPopulated() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.osonDocs)
}

// Substitute implements sqlengine.InMemorySource.
func (s *Store) Substitute(rowID int, col string) (jsondom.Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if col == s.osonCol && rowID >= 0 && rowID < len(s.osonDocs) {
		v := s.osonDocs[rowID]
		if v != nil && v.Kind() != jsondom.KindNull {
			return v, true
		}
		return nil, false
	}
	if vec, ok := s.vectors[col]; ok && rowID >= 0 && rowID < vec.Len() {
		return vec.Value(rowID), true
	}
	return nil, false
}

// Partitions splits the populated row range [0, len(osonDocs)) into at
// most k contiguous [lo, hi) ranges for parallel consumers, mirroring
// store.Table.Partitions.
func (s *Store) Partitions(k int) [][2]int {
	n := s.numPopulated()
	if k < 1 {
		k = 1
	}
	var parts [][2]int
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi > lo {
			parts = append(parts, [2]int{lo, hi})
		}
	}
	return parts
}

func numericOperand(v jsondom.Value) (float64, bool) {
	switch t := v.(type) {
	case jsondom.Number:
		return t.Float64(), true
	case jsondom.Double:
		return float64(t), true
	}
	return 0, false
}

// Vector returns a populated vector by column name.
func (s *Store) Vector(name string) (*Vector, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vectors[name]
	return v, ok
}

// MemoryBytes reports the total in-memory footprint: OSON bytes plus
// vector bytes.
func (s *Store) MemoryBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, d := range s.osonDocs {
		switch t := d.(type) {
		case jsondom.Binary:
			total += len(t)
		case oson.SharedValue:
			total += len(t.Doc.Bytes())
		}
	}
	if s.sharedDict != nil {
		total += s.sharedDict.MemoryBytes()
	}
	for _, v := range s.vectors {
		total += v.MemoryBytes()
	}
	return total
}
