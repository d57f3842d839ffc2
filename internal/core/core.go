// Package core is the public face of the FSDM (Flexible Schema Data
// Management) library: a single embedded database engine that manages
// schema-less JSON collections alongside relational tables, realizing
// the paper's "write without schema, read with schema" paradigm (§1).
//
// A Collection stores JSON documents without any upfront schema
// (NoSQL-style ingestion). From there:
//
//   - DataGuide() computes the dynamic soft schema (§3);
//   - EnableSearchIndex(true) maintains it persistently as documents
//     arrive (§3.2);
//   - AddVirtualColumns() and CreateView() project relational columns
//     and De-normalized Master-Detail Views over the documents (§3.3),
//     after which plain SQL — joins, grouping, window functions —
//     works against the JSON data;
//   - PopulateInMemory() loads the collection into the dual-format
//     in-memory store (OSON documents and/or columnar virtual
//     columns, §5.2) to accelerate SQL/JSON queries transparently; the
//     store stays consistent with the collection under every write.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/dataguide"
	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/searchindex"
	"repro/internal/sqlengine"
	"repro/internal/store"
	"repro/internal/viewgen"
)

// DB is an embedded FSDM database.
type DB struct {
	eng *sqlengine.Engine
}

// Open creates an empty database.
func Open() *DB {
	return &DB{eng: sqlengine.New()}
}

// SQL exposes the SQL engine for arbitrary statements.
func (db *DB) SQL() *sqlengine.Engine { return db.eng }

// Exec runs one SQL statement.
func (db *DB) Exec(sql string, params ...jsondom.Value) (*sqlengine.Result, error) {
	return db.eng.Exec(sql, params...)
}

// Query is Exec for queries; it exists for call-site readability.
func (db *DB) Query(sql string, params ...jsondom.Value) (*sqlengine.Result, error) {
	return db.eng.Exec(sql, params...)
}

// ExecContext runs one SQL statement under the caller's context:
// long-running scans and aggregations observe cancellation and
// timeouts cooperatively.
func (db *DB) ExecContext(ctx context.Context, sql string, params ...jsondom.Value) (*sqlengine.Result, error) {
	return db.eng.ExecContext(ctx, sql, params...)
}

// QueryContext is ExecContext for queries.
func (db *DB) QueryContext(ctx context.Context, sql string, params ...jsondom.Value) (*sqlengine.Result, error) {
	return db.eng.QueryContext(ctx, sql, params...)
}

// Collection is a JSON document collection backed by a relational
// table with an id column and an IS JSON document column — the storage
// pattern of §3.2.
type Collection struct {
	db   *DB
	name string
	tab  *store.Table
	seq  atomic.Int64

	sx  *searchindex.Index
	mem *imc.Store
}

// KeyColumn and DocColumn name the collection's two stored columns.
const (
	KeyColumn = "did"
	DocColumn = "jdoc"
)

// CreateCollection creates a JSON collection.
func (db *DB) CreateCollection(name string) (*Collection, error) {
	name = strings.ToLower(name)
	ddl := fmt.Sprintf(
		`create table %s (%s number primary key, %s varchar2(0) check (%s is json))`,
		name, KeyColumn, DocColumn, DocColumn)
	if _, err := db.eng.Exec(ddl); err != nil {
		return nil, err
	}
	tab, _ := db.eng.Catalog().Table(name)
	return &Collection{db: db, name: name, tab: tab}, nil
}

// Collection returns an existing collection handle.
func (db *DB) Collection(name string) (*Collection, bool) {
	tab, ok := db.eng.Catalog().Table(strings.ToLower(name))
	if !ok {
		return nil, false
	}
	c := &Collection{db: db, name: tab.Name, tab: tab}
	c.seq.Store(int64(tab.NumRows()))
	return c, true
}

// Name returns the collection (table) name.
func (c *Collection) Name() string { return c.name }

// Table exposes the backing table.
func (c *Collection) Table() *store.Table { return c.tab }

// Put stores one document and returns its id. The document is
// serialized to compact JSON text — the schema-less write path.
func (c *Collection) Put(doc jsondom.Value) (int64, error) {
	return c.PutText(jsontext.SerializeString(doc))
}

// PutText stores a document given as JSON text; the IS JSON check
// constraint validates it.
func (c *Collection) PutText(text string) (int64, error) {
	id := c.seq.Add(1)
	_, err := c.tab.Insert(store.Row{jsondom.NumberFromInt(id), jsondom.String(text)})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Get fetches a document by id.
func (c *Collection) Get(id int64) (jsondom.Value, error) {
	rid, ok := c.tab.LookupPK(jsondom.NumberFromInt(id))
	if !ok {
		return nil, fmt.Errorf("core: no document %d in %s", id, c.name)
	}
	row, _ := c.tab.Get(rid)
	s, ok := row[1].(jsondom.String)
	if !ok {
		return nil, fmt.Errorf("core: document %d is NULL", id)
	}
	return jsontext.Parse([]byte(s))
}

// Count returns the number of documents.
func (c *Collection) Count() int { return c.tab.NumRows() }

// Delete removes a document by id. The persistent DataGuide remains
// additive (§3.4): paths contributed by deleted documents are not
// removed.
func (c *Collection) Delete(id int64) error {
	rid, ok := c.tab.LookupPK(jsondom.NumberFromInt(id))
	if !ok {
		return fmt.Errorf("core: no document %d in %s", id, c.name)
	}
	c.tab.Delete(rid)
	return nil
}

// Replace overwrites the document stored under id; the IS JSON
// constraint re-validates the new text.
func (c *Collection) Replace(id int64, doc jsondom.Value) error {
	rid, ok := c.tab.LookupPK(jsondom.NumberFromInt(id))
	if !ok {
		return fmt.Errorf("core: no document %d in %s", id, c.name)
	}
	return c.tab.Update(rid, store.Row{
		jsondom.NumberFromInt(id),
		jsondom.String(jsontext.SerializeString(doc)),
	})
}

// DataGuide computes the collection's DataGuide. With a search index
// maintaining a persistent DataGuide, that guide is returned;
// otherwise a transient guide is aggregated on the fly
// (JSON_DATAGUIDEAGG, §3.4).
func (c *Collection) DataGuide() (*dataguide.Guide, error) {
	if c.sx != nil && c.sx.DataGuideEnabled() {
		return c.sx.Guide(), nil
	}
	g := dataguide.New()
	var err error
	c.tab.Scan(func(rid int, row store.Row) bool {
		s, ok := row[1].(jsondom.String)
		if !ok {
			return true
		}
		var dom jsondom.Value
		dom, err = jsontext.Parse([]byte(s))
		if err != nil {
			return false
		}
		g.Add(dom)
		return true
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// EnableSearchIndex creates the schema-agnostic JSON search index over
// the collection; withDataGuide turns on persistent DataGuide
// maintenance (§3.2).
func (c *Collection) EnableSearchIndex(withDataGuide bool) error {
	params := ""
	if withDataGuide {
		params = " parameters ('DATAGUIDE ON')"
	}
	ddl := fmt.Sprintf(`create search index %s_sx on %s (%s)%s`,
		c.name, c.name, DocColumn, params)
	if _, err := c.db.eng.Exec(ddl); err != nil {
		return err
	}
	c.sx, _ = c.db.eng.SearchIndex(c.name + "_sx")
	return nil
}

// SearchIndex returns the collection's search index, if enabled.
func (c *Collection) SearchIndex() (*searchindex.Index, bool) {
	return c.sx, c.sx != nil
}

// AddVirtualColumns projects every singleton scalar path of the
// DataGuide as a JSON_VALUE virtual column on the collection table
// (AddVC, §3.3.1).
func (c *Collection) AddVirtualColumns() ([]viewgen.AddVCResult, error) {
	g, err := c.DataGuide()
	if err != nil {
		return nil, err
	}
	return viewgen.AddVC(c.db.eng, c.name, DocColumn, g)
}

// CreateView generates a De-normalized Master-Detail View for the
// given path (CreateViewOnPath, §3.3.2) and returns its DDL.
func (c *Collection) CreateView(viewName, rootPath string, minFrequencyPct int) (string, error) {
	g, err := c.DataGuide()
	if err != nil {
		return "", err
	}
	return viewgen.CreateViewOnPath(c.db.eng, viewName, c.name, DocColumn, g, viewgen.ViewOptions{
		RootPath:        rootPath,
		MinFrequencyPct: minFrequencyPct,
		KeyColumns:      []string{KeyColumn},
	})
}

// PopulateInMemory loads the collection into the in-memory store:
// when osonDocs is set, documents are encoded to OSON and substituted
// for the text column during scans (§5.2.2); vcNames are virtual
// columns to materialize as column vectors (§5.2.1).
func (c *Collection) PopulateInMemory(osonDocs bool, vcNames ...string) error {
	if c.mem == nil {
		c.mem = imc.NewStore(c.tab)
	}
	if osonDocs {
		if err := c.mem.PopulateOSON(DocColumn); err != nil {
			return err
		}
	}
	for _, vc := range vcNames {
		if err := c.mem.PopulateVC(vc); err != nil {
			return err
		}
	}
	c.db.eng.AttachIMC(c.name, c.mem)
	return nil
}

// PopulateInMemorySetEncoded is PopulateInMemory(true, ...) using the
// OSON *set encoding* the paper proposes as future work (§7): all
// in-memory documents share one merged field-name dictionary, cutting
// memory for homogeneous collections and making field-id resolution a
// store-wide one-time operation.
func (c *Collection) PopulateInMemorySetEncoded(vcNames ...string) error {
	if c.mem == nil {
		c.mem = imc.NewStore(c.tab)
	}
	if err := c.mem.PopulateOSONShared(DocColumn); err != nil {
		return err
	}
	for _, vc := range vcNames {
		if err := c.mem.PopulateVC(vc); err != nil {
			return err
		}
	}
	c.db.eng.AttachIMC(c.name, c.mem)
	return nil
}

// EvictInMemory detaches the in-memory store and ends its subscription
// to the collection's writes; queries fall back to the on-disk text
// format. (No write detaches it: Put, Replace, Delete and SQL DML keep
// it attached and consistent.)
func (c *Collection) EvictInMemory() {
	c.db.eng.DetachIMC(c.name)
	c.mem = nil
}

// InMemoryBytes reports the in-memory store footprint, 0 when not
// populated.
func (c *Collection) InMemoryBytes() int {
	if c.mem == nil {
		return 0
	}
	return c.mem.MemoryBytes()
}
