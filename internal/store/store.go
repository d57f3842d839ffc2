// Package store implements the relational storage substrate: a catalog
// of tables with typed columns, check constraints (notably IS JSON),
// virtual columns, and primary/foreign key hash indexes.
//
// It stands in for the Oracle storage kernel the paper builds on: the
// experiments only require heap tables with typed columns, an IS JSON
// validation hook on insert (§3.2.1, Figure 7), a list of write
// subscribers that keeps the search index, its DataGuide and the
// in-memory store in step with every insert, update and delete, and key
// indexes for the relational (REL) baseline of §6.3.
//
// SQL data values are represented with jsondom scalars: SQL NULL is
// jsondom.Null, NUMBER is jsondom.Number (exact decimal), VARCHAR2 is
// jsondom.String, RAW is jsondom.Binary. This unifies SQL expression
// evaluation with SQL/JSON path results.
package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
)

// ColumnType enumerates supported SQL column types.
type ColumnType uint8

// The column types used by the paper's experiments.
const (
	TypeNumber  ColumnType = iota // NUMBER: exact decimal
	TypeVarchar                   // VARCHAR2(n): text (JSON documents in §6 are varchar(4000))
	TypeRaw                       // RAW(n): binary (BSON/OSON storage)
	TypeBool                      // BOOLEAN (for expression results)
)

// String renders the column type in DDL spelling.
func (t ColumnType) String() string {
	switch t {
	case TypeNumber:
		return "number"
	case TypeVarchar:
		return "varchar2"
	case TypeRaw:
		return "raw"
	case TypeBool:
		return "boolean"
	}
	return "unknown"
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColumnType
	// MaxLen bounds varchar/raw lengths; 0 = unbounded.
	MaxLen int
	// CheckJSON enforces the IS JSON constraint on insert (§3.2.1).
	CheckJSON bool
	// Virtual columns are computed on read by Expr and never stored.
	// ExprText is the defining SQL text (for introspection and view
	// DDL); Expr is installed by the SQL layer.
	Virtual  bool
	ExprText string
	Expr     func(row Row) (jsondom.Value, error)
	// Hidden columns are excluded from SELECT * expansion (the implicit
	// OSON virtual column of §5.2.2 is hidden).
	Hidden bool
}

// Row is one stored tuple; index i corresponds to the table's stored
// (non-virtual) column i.
type Row []jsondom.Value

// WriteObserver is told of every committed write to a table, under the
// table's write lock and in commit order: the JSON search index keeps
// its postings and the persistent DataGuide (§3.2.1), the in-memory
// store (§5.2) its columnar image, consistent with the row store. old
// is the row stored under rowID before the write, nil for an insert;
// row is the row stored after it, nil for a delete; writes is the
// table's write count including this write (Table.View reports the
// same count to a reader). A subscriber cannot fail a write, and
// RowWritten must not call back into the table.
type WriteObserver interface {
	RowWritten(rowID int, old, row Row, writes uint64)
}

// Common errors.
var (
	ErrNoSuchColumn = errors.New("store: no such column")
	ErrDuplicate    = errors.New("store: duplicate key")
	ErrConstraint   = errors.New("store: constraint violation")
	ErrType         = errors.New("store: type mismatch")
)

// Table is a heap table with optional key indexes and write
// subscribers.
type Table struct {
	Name string

	mu        sync.RWMutex
	columns   []Column       // stored columns then virtual columns
	colIndex  map[string]int // name -> position in columns
	numStored int
	rows      []Row

	pkCol   int // -1 when no primary key
	pkIndex map[string]int
	// pkLoose is set, and never cleared, once a key outside the class
	// sqlExactKey accepts has been indexed: from then on two keys SQL
	// calls equal may sit under different index entries (ProbePK).
	pkLoose bool
	// subscribers hear of every committed write; writes counts them.
	subscribers []WriteObserver
	writes      uint64

	// tombstones marks deleted rows (row ids stay stable); live counts
	// visible rows.
	tombstones []bool
	live       int
}

// NewTable creates a table with the given stored columns.
func NewTable(name string, cols ...Column) (*Table, error) {
	t := &Table{Name: name, colIndex: make(map[string]int), pkCol: -1}
	for _, c := range cols {
		if err := t.addColumnLocked(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustNewTable creates a table or panics; for fixtures.
func MustNewTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) addColumnLocked(c Column) error {
	if _, dup := t.colIndex[c.Name]; dup {
		return fmt.Errorf("store: duplicate column %q in table %q", c.Name, t.Name)
	}
	if c.Virtual {
		t.colIndex[c.Name] = len(t.columns)
		t.columns = append(t.columns, c)
		return nil
	}
	if len(t.columns) != t.numStored {
		return fmt.Errorf("store: stored column %q added after virtual columns", c.Name)
	}
	t.colIndex[c.Name] = len(t.columns)
	t.columns = append(t.columns, c)
	t.numStored++
	return nil
}

// AddVirtualColumn appends a virtual column; used by AddVC (§3.3.1)
// and the hidden OSON column (§5.2.2).
func (t *Table) AddVirtualColumn(c Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Virtual = true
	return t.addColumnLocked(c)
}

// SetPrimaryKey installs a unique hash index on the named column.
func (t *Table) SetPrimaryKey(col string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.colIndex[col]
	if !ok || t.columns[i].Virtual {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, col)
	}
	idx := make(map[string]int, len(t.rows))
	loose := false
	for rid, row := range t.rows {
		k := keyString(row[i])
		if _, dup := idx[k]; dup {
			return fmt.Errorf("%w: %s on existing rows", ErrDuplicate, col)
		}
		idx[k] = rid
		loose = loose || looseKey(t.columns[i].Type, row[i])
	}
	t.pkCol, t.pkIndex, t.pkLoose = i, idx, loose
	return nil
}

// Subscribe calls fn with the table as View would show it and adds o to
// the subscribers, unless it is one already, both under the write lock:
// o hears of every write that commits after what fn saw, and of no
// other. Like RowWritten, fn must not call back into the table.
func (t *Table) Subscribe(o WriteObserver, fn func(rows []Row, tombs []bool, writes uint64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t.rows, t.tombstones, t.writes)
	if !slices.Contains(t.subscribers, o) {
		t.subscribers = append(t.subscribers, o)
	}
}

// Unsubscribe ends o's subscription; it does nothing when o is not
// subscribed.
func (t *Table) Unsubscribe(o WriteObserver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.subscribers = slices.DeleteFunc(t.subscribers, func(x WriteObserver) bool { return x == o })
}

// wrote counts one committed write and tells the subscribers, in the
// order they subscribed. The caller holds the write lock.
func (t *Table) wrote(rowID int, old, row Row) {
	t.writes++
	for _, o := range t.subscribers {
		o.RowWritten(rowID, old, row, t.writes)
	}
}

// Columns returns all columns (stored then virtual). The slice is a
// copy.
func (t *Table) Columns() []Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Column(nil), t.columns...)
}

// Column returns the named column.
func (t *Table) Column(name string) (Column, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.colIndex[name]
	if !ok {
		return Column{}, false
	}
	return t.columns[i], true
}

// ColumnPos returns the position of the named column within Columns().
func (t *Table) ColumnPos(name string) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.colIndex[name]
	return i, ok
}

// NumRows returns the count of visible (non-deleted) rows.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// MaxRowID returns the exclusive upper bound of row ids ever assigned;
// scans iterate [0, MaxRowID) and skip deleted rows.
func (t *Table) MaxRowID() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert validates and appends a row (stored columns only, in table
// order) and returns its row id.
func (t *Table) Insert(row Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(row) != t.numStored {
		return 0, fmt.Errorf("%w: got %d values for %d stored columns of %s",
			ErrType, len(row), t.numStored, t.Name)
	}
	for i := 0; i < t.numStored; i++ {
		if err := checkValue(&t.columns[i], row[i]); err != nil {
			return 0, err
		}
	}
	if t.pkCol >= 0 {
		k := keyString(row[t.pkCol])
		if _, dup := t.pkIndex[k]; dup {
			return 0, fmt.Errorf("%w: %s=%s in %s", ErrDuplicate,
				t.columns[t.pkCol].Name, k, t.Name)
		}
		t.pkIndex[k] = len(t.rows)
		t.pkLoose = t.pkLoose || looseKey(t.columns[t.pkCol].Type, row[t.pkCol])
	}
	rid := len(t.rows)
	t.rows = append(t.rows, row)
	t.live++
	t.wrote(rid, nil, row)
	return rid, nil
}

// checkValue enforces column typing, length bounds and IS JSON.
func checkValue(c *Column, v jsondom.Value) error {
	if v.Kind() == jsondom.KindNull {
		return nil
	}
	switch c.Type {
	case TypeNumber:
		if v.Kind() != jsondom.KindNumber && v.Kind() != jsondom.KindDouble {
			return fmt.Errorf("%w: column %s is NUMBER, got %v", ErrType, c.Name, v.Kind())
		}
	case TypeVarchar:
		s, ok := v.(jsondom.String)
		if !ok {
			return fmt.Errorf("%w: column %s is VARCHAR2, got %v", ErrType, c.Name, v.Kind())
		}
		if c.MaxLen > 0 && len(s) > c.MaxLen {
			return fmt.Errorf("%w: value too long for %s(%d): %d bytes",
				ErrConstraint, c.Name, c.MaxLen, len(s))
		}
		if c.CheckJSON && !jsontext.Valid([]byte(s)) {
			return fmt.Errorf("%w: column %s IS JSON check failed", ErrConstraint, c.Name)
		}
	case TypeRaw:
		b, ok := v.(jsondom.Binary)
		if !ok {
			return fmt.Errorf("%w: column %s is RAW, got %v", ErrType, c.Name, v.Kind())
		}
		if c.MaxLen > 0 && len(b) > c.MaxLen {
			return fmt.Errorf("%w: value too long for %s(%d): %d bytes",
				ErrConstraint, c.Name, c.MaxLen, len(b))
		}
	case TypeBool:
		if v.Kind() != jsondom.KindBool {
			return fmt.Errorf("%w: column %s is BOOLEAN, got %v", ErrType, c.Name, v.Kind())
		}
	}
	return nil
}

// Get returns the stored row with the given id; deleted rows are not
// visible.
func (t *Table) Get(rowID int) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if rowID < 0 || rowID >= len(t.rows) || t.deleted(rowID) {
		return nil, false
	}
	return t.rows[rowID], true
}

func (t *Table) deleted(rowID int) bool {
	return rowID < len(t.tombstones) && t.tombstones[rowID]
}

// Delete tombstones a row; row ids are stable. The subscribers are told
// the row it held, so the search index drops its postings; the
// persistent DataGuide stays additive (§3.4).
func (t *Table) Delete(rowID int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rowID < 0 || rowID >= len(t.rows) || t.deleted(rowID) {
		return false
	}
	for len(t.tombstones) < len(t.rows) {
		t.tombstones = append(t.tombstones, false)
	}
	t.tombstones[rowID] = true
	t.live--
	if t.pkCol >= 0 {
		delete(t.pkIndex, keyString(t.rows[rowID][t.pkCol]))
	}
	t.wrote(rowID, t.rows[rowID], nil)
	return true
}

// Update replaces the stored columns of a row, enforcing the same
// checks as Insert.
func (t *Table) Update(rowID int, row Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rowID < 0 || rowID >= len(t.rows) || t.deleted(rowID) {
		return fmt.Errorf("store: row %d not found in %s", rowID, t.Name)
	}
	if len(row) != t.numStored {
		return fmt.Errorf("%w: got %d values for %d stored columns of %s",
			ErrType, len(row), t.numStored, t.Name)
	}
	for i := 0; i < t.numStored; i++ {
		if err := checkValue(&t.columns[i], row[i]); err != nil {
			return err
		}
	}
	if t.pkCol >= 0 {
		oldKey := keyString(t.rows[rowID][t.pkCol])
		newKey := keyString(row[t.pkCol])
		if newKey != oldKey {
			if _, dup := t.pkIndex[newKey]; dup {
				return fmt.Errorf("%w: %s in %s", ErrDuplicate, newKey, t.Name)
			}
			delete(t.pkIndex, oldKey)
			t.pkIndex[newKey] = rowID
			t.pkLoose = t.pkLoose || looseKey(t.columns[t.pkCol].Type, row[t.pkCol])
		}
	}
	old := t.rows[rowID]
	t.rows[rowID] = row
	t.wrote(rowID, old, row)
	return nil
}

// LookupPK returns the row id for a primary key value.
func (t *Table) LookupPK(v jsondom.Value) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkCol < 0 {
		return 0, false
	}
	rid, ok := t.pkIndex[keyString(v)]
	return rid, ok
}

// PrimaryKey returns the name of the primary-key column; ok is false
// when the table has none.
func (t *Table) PrimaryKey() (name string, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkCol < 0 {
		return "", false
	}
	return t.columns[t.pkCol].Name, true
}

// ProbePK answers the SQL predicate `pk = v` from the key index: found
// and rowID name the one visible row whose key equals v. exact is false
// when the index cannot stand in for the comparison and the caller must
// evaluate it row by row — the table has no primary key, or v or some
// key ever indexed lies outside the class sqlExactKey describes.
func (t *Table) ProbePK(v jsondom.Value) (rowID int, found, exact bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkCol < 0 || t.pkLoose || !sqlExactKey(t.columns[t.pkCol].Type, v) {
		return 0, false, false
	}
	rowID, found = t.pkIndex[keyString(v)]
	return rowID, found, true
}

// sqlExactKey reports whether v belongs to the key values on which the
// index's equality (equal serialisations) and SQL's coincide: strings
// in a VARCHAR2 column, and canonical integers of at most 15 digits in
// a NUMBER column — SQL `=` compares numbers as float64, which tells any
// two of those apart but calls 5 and 5.0000000000000000001 equal, as it
// does a number and a numeric string.
func sqlExactKey(typ ColumnType, v jsondom.Value) bool {
	switch k := v.(type) {
	case jsondom.String:
		return typ == TypeVarchar
	case jsondom.Number:
		if typ != TypeNumber {
			return false
		}
		digits := strings.TrimPrefix(string(k), "-")
		if len(digits) == 0 || len(digits) > 15 || (digits[0] == '0' && string(k) != "0") {
			return false
		}
		for i := 0; i < len(digits); i++ {
			if digits[i] < '0' || digits[i] > '9' {
				return false
			}
		}
		return true
	}
	return false
}

// looseKey reports whether indexing v makes the key index inexact for
// SQL equality. A NULL key is harmless: no `=` is ever true of it, and
// no exact probe value serialises as it does.
func looseKey(typ ColumnType, v jsondom.Value) bool {
	return v.Kind() != jsondom.KindNull && !sqlExactKey(typ, v)
}

// valueParts resolves the column and row behind Value under the read
// lock; the (possibly expensive) virtual-column evaluation runs
// outside it.
func (t *Table) valueParts(rowID int, col string) (Column, Row, int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.colIndex[col]
	if !ok {
		return Column{}, nil, 0, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, col)
	}
	if rowID < 0 || rowID >= len(t.rows) {
		return Column{}, nil, 0, fmt.Errorf("store: row %d out of range in %s", rowID, t.Name)
	}
	return t.columns[i], t.rows[rowID], i, nil
}

// Value returns the value of the named column for a row, computing
// virtual columns on demand.
func (t *Table) Value(rowID int, col string) (jsondom.Value, error) {
	c, row, i, err := t.valueParts(rowID, col)
	if err != nil {
		return nil, err
	}
	if !c.Virtual {
		return row[i], nil
	}
	if c.Expr == nil {
		return jsondom.Null{}, nil
	}
	return c.Expr(row)
}

// Scan invokes fn for every row id/stored row in insertion order,
// stopping early if fn returns false.
func (t *Table) Scan(fn func(rowID int, row Row) bool) {
	rows, tombs := t.Snapshot()
	for i, r := range rows {
		if i < len(tombs) && tombs[i] {
			continue
		}
		if !fn(i, r) {
			return
		}
	}
}

// Snapshot returns the current row and tombstone slices under one lock
// acquisition. Appends never move what a snapshot holds, so an
// insert-only table can be iterated without further locking. Update
// and Delete, however, write t.rows[rowID] and the tombstone in place:
// a scan that iterates a snapshot while a row it holds is updated or
// deleted races with that write, and may see either version of the row
// (a known race; copy-on-write snapshots would close it).
func (t *Table) Snapshot() ([]Row, []bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows, t.tombstones
}

// View calls fn with every row id's stored row, the tombstones
// (tombs[i] is true for a deleted row; the slice may be shorter than
// rows) and the table's write count, holding the read lock throughout:
// no write commits while fn runs, so what fn builds describes the table
// as of exactly that write count. fn must not call back into the table.
func (t *Table) View(fn func(rows []Row, tombs []bool, writes uint64)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fn(t.rows, t.tombstones, t.writes)
}

// Partitions splits the row-id space [0, MaxRowID()) into at most k
// contiguous [lo, hi) ranges of near-equal size for parallel scans.
// Empty ranges are omitted, so fewer than k partitions come back for
// small tables.
func (t *Table) Partitions(k int) [][2]int {
	n := t.MaxRowID()
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

// StorageBytes estimates on-disk storage: the sum of stored value
// sizes (Figure 4's storage size comparison).
func (t *Table) StorageBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for i, row := range t.rows {
		if t.deleted(i) {
			continue
		}
		for _, v := range row {
			total += datumBytes(v)
		}
	}
	// index overhead: one entry per indexed row (key pointer + row id)
	if t.pkCol >= 0 {
		total += 12 * len(t.rows)
	}
	return total
}

func datumBytes(v jsondom.Value) int {
	switch d := v.(type) {
	case jsondom.Null:
		return 1
	case jsondom.Bool:
		return 1
	case jsondom.Number:
		return len(d)/2 + 2 // packed-decimal estimate
	case jsondom.Double:
		return 8
	case jsondom.String:
		return len(d)
	case jsondom.Binary:
		return len(d)
	case jsondom.Timestamp:
		return 8
	default:
		return len(jsontext.Serialize(v))
	}
}

// keyString renders a datum as a hash key.
func keyString(v jsondom.Value) string {
	return jsontext.SerializeString(v)
}

// Catalog is a named collection of tables (and, at the SQL layer,
// views); it stands in for the data dictionary.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a table; the name must be unused.
func (c *Catalog) Create(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("store: table %q already exists", t.Name)
	}
	c.tables[t.Name] = t
	return nil
}

// Drop removes a table.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return false
	}
	delete(c.tables, name)
	return true
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
