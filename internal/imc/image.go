// A store that survives DML. Oracle Database In-Memory keeps its
// columnar units immutable and beside them a record of the rows changed
// since population: those are answered from the row format until the
// unit is repopulated [19]. The same here. The populated parts of an
// Image — the OSON documents and the column vectors, with their chunks,
// zone maps and sorted dictionaries — are never written after they are
// built. Beside them the image holds a delta: for every row written
// since, keyed by row id, the row's current in-memory form, computed
// once when the write commits. A row in the delta is stale in the
// populated parts: kernels clear its bit and decide it on the delta
// value instead (vector.go, overlay), Substitute serves the delta
// value. Rows inserted since population exist only in the delta.
//
// Every write publishes a new Image (Store.RowWritten); the one before
// stays valid for the scans that hold it. What two images share is
// either immutable or append-only below the lengths each of them
// records, so a writer never touches what a reader can see.
//
// When the delta outgrows foldThreshold, the write that got it there
// folds it: fresh vectors and a fresh document array are built from the
// old ones and the delta, without evaluating or parsing anything again,
// and published as a clean image.

package imc

import (
	"fmt"
	"slices"

	"repro/internal/jsondom"
	"repro/internal/oson"
	"repro/internal/store"
)

// Image is one immutable state of a Store: what was populated, and the
// rows written since.
type Image struct {
	osonCol    string
	osonPos    int             // position of osonCol in a stored row
	osonDocs   []jsondom.Value // by row id; jsondom.Null where there is no document
	sharedDict *oson.SharedDict
	vcs        []vcol

	// rows is the number of row ids the populated parts cover, writes the
	// table write count the image describes the table at.
	rows   int
	writes uint64
	// skewed: parts of the image were populated at different write counts
	// while the store was not subscribed.
	skewed bool
	// broken, when not empty, says why the store holds nothing although
	// it is attached (Store.Subscribe, Store.RowWritten).
	broken string

	delta *delta // nil when no row is pending
}

// vcol is one populated virtual column: its vector and the expression
// that computes a written row's value.
type vcol struct {
	name string
	expr func(store.Row) (jsondom.Value, error)
	vec  *Vector
}

// delta holds the rows written since the image's vectors were built,
// grouped by vector chunk so that a kernel finds a chunk's pending rows
// without a search and a write copies one chunk's list at most.
type delta struct {
	chunks []*chunkDelta // by chunk number; nil where no row is pending
	n      int           // pending rows
	stale  int           // of them, rows the populated parts also hold
	width  int           // populated virtual columns: values per pending row
}

// chunkDelta is the pending rows of one chunk, ascending by row id:
// row ids[j] has document docs[j] — nil when it has none (NULL, not
// text, or the row was deleted) — and, for the virtual column at
// position ci of Image.vcs, the value vals[j*width+ci]. The values lie
// in one array so that a kernel deciding a chunk's pending rows walks
// memory in order.
type chunkDelta struct {
	ids  []int
	docs []jsondom.Value
	vals []colVal
}

// foldThreshold is the number of pending rows past which a write folds
// the delta into fresh vectors: a sixteenth of the populated rows, and
// at least a quarter chunk. It sits where two measured costs meet
// (BenchmarkReadAfterWrites; EXPERIMENTS.md, "A store that survives
// DML", has the curve). A read pays 10 – 17 ns per pending row: each is
// decided by a comparison outside the kernel's loop. A fold pays about
// 0.28 µs per populated row, spread over the writes that led to it.
// With the threshold proportional to the populated rows both stay in
// proportion at every table size: a write's share of the fold is the
// rebuilding of sixteen rows, 4.5 µs against the 35 µs its own row
// costs, and the pending rows add at most half of what a point read of
// a clean store spends, a quarter on average. On 8,192 rows the two
// added together, per operation, come to 3.9 µs for 80 % reads and
// 4.2 µs for 50 % at a sixteenth; an eighth gives 6.6 and 5.0, a
// thirty-second 3.3 and 5.5, a sixty-fourth 4.4 and 9.5. Below 4,096
// rows the quarter-chunk floor keeps a small table, whose folds cost
// little anyway, from folding every few writes. (A variable only so
// that the package's own benchmark can draw the curve past the
// threshold; nothing else assigns it.)
var foldThreshold = func(rows int) int {
	return max(ChunkSize/4, rows/16)
}

// count returns the number of pending rows (a nil delta has none).
func (d *delta) count() int {
	if d == nil {
		return 0
	}
	return d.n
}

// chunk returns the pending rows of chunk c, nil when there are none.
func (d *delta) chunk(c int) *chunkDelta {
	if d == nil || c >= len(d.chunks) {
		return nil
	}
	return d.chunks[c]
}

// find returns the chunk list rowID is pending in and its position
// there; cd is nil when the row is not pending.
func (d *delta) find(rowID int) (cd *chunkDelta, j int) {
	if cd = d.chunk(rowID / ChunkSize); cd != nil {
		if j, ok := slices.BinarySearch(cd.ids, rowID); ok {
			return cd, j
		}
	}
	return nil, 0
}

// with returns a delta in which rowID is pending with document doc and
// column values vals; populated is the number of row ids the image's
// vectors cover. The receiver is left as it was for the images that
// hold it: a row id past the chunk's last is appended (they do not look
// beyond their own lengths), anything else goes into a copy of the
// chunk's list.
func (d *delta) with(rowID int, doc jsondom.Value, vals []colVal, populated int) *delta {
	c, w := rowID/ChunkSize, len(vals)
	nd, old := &delta{width: w}, d.chunk(c)
	if d != nil {
		*nd = *d
	}
	if old == nil {
		old = &chunkDelta{}
	}
	chunks := make([]*chunkDelta, max(len(nd.chunks), c+1))
	copy(chunks, nd.chunks)
	nd.chunks = chunks
	j, found := slices.BinarySearch(old.ids, rowID)
	cd := &chunkDelta{ids: old.ids}
	switch {
	case found:
		cd.docs, cd.vals = slices.Clone(old.docs), slices.Clone(old.vals)
		cd.docs[j] = doc
		copy(cd.vals[j*w:], vals)
	case j == len(old.ids):
		cd.ids, cd.docs, cd.vals = append(old.ids, rowID), append(old.docs, doc), append(old.vals, vals...)
	default:
		cd.ids = slices.Insert(slices.Clone(old.ids), j, rowID)
		cd.docs = slices.Insert(slices.Clone(old.docs), j, doc)
		cd.vals = slices.Insert(slices.Clone(old.vals), j*w, vals...)
	}
	if !found {
		nd.n++
		if rowID < populated {
			nd.stale++
		}
	}
	nd.chunks[c] = cd
	return nd
}

// populated reports whether the image holds anything to maintain.
func (m *Image) populated() bool { return m.osonCol != "" || len(m.vcs) > 0 }

// Status is the image's line in EXPLAIN: "no-imc: <reason>" for the
// image of a store that answers nothing although it is attached,
// "imc: delta=<rows> stale=<rows>" (Pending) while written rows are
// pending, "" for a clean image.
func (m *Image) Status() string {
	switch {
	case m.broken != "":
		return "no-imc: " + m.broken
	case m.delta != nil:
		return fmt.Sprintf("imc: delta=%d stale=%d", m.delta.n, m.delta.stale)
	}
	return ""
}

// Pending returns how many rows written since the vectors were built
// the image serves from its delta, and how many of them the populated
// parts hold a stale form of (the rest were inserted since).
func (m *Image) Pending() (delta, stale int) {
	if m.delta == nil {
		return 0, 0
	}
	return m.delta.n, m.delta.stale
}

// brokenImage is the image of a store that lost track of its table: it
// holds nothing, and says why.
func brokenImage(reason string) *Image { return &Image{broken: reason} }

func (m *Image) vcol(name string) *vcol {
	for i := range m.vcs {
		if m.vcs[i].name == name {
			return &m.vcs[i]
		}
	}
	return nil
}

// PopulatedColumns lists the populated column vectors in sorted order.
func (m *Image) PopulatedColumns() []string {
	cols := make([]string, len(m.vcs))
	for i, vc := range m.vcs {
		cols[i] = vc.name
	}
	slices.Sort(cols)
	return cols
}

// setDocs installs a populated document column in an image that is
// being built.
func (m *Image) setDocs(col string, pos int, docs []jsondom.Value, dict *oson.SharedDict) {
	m.osonCol, m.osonPos, m.osonDocs, m.sharedDict = col, pos, docs, dict
}

// populatedAt completes an image a population has built a part of: its
// parts cover rows row ids of the table as it was at write count writes.
func (m *Image) populatedAt(rows int, writes uint64, skewed bool) {
	m.rows, m.writes, m.skewed, m.broken = rows, writes, skewed, ""
}

// setVector adds or replaces a populated column in an image that is
// being built, leaving the slice other images share alone.
func (m *Image) setVector(vc vcol) {
	m.vcs = slices.Clone(m.vcs)
	if old := m.vcol(vc.name); old != nil {
		*old = vc
		return
	}
	m.vcs = append(m.vcs, vc)
}

// Vector returns the named column's vector when the vector alone
// describes the column: ok is false while any written row is pending,
// so that consumers reading codes and values straight from vectors
// (code-space aggregation and join) take their generic path for the
// execution instead.
func (m *Image) Vector(name string) (*Vector, bool) {
	if vc := m.vcol(name); vc != nil && m.delta == nil {
		return vc.vec, true
	}
	return nil, false
}

// Substitute implements sqlengine.InMemorySource: a pending row is
// served from the delta, any other from the populated parts.
func (m *Image) Substitute(rowID int, col string) (jsondom.Value, bool) {
	if rowID < 0 {
		return nil, false
	}
	if m.delta != nil {
		if cd, j := m.delta.find(rowID); cd != nil {
			if col == m.osonCol {
				return cd.docs[j], cd.docs[j] != nil
			}
			for ci := range m.vcs {
				if m.vcs[ci].name == col {
					return m.vcs[ci].vec.conform(cd.vals[j*len(m.vcs)+ci]).value(), true
				}
			}
			return nil, false
		}
	}
	if col == m.osonCol {
		if rowID < len(m.osonDocs) {
			if v := m.osonDocs[rowID]; v.Kind() != jsondom.KindNull {
				return v, true
			}
		}
		return nil, false
	}
	if vc := m.vcol(col); vc != nil && rowID < vc.vec.Len() {
		return vc.vec.Value(rowID), true
	}
	return nil, false
}

// written returns the image after the table's write number writes put
// row under rowID (nil: the row was deleted). The row's document is
// encoded here, once, and its virtual columns are evaluated over the
// encoding, as a scan of the store evaluates them: the text is parsed
// one time per write however many columns read it.
func (m *Image) written(rowID int, row store.Row, writes uint64) (*Image, error) {
	var doc jsondom.Value
	vals := make([]colVal, len(m.vcs))
	retype := false
	if row != nil {
		if m.osonCol != "" {
			var err error
			if doc, err = encodeDoc(row[m.osonPos], m.sharedDict); err != nil {
				return nil, err
			}
			if doc != nil {
				row = slices.Clone(row)
				row[m.osonPos] = doc
			}
		}
		for i := range m.vcs {
			v, err := m.vcs[i].expr(row)
			if err != nil {
				return nil, err
			}
			vals[i] = valOf(v)
			// a vector that has only ever seen NULLs has no type yet: the
			// first value gives it one, which takes a rebuild
			retype = retype || (vals[i].kind != kindNull && m.vcs[i].vec.untyped())
		}
	}
	next := *m
	next.writes = writes
	next.delta = m.delta.with(rowID, doc, vals, m.rows)
	if retype || next.delta.n > foldThreshold(m.rows) {
		return next.folded(), nil
	}
	return &next, nil
}

// folded returns a copy of the image with the pending rows folded into
// fresh populated parts: every vector and the document array are
// rebuilt from their old contents and the delta, in row-id order, as a
// population of the table as it is now would build them — dictionary,
// zone maps and statistics included — but without evaluating an
// expression or parsing a document. A clean image folds to a plain
// copy.
func (m *Image) folded() *Image {
	next := *m
	if m.delta == nil {
		return &next
	}
	total := m.rows
	if last := m.delta.chunks[len(m.delta.chunks)-1]; last != nil {
		total = max(total, last.ids[len(last.ids)-1]+1)
	}
	if m.osonCol != "" {
		docs := make([]jsondom.Value, total)
		for id := copy(docs, m.osonDocs); id < total; id++ {
			docs[id] = jsondom.Null{}
		}
		for _, cd := range m.delta.chunks {
			if cd == nil {
				continue
			}
			for j, id := range cd.ids {
				if docs[id] = cd.docs[j]; docs[id] == nil {
					docs[id] = jsondom.Null{}
				}
			}
		}
		next.osonDocs = docs
	}
	next.vcs = make([]vcol, len(m.vcs))
	for ci, vc := range m.vcs {
		// the column keeps the type it has: what a scan reads from a row
		// must not depend on whether a fold has happened yet
		b := newVectorBuilder(total)
		if !vc.vec.untyped() {
			b.setType(vc.vec.IsNumber)
		}
		for c := 0; c*ChunkSize < total; c++ {
			cd, j := m.delta.chunk(c), 0
			for id := c * ChunkSize; id < min(total, (c+1)*ChunkSize); id++ {
				if cd != nil && j < len(cd.ids) && cd.ids[j] == id {
					b.addVal(cd.vals[j*len(m.vcs)+ci])
					j++
				} else {
					b.addVal(vc.vec.at(id))
				}
			}
		}
		vc.vec = b.build()
		next.vcs[ci] = vc
	}
	next.rows, next.delta = total, nil
	mFolds.Inc()
	return &next
}
