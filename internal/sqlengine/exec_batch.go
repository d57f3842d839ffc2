// Batch execution spine: the engine's one operator contract. Selection
// bitmaps, dictionary codes, and pooled row batches flow up the plan;
// rows meet the caller only in drainSource.
//
// Three layers cooperate here:
//
//   - Batch / rowArena: the unit of flow. A Batch is a pooled header
//     over up to batchSize row slices; the rows themselves are carved
//     from arena slabs and NEVER recycled, so any consumer may retain
//     them indefinitely (drainSource keeps them in the Result, sorts
//     and joins buffer them). Only the header and its backing pointer
//     array return to the pool.
//
//   - rowSource.NextBatch (exec.go): the pull every operator
//     implements. It returns nil at end of input and otherwise a
//     non-empty batch valid until the producer's next NextBatch or
//     Close call. The max argument is the consumer's remaining-row
//     budget (LIMIT): the consumer will never want more than max rows
//     in total, so producers stop materializing there; it is a hint,
//     and consumers still enforce exact limits. batchCursor is the
//     consuming side for operators that work a row at a time (the
//     pipeline breakers' build loops, joins, JSON_TABLE's outer input);
//     fillBatch and sliceBatch are the producing side for the joins
//     and for breakers that emit a materialized slice.
//
//   - vector fast paths: when a pipeline breaker sits directly on a
//     scan whose key columns are IMC vector-backed, grouped aggregation
//     hashes uint32 dictionary codes (or float64 bits) instead of
//     rendered key strings, and hash joins build and probe in code
//     space, materializing only the rows that survive the join.
//
// All mutation of Batch internals lives in this file (the add/reset/
// truncate methods and sliceBatch); fsdmvet's immutcheck enforces that
// no other file writes Batch fields, which is what makes the pooling
// safe to reason about.

package sqlengine

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/imc"
	"repro/internal/jsondom"
)

// batchSize is the row capacity of one batch, aligned with
// imc.ChunkSize so a batch scan drains at most one selection bitmap
// per NextBatch call.
const batchSize = imc.ChunkSize

// arenaFirstSlab and arenaSlabValues bound a rowArena's slab sizes, in
// jsondom.Value slots: the first slab holds a few rows (512 bytes), each
// later one doubles, and arenaSlabValues caps the growth at one batch of
// 8-column rows per allocation.
const (
	arenaFirstSlab  = 32
	arenaSlabValues = 8192
)

// Batch is a chunk of rows flowing between operators. Headers are
// pooled: a batch returned by NextBatch is valid until the producer's
// next NextBatch or Close call. The row slices inside are freshly
// allocated (arena-carved) and safe to retain indefinitely.
type Batch struct {
	rows [][]jsondom.Value
}

// Len returns the number of rows in the batch; 0 on the nil batch, so
// stats wrappers can observe an end-of-input result directly.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.rows)
}

// Row returns row i. The returned slice outlives the batch header.
func (b *Batch) Row(i int) []jsondom.Value { return b.rows[i] }

// add appends one row.
func (b *Batch) add(row []jsondom.Value) { b.rows = append(b.rows, row) }

// truncate keeps the first n rows (a LIMIT cut), clearing the dropped
// pointers so the pooled header does not pin their rows.
func (b *Batch) truncate(n int) {
	if n >= len(b.rows) {
		return
	}
	tail := b.rows[n:]
	for i := range tail {
		tail[i] = nil
	}
	b.rows = b.rows[:n]
}

// reset empties the batch for pool reuse, clearing row pointers so a
// pooled header never pins rows from a finished query.
func (b *Batch) reset() {
	for i := range b.rows {
		b.rows[i] = nil
	}
	b.rows = b.rows[:0]
}

// batchPool recycles batch headers (the [][]jsondom.Value backing
// arrays), the only allocation a per-batch handoff would otherwise
// repeat. Rows are never pooled.
var batchPool = sync.Pool{
	New: func() any { return &Batch{rows: make([][]jsondom.Value, 0, batchSize)} },
}

func getBatch() *Batch { return batchPool.Get().(*Batch) }

// putBatch returns a batch header to the pool; nil is a no-op so
// producers can recycle their "previous batch" slot unconditionally.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	b.reset()
	batchPool.Put(b)
}

// rowArena carves per-row []jsondom.Value slices out of slabs that grow
// with the demand: a query pays for the rows it carves, and a retained
// row pins only the slab it was carved from — 512 bytes for a one-row
// result. Slabs ever allocated stay within twice the values consumed
// (carved, or left at the tail of a slab the next row did not fit) plus
// the first slab. Carved rows use a full slice expression, so appending
// to one can never clobber a neighbor, and slabs are ordinary GC-managed
// memory — rows stay valid for as long as anything references them,
// which is what lets batch consumers retain them without a copy.
type rowArena struct {
	slab []jsondom.Value
	next int // size of the next slab; 0 before the first
}

// alloc carves an n-value row from the current slab.
func (a *rowArena) alloc(n int) []jsondom.Value {
	if n > len(a.slab) {
		size := a.next
		if size == 0 {
			size = arenaFirstSlab
		}
		a.next = 2 * size
		if a.next > arenaSlabValues {
			a.next = arenaSlabValues
		}
		if n > size {
			size = n
		}
		a.slab = make([]jsondom.Value, size)
	}
	row := a.slab[:n:n]
	a.slab = a.slab[n:]
	return row
}

// batchLimit is the row count one NextBatch call aims for: a full
// batch, or the consumer's remaining-row budget when that is smaller.
func batchLimit(max int) int {
	if max > 0 && max < batchSize {
		return max
	}
	return batchSize
}

// batchCursor is the row-at-a-time view of a batch input, for the
// operators that consume one row per step: pipeline-breaker build
// loops, join probes, JSON_TABLE's outer input. It never recycles
// batches — the producer owns them, and recycles the header the cursor
// is reading on its next NextBatch call. So the cursor drops its header
// before every pull and latches end of input: a join step that asks
// again after EOF (fillBatch returned the partial last batch first)
// gets ok=false without touching a header that now belongs to the pool.
// The zero cursor over a source is ready to use; operators that keep
// one across calls reset it in Open.
type batchCursor struct {
	src   rowSource
	cur   *Batch
	pos   int
	ticks int
	done  bool
}

func (c *batchCursor) next(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	for {
		if c.cur != nil && c.pos < c.cur.Len() {
			row := c.cur.Row(c.pos)
			c.pos++
			return row, true, nil
		}
		c.cur, c.pos = nil, 0
		if c.done {
			return nil, false, nil
		}
		// a pruning producer can return many empty pulls back to back;
		// stay cancellable across them
		if err := ec.tickErr(&c.ticks); err != nil {
			return nil, false, err
		}
		b, err := c.src.NextBatch(ec, 0)
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			c.done = true
			return nil, false, nil
		}
		c.cur = b
	}
}

// rowStepper is the internal row step of an operator whose output is
// produced one row at a time (scan materialization, join probes):
// ok=false at end of input. fillBatch turns it into the batch contract.
type rowStepper interface {
	step(ec *ExecCtx) (row []jsondom.Value, ok bool, err error)
}

// fillBatch pulls s until batchLimit(max) rows sit in a pooled header
// and returns it, or nil at end of input. Stopping at the consumer's
// budget is what keeps a LIMIT above a join from paying for a whole
// batch of probe output. The caller owns the returned header.
func fillBatch(ec *ExecCtx, s rowStepper, ticks *int, max int) (*Batch, error) {
	lim := batchLimit(max)
	b := getBatch()
	for b.Len() < lim {
		if err := ec.tickErr(ticks); err != nil {
			putBatch(b)
			return nil, err
		}
		row, ok, err := s.step(ec)
		if err != nil {
			putBatch(b)
			return nil, err
		}
		if !ok {
			break
		}
		b.add(row)
	}
	if b.Len() == 0 {
		putBatch(b)
		return nil, nil
	}
	return b, nil
}

// sliceBatch hands out the next batchLimit(max) rows of a pipeline
// breaker's materialized output in a pooled header, advancing *pos;
// nil once the slice is exhausted. The caller owns the header.
func sliceBatch(rows [][]jsondom.Value, pos *int, max int) *Batch {
	n := len(rows) - *pos
	if n <= 0 {
		return nil
	}
	if lim := batchLimit(max); n > lim {
		n = lim
	}
	b := getBatch()
	b.rows = append(b.rows, rows[*pos:*pos+n]...)
	*pos += n
	return b
}

// ---------------------------------------------------------------------------
// table scan: batch production and id-only iteration

// NextBatch materializes up to batchLimit(max) surviving rows into a
// pooled batch. With vector kernels the selection position persists
// across calls, so a LIMIT budget stops materialization mid-chunk and
// the next call (if any) resumes exactly where it left off.
func (s *tableScan) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if s.st != nil {
		t0 := time.Now()
		defer func() { s.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(s.out)
	s.out = nil
	b, err = fillBatch(ec, s, &s.ticks, max)
	if err != nil || b == nil {
		return nil, err
	}
	s.out = b
	mBatchBatches.Inc()
	return b, nil
}

// detachBatch transfers ownership of the scan's current batch to the
// caller: the scan will not recycle it on its next NextBatch call.
// Parallel scan workers use this to hand batches across goroutines.
func (s *tableScan) detachBatch() { s.out = nil }

// idCapable reports whether the scan can run id-only iteration for the
// vector fast paths: full-range row-id order (no index postings, no
// sampling) and no row-level fallback predicate, so a row's survival
// is decided entirely before materialization. Valid only after Open.
func (s *tableScan) idCapable() bool {
	return s.rowIDs == nil && s.rng == nil && s.fallbackPred == nil
}

// nextSelID returns the next row id surviving the scan's vector
// kernels (the bitmap drain; every live row when the scan has none),
// skipping deleted rows. Materialization is the caller's concern.
// Requires idCapable.
func (s *tableScan) nextSelID(ec *ExecCtx) (int, bool, error) {
	if s.batchActive {
		for {
			for s.selActive {
				i := s.sel.NextSet(s.selPos)
				if i < 0 {
					s.selActive = false
					break
				}
				s.selPos = i + 1
				rowID := s.chunkLo + i
				// bits below the partition floor (an unaligned lo) are not ours
				if rowID < s.lo || s.deleted(rowID) {
					continue
				}
				return rowID, true, nil
			}
			ok, err := s.advanceChunk(ec)
			if err != nil || !ok {
				return 0, false, err
			}
		}
	}
	for {
		if err := ec.tickErr(&s.ticks); err != nil {
			return 0, false, err
		}
		if s.pos >= s.maxID {
			return 0, false, nil
		}
		rowID := s.pos
		s.pos++
		if s.deleted(rowID) {
			continue
		}
		return rowID, true, nil
	}
}

// creditSelected accounts n rows a code-space fast path consumed
// through nextSelID instead of NextBatch, so the scan's EXPLAIN ANALYZE
// line and sql.scan.rows report the rows it selected on that path too.
func (s *tableScan) creditSelected(n int64) {
	s.rowsOut += n
	if s.st != nil {
		s.st.Rows += n
	}
}

// vectorFor resolves a column reference of the scan's schema to its
// populated IMC vector, the precondition for every code-space fast
// path. The image the scan bound at Open declines while rows written
// since the vector was built are pending (the consumer then takes its
// generic path); a bare column name is required so the vector holds
// exactly the column the scan would materialize.
func (s *tableScan) vectorFor(c *ColRef) (*imc.Vector, bool) {
	vs, ok := s.src.(BatchFilterSource)
	if !ok {
		return nil, false
	}
	i, err := s.sch.Resolve(c.Table, c.Name)
	if err != nil || i >= len(s.cols) { // the hidden row id has no vector
		return nil, false
	}
	return vs.Vector(s.cols[i].Name)
}

// ---------------------------------------------------------------------------
// filter / project / limit / alias / JSON_TABLE: streaming operators

// NextBatch evaluates the predicate over whole input batches,
// compacting survivors into the filter's own pooled batch. The rows
// themselves pass through untouched.
func (f *filterOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if f.st != nil {
		t0 := time.Now()
		defer func() { f.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(f.out)
	f.out = nil
	out := getBatch()
	for out.Len() == 0 {
		// a selective predicate can reject whole input batches back to
		// back, so the filter ticks too
		if err := ec.tickErr(&f.ticks); err != nil {
			putBatch(out)
			return nil, err
		}
		in, err := f.in.NextBatch(ec, 0)
		if err != nil {
			putBatch(out)
			return nil, err
		}
		if in == nil {
			break
		}
		for i := 0; i < in.Len(); i++ {
			row := in.Row(i)
			f.ctx.row = row
			v, err := evalExpr(f.ctx, f.pred)
			if err != nil {
				putBatch(out)
				return nil, err
			}
			if truthy(v) {
				out.add(row)
			}
		}
	}
	if out.Len() == 0 {
		putBatch(out)
		return nil, nil
	}
	if max > 0 {
		out.truncate(max)
	}
	f.out = out
	return out, nil
}

// NextBatch projects one input batch into arena-carved output rows —
// the projection is 1:1, so the consumer's row budget passes straight
// through to the input.
func (p *projectOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if p.st != nil {
		t0 := time.Now()
		defer func() { p.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(p.out)
	p.out = nil
	in, err := p.in.NextBatch(ec, max)
	if err != nil || in == nil {
		return nil, err
	}
	out := getBatch()
	for i := 0; i < in.Len(); i++ {
		p.ctx.row = in.Row(i)
		dst := p.arena.alloc(len(p.exprs))
		for j, e := range p.exprs {
			v, err := evalExpr(p.ctx, e)
			if err != nil {
				putBatch(out)
				return nil, err
			}
			dst[j] = v
		}
		out.add(dst)
	}
	p.out = out
	return out, nil
}

// NextBatch threads the remaining-row budget into the input's batch
// materialization: a scan or join below stops materializing at the
// budget instead of building a whole batch the limit then discards.
// Once the limit is reached the input is closed eagerly so scans (and
// parallel scan workers) stop doing work the query will never observe.
func (l *limitOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if l.st != nil {
		t0 := time.Now()
		defer func() { l.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	rem := l.limit - l.n
	if rem <= 0 {
		if !l.inClosed {
			l.inClosed = true
			if err := l.in.Close(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	if max <= 0 || rem < max {
		max = rem
	}
	in, err := l.in.NextBatch(ec, max)
	if err != nil || in == nil {
		return nil, err
	}
	in.truncate(rem)
	l.n += in.Len()
	return in, nil
}

// NextBatch passes the input's batches through unchanged; only the
// schema differs.
func (w *aliasWrap) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if w.st != nil {
		t0 := time.Now()
		defer func() { w.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	return w.in.NextBatch(ec, max)
}

// NextBatch expands documents directly into a pooled batch — no
// per-row interface dispatch or staging queue between JSON_TABLE and
// the aggregation above it (the Fig3 spine). Each document's rows are
// emitted whole, so a batch may overshoot max (the size hint contract
// allows it). The rows are arena-carved (batchEmit merges
// left+expansion through j.arena), so consumers may retain them; only
// the header is recycled on the next call.
func (j *jsonTableOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if j.st != nil {
		t0 := time.Now()
		defer func() { j.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(j.out)
	j.out = nil
	lim := batchLimit(max)
	out := getBatch()
	j.bsink = out
	defer func() { j.bsink = nil }()
	for out.Len() < lim && !j.done {
		// document expansion can reject every row of many successive
		// outer rows; stay cancellable across them
		if err := ec.tickErr(&j.ticks); err != nil {
			putBatch(out)
			return nil, err
		}
		var row []jsondom.Value
		if j.left == nil {
			j.done = true // a FROM-less JSON_TABLE expands exactly once
		} else {
			r, ok, err := j.leftCur.next(ec)
			if err != nil {
				putBatch(out)
				return nil, err
			}
			if !ok {
				j.done = true
				continue
			}
			row = r
		}
		if err := j.expandDoc(ec, row, j.emitBatch); err != nil {
			putBatch(out)
			return nil, err
		}
	}
	if out.Len() == 0 {
		putBatch(out)
		return nil, nil
	}
	j.out = out
	return out, nil
}

// batchEmit merges one expansion row and appends it to the batch on
// loan from NextBatch (the pre-bound emit target).
func (j *jsonTableOp) batchEmit(scratch []jsondom.Value) error {
	j.bsink.add(j.mergeRow(scratch))
	return nil
}

// ---------------------------------------------------------------------------
// grouped aggregation: the dictionary-code fast path

// aggFastKind classifies the aggregates the vector fast path computes
// without materializing rows.
type aggFastKind int

const (
	aggFastCountStar aggFastKind = iota
	aggFastCount
	aggFastSum
	aggFastAvg
	aggFastMin
	aggFastMax
)

// aggFastSpec is the execution-time plan of one fast-path aggregate:
// its kind and, for argument-taking aggregates, the vector the
// argument column is backed by. Built once per execution by
// newAggFastSpecs; read-only afterwards (shared with nothing, but the
// immutability keeps the accumulation loop free of aliasing hazards).
type aggFastSpec struct {
	kind aggFastKind
	vec  *imc.Vector
}

// newAggFastSpecs classifies the operator's aggregates for the vector
// fast path, resolving argument columns to scan vectors; ok=false
// declines (unsupported aggregate, non-column argument, argument not
// vector-backed, sum/avg over a string vector).
func newAggFastSpecs(g *groupAggOp, scan *tableScan) ([]aggFastSpec, bool) {
	specs := make([]aggFastSpec, len(g.aggs))
	for i, a := range g.aggs {
		if a.Star && a.Name == "count" {
			specs[i] = aggFastSpec{kind: aggFastCountStar}
			continue
		}
		if len(a.Args) != 1 {
			return nil, false
		}
		col, ok := a.Args[0].(*ColRef)
		if !ok {
			return nil, false
		}
		vec, ok := scan.vectorFor(col)
		if !ok {
			return nil, false
		}
		var kind aggFastKind
		switch a.Name {
		case "count":
			kind = aggFastCount
		case "sum":
			kind = aggFastSum
		case "avg":
			kind = aggFastAvg
		case "min":
			kind = aggFastMin
		case "max":
			kind = aggFastMax
		default:
			return nil, false
		}
		// sum/avg over a string vector would need the generic build's
		// numeric-coercion semantics; decline
		if (kind == aggFastSum || kind == aggFastAvg) && !vec.IsNumber {
			return nil, false
		}
		specs[i] = aggFastSpec{kind: kind, vec: vec}
	}
	return specs, true
}

// fastAggState is the per-group accumulator for one fast-path
// aggregate: one count, one float sum, and one min/max slot in the
// vector's native representation (float64, or uint32 dictionary code —
// the dictionary is sorted, so code order is string order).
type fastAggState struct {
	count int64
	sum   float64
	num   float64
	code  uint32
	valid bool
}

// fastGroup is one group of the code-space aggregation: the id of its
// first row (materialized only at emit) and the accumulator per
// aggregate.
type fastGroup struct {
	reprID int
	states []fastAggState
}

// buildFast runs grouped aggregation in code space when the operator
// sits directly on an id-capable scan and both the single group key
// and every aggregate argument are vector-backed: the key hashes as a
// uint64 (dictionary code or float bits), aggregates accumulate from
// the vectors, and only one representative row per group is ever
// materialized. Returns ok=false (leaving no state behind) when the
// plan shape does not qualify, in which case the caller falls back to
// the generic build.
func (g *groupAggOp) buildFast(ec *ExecCtx) (ok bool, err error) {
	scan, isScan := g.in.(*tableScan)
	if !isScan || !scan.idCapable() || g.implicitGroup || len(g.groupBy) != 1 {
		return false, nil
	}
	keyCol, isCol := g.groupBy[0].(*ColRef)
	if !isCol {
		return false, nil
	}
	keyVec, haveVec := scan.vectorFor(keyCol)
	if !haveVec {
		return false, nil
	}
	specs, okSpecs := newAggFastSpecs(g, scan)
	if !okSpecs {
		return false, nil
	}

	newGroup := func(id int) *fastGroup {
		return &fastGroup{reprID: id, states: make([]fastAggState, len(specs))}
	}
	index := make(map[uint64]*fastGroup)
	var order []*fastGroup
	var nullGroup *fastGroup
	var rows int64
	ticks := 0
	for {
		if err := ec.tickErr(&ticks); err != nil {
			return true, err
		}
		id, more, err := scan.nextSelID(ec)
		if err != nil {
			return true, err
		}
		if !more {
			break
		}
		rows++
		var key uint64
		var keyNull bool
		if keyVec.IsNumber {
			n, okv := keyVec.NumAt(id)
			key, keyNull = math.Float64bits(n), !okv
		} else {
			c, okv := keyVec.CodeAt(id)
			key, keyNull = uint64(c), !okv
		}
		var grp *fastGroup
		if keyNull {
			if nullGroup == nil {
				nullGroup = newGroup(id)
				order = append(order, nullGroup)
			}
			grp = nullGroup
		} else {
			grp = index[key]
			if grp == nil {
				grp = newGroup(id)
				index[key] = grp
				order = append(order, grp)
			}
		}
		for i := range specs {
			sp := &specs[i]
			st := &grp.states[i]
			if sp.kind == aggFastCountStar {
				st.count++
				continue
			}
			if sp.vec.IsNumber {
				n, okv := sp.vec.NumAt(id)
				if !okv {
					continue
				}
				switch sp.kind {
				case aggFastCount:
					st.count++
				case aggFastSum, aggFastAvg:
					st.count++
					st.sum += n
					st.valid = true
				case aggFastMin:
					if !st.valid || n < st.num {
						st.num = n
					}
					st.valid = true
				case aggFastMax:
					if !st.valid || n > st.num {
						st.num = n
					}
					st.valid = true
				}
				continue
			}
			c, okv := sp.vec.CodeAt(id)
			if !okv {
				continue
			}
			switch sp.kind {
			case aggFastCount:
				st.count++
			case aggFastMin:
				if !st.valid || c < st.code {
					st.code = c
				}
				st.valid = true
			case aggFastMax:
				if !st.valid || c > st.code {
					st.code = c
				}
				st.valid = true
			}
		}
	}

	// emit in first-seen order, materializing one row per group
	for _, grp := range order {
		repr, _, err := scan.materialize(grp.reprID, scan.rows[grp.reprID])
		if err != nil {
			return true, err
		}
		n := rowBytes(repr) + 8
		if err := ec.grow(n); err != nil {
			return true, err
		}
		g.memUsed += n
		out := make([]jsondom.Value, 0, len(repr)+len(specs))
		out = append(out, repr...)
		for i := range specs {
			out = append(out, specs[i].result(&grp.states[i]))
		}
		g.groups = append(g.groups, out)
	}
	scan.creditSelected(rows)
	mode := "float-bits"
	if !keyVec.IsNumber {
		mode = "dict-codes"
	}
	g.fastStat = fmt.Sprintf("agg-fast: key=%s rows=%d groups=%d", mode, rows, len(order))
	mAggFastRows.Add(rows)
	return true, nil
}

// result finalizes one accumulator with the generic build's semantics:
// NULL for empty sum/avg/min/max, numeric normalization via
// NumberFromFloat so 1 and 1.0 render identically.
func (sp *aggFastSpec) result(st *fastAggState) jsondom.Value {
	switch sp.kind {
	case aggFastCountStar, aggFastCount:
		return jsondom.NumberFromInt(st.count)
	case aggFastSum:
		if !st.valid {
			return null
		}
		return jsondom.NumberFromFloat(st.sum)
	case aggFastAvg:
		if st.count == 0 {
			return null
		}
		return jsondom.NumberFromFloat(st.sum / float64(st.count))
	default: // min/max
		if !st.valid {
			return null
		}
		if sp.vec.IsNumber {
			return jsondom.NumberFromFloat(st.num)
		}
		return jsondom.String(sp.vec.DictStr(st.code))
	}
}

// ---------------------------------------------------------------------------
// hash join: code-space build and probe

// joinFast is the execution state of a code-space hash join: both
// sides are id-capable scans (each perhaps under the filter of the
// WHERE conjuncts the planner pushed onto it) whose single key columns
// are vector-backed with directly comparable representations (two
// numeric vectors, or two string vectors sharing one dictionary). The
// build side stores materialized rows under uint64 keys; an unfiltered
// probe side materializes a left row only when it matches (or, under
// left-outer semantics, misses).
type joinFast struct {
	h                 *hashJoin
	l, r              fastSide
	table             map[uint64][][]jsondom.Value
	pending           [][]jsondom.Value
	pi                int
	leftRow           []jsondom.Value
	probed, probeHits int64
	ticks             int
}

// fastSide is one input of a code-space join: the scan, its key
// vector, and the filter above the scan, if any, whose predicate the
// join evaluates on the row materialize builds.
type fastSide struct {
	scan *tableScan
	filt *filterOp
	vec  *imc.Vector
}

// newFastSide qualifies one join input: an id-capable scan, bare or
// under a filter, whose key column is vector-backed.
func newFastSide(src rowSource, key Expr) (fastSide, bool) {
	f, _ := src.(*filterOp)
	if f != nil {
		src = f.in
	}
	scan, ok := src.(*tableScan)
	col, okCol := key.(*ColRef)
	if !ok || !okCol || !scan.idCapable() {
		return fastSide{}, false
	}
	vec, ok := scan.vectorFor(col)
	return fastSide{scan: scan, filt: f, vec: vec}, ok
}

// filter decides a row of a filtered side up front, materializing it
// so that the filter sees, and reports, every row the scan selects; an
// unfiltered side passes every row without building it.
func (fs *fastSide) filter(id int) (row []jsondom.Value, ok bool, err error) {
	if fs.filt == nil {
		return nil, true, nil
	}
	if row, err = fs.row(id, nil); err != nil {
		return nil, false, err
	}
	fs.filt.ctx.row = row
	v, err := evalExpr(fs.filt.ctx, fs.filt.pred)
	if err != nil || !truthy(v) {
		return nil, false, err
	}
	if fs.filt.st != nil {
		fs.filt.st.Rows++
	}
	return row, true, nil
}

// row returns the row filter built, or materializes it.
func (fs *fastSide) row(id int, built []jsondom.Value) ([]jsondom.Value, error) {
	if built != nil {
		return built, nil
	}
	row, _, err := fs.scan.materialize(id, fs.scan.rows[id])
	return row, err
}

// newJoinFast qualifies the join for code-space probing after both
// inputs are open; nil means the plan shape does not qualify and the
// generic path runs.
func newJoinFast(h *hashJoin) *joinFast {
	if len(h.leftKeys) != 1 || len(h.rightKeys) != 1 {
		return nil
	}
	l, okL := newFastSide(h.left, h.leftKeys[0])
	r, okR := newFastSide(h.right, h.rightKeys[0])
	if !okL || !okR {
		return nil
	}
	// the two representations must agree for uint64 keys to be
	// comparable across sides
	if l.vec.IsNumber != r.vec.IsNumber {
		return nil
	}
	if !l.vec.IsNumber && !l.vec.SameDict(r.vec) {
		return nil
	}
	return &joinFast{h: h, l: l, r: r}
}

// keyAt reads the join key for one row id in code space.
func keyAt(vec *imc.Vector, id int) (key uint64, ok bool) {
	if vec.IsNumber {
		n, okv := vec.NumAt(id)
		return math.Float64bits(n), okv
	}
	c, okv := vec.CodeAt(id)
	return uint64(c), okv
}

// build materializes the right input into the code-keyed hash table.
// NULL keys never participate, matching the generic build.
func (jf *joinFast) build(ec *ExecCtx) error {
	jf.table = make(map[uint64][][]jsondom.Value)
	for {
		if err := ec.tickErr(&jf.ticks); err != nil {
			return err
		}
		id, more, err := jf.r.scan.nextSelID(ec)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		jf.r.scan.creditSelected(1)
		row, ok, err := jf.r.filter(id)
		if err != nil {
			return err
		}
		key, okKey := keyAt(jf.r.vec, id)
		if !ok || !okKey {
			continue
		}
		if row, err = jf.r.row(id, row); err != nil {
			return err
		}
		n := rowBytes(row) + 8
		if err := ec.grow(n); err != nil {
			return err
		}
		jf.h.memUsed += n
		jf.table[key] = append(jf.table[key], row)
	}
	mDictProbeBuilds.Inc()
	return nil
}

// step produces the next join output row: probe keys are read straight
// from the left vector, and a left row is materialized only once a
// match (or outer-join miss) makes it observable.
func (jf *joinFast) step(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	h := jf.h
	for {
		// inner-join probes can skip arbitrarily many key misses
		// between emitted rows; stay cancellable across them
		if err := ec.tickErr(&jf.ticks); err != nil {
			return nil, false, err
		}
		if jf.pi < len(jf.pending) {
			r := jf.pending[jf.pi]
			jf.pi++
			out := h.arena.alloc(len(jf.leftRow) + len(r))
			copy(out, jf.leftRow)
			copy(out[len(jf.leftRow):], r)
			if h.residual != nil {
				h.residCtx.row = out
				v, err := evalExpr(h.residCtx, h.residual)
				if err != nil {
					return nil, false, err
				}
				if !truthy(v) {
					continue
				}
			}
			return out, true, nil
		}
		id, more, err := jf.l.scan.nextSelID(ec)
		if err != nil {
			return nil, false, err
		}
		if !more {
			mDictProbeRows.Add(jf.probed)
			jf.probed = 0
			return nil, false, nil
		}
		jf.probed++
		jf.l.scan.creditSelected(1)
		row, ok, err := jf.l.filter(id)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		key, okKey := keyAt(jf.l.vec, id)
		var matches [][]jsondom.Value
		if okKey {
			matches = jf.table[key]
		}
		if len(matches) == 0 && !h.leftOuter {
			continue
		}
		if row, err = jf.l.row(id, row); err != nil {
			return nil, false, err
		}
		if len(matches) == 0 {
			out := h.arena.alloc(len(row) + len(h.right.Schema()))
			copy(out, row)
			for i := len(row); i < len(out); i++ {
				out[i] = null
			}
			return out, true, nil
		}
		jf.probeHits++
		jf.leftRow = row
		jf.pending, jf.pi = matches, 0
	}
}

// stat renders the fast join's EXPLAIN ANALYZE line.
func (jf *joinFast) stat() string {
	mode := "float-bits"
	if !jf.l.vec.IsNumber {
		mode = "dict-codes"
	}
	return fmt.Sprintf("dictprobe: key=%s build-keys=%d probe-hits=%d", mode, len(jf.table), jf.probeHits)
}
