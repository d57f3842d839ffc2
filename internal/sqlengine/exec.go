// Row-source executor: the Open/NextBatch/Close iterator model — the row
// source API the paper cites for JSON_TABLE ([9], §5.1), pulled a
// pooled batch at a time (exec_batch.go) — used here for every
// operator.
//
// Every operator receives the query's *ExecCtx in Open and NextBatch:
// the context carries cooperative cancellation (checked every
// cancelCheckInterval rows in scans and pipeline-breaker build loops),
// the per-operator stats sinks EXPLAIN ANALYZE renders, and the memory
// accountant pipeline breakers charge for materialized rows.
//
// Aggregate and window function results flow through the pipeline as
// synthetic columns appended by groupAggOp/windowOp; expression
// evaluation resolves the originating AST nodes to those columns via
// the shared planEnv maps.

package sqlengine

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataguide"
	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
	"repro/internal/store"
)

// rowSource is the one operator contract. NextBatch returns nil at end
// of input and otherwise a non-empty batch that stays valid until the
// producer's next NextBatch or Close call (the rows inside stay valid
// for good). max > 0 is the consumer's remaining-row budget — see
// exec_batch.go.
type rowSource interface {
	Open(*ExecCtx) error
	NextBatch(ec *ExecCtx, max int) (*Batch, error)
	Close() error
	Schema() Schema
}

// opNode is implemented by every operator so EXPLAIN can walk the
// plan tree and render per-operator stats without wrapper nodes (which
// would break the planner's type assertions on concrete operators).
type opNode interface {
	opName() string
	opChildren() []rowSource
	opStat() *OpStats
}

// opExtraNode is an optional opNode extension: operators with
// per-predicate runtime detail (the batch scan's chunk pruning and
// selectivity) return extra indented lines for EXPLAIN ANALYZE.
type opExtraNode interface {
	opExtraLines() []string
}

// opNoteNode is an optional opNode extension: lines about the state of
// what the operator reads (a scan's in-memory store), shown by EXPLAIN
// whether or not the plan ran.
type opNoteNode interface {
	opNotes() []string
}

// planEnv is shared by all operators of one plan: bind parameters plus
// the positions of aggregate/window results within the row.
type planEnv struct {
	params  []jsondom.Value
	aggCols map[*FuncCall]int
	winCols map[*WindowFunc]int
}

func newPlanEnv(params []jsondom.Value) *planEnv {
	return &planEnv{params: params, aggCols: map[*FuncCall]int{}, winCols: map[*WindowFunc]int{}}
}

func (e *planEnv) ctx(sch Schema, row []jsondom.Value) *evalCtx {
	return &evalCtx{schema: sch, row: row, params: e.params,
		aggCols: e.aggCols, winCols: e.winCols}
}

// bindCtx prepares a reusable evaluation context for an operator: the
// column references of the given expressions are resolved against the
// schema once, so per-row evaluation is a pointer-keyed map hit.
func (e *planEnv) bindCtx(sch Schema, exprs ...Expr) *evalCtx {
	ctx := e.ctx(sch, nil)
	ctx.colIdx = make(map[*ColRef]int)
	for _, x := range exprs {
		bindCols(x, sch, ctx.colIdx)
	}
	return ctx
}

func bindCols(e Expr, sch Schema, m map[*ColRef]int) {
	walkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			if i, err := sch.Resolve(c.Table, c.Name); err == nil {
				m[c] = i
			}
		}
		return true
	})
}

// InMemorySource substitutes column values during a scan, modeling the
// dual-format in-memory store of §5.2: OSON bytes in place of JSON
// text (OSON-IMC) and pre-computed virtual column vectors (VC-IMC).
type InMemorySource interface {
	// Substitute returns the in-memory value for (rowID, column), or
	// ok=false when the column is not populated in memory.
	Substitute(rowID int, col string) (jsondom.Value, bool)
}

// BatchFilterSource is an optional InMemorySource extension: it
// compiles simple comparison predicates over in-memory column vectors
// to chunk kernels that fill a selection bitmap over imc.ChunkSize rows
// at once, with per-chunk zone-map pruning, so the scan skips
// non-matching rows before materializing them — the columnar predicate
// evaluation of §5.2.1.
type BatchFilterSource interface {
	InMemorySource
	// CompileBatchFilter returns a chunk kernel for (col op operands),
	// ok=false when the column has no vector or the shape is
	// unsupported (the conjunct then stays a row-level residual). op is
	// one of = != < <= > >= between.
	CompileBatchFilter(col, op string, operands []jsondom.Value) (imc.BatchKernel, bool)
	// Vector returns the column's populated vector: the planner tells a
	// vector predicate from any other comparison by it and reads its
	// population-time statistics, the code-space aggregation and join
	// read codes from it. PopulatedColumns lists the columns that have
	// one, sorted.
	Vector(name string) (*imc.Vector, bool)
	PopulatedColumns() []string
}

// MaintainedSource is an optional InMemorySource extension: a source
// that stays consistent with its table under DML (imc.Store). The engine
// subscribes it to the table's writes while it is attached, and a scan
// reads one immutable image of it from Open to Close. (Any other source
// is its owner's to keep in step with the table.)
type MaintainedSource interface {
	InMemorySource
	Subscribe()
	Unsubscribe()
	Image() *imc.Image
}

// ---------------------------------------------------------------------------
// table scan

// vecFilterSpec is a vector predicate whose operand values are known
// only at execution time (bind parameters): Open compiles it against
// the vector source with the current bind values, and falls back to
// evaluating the original conjunct per materialized row when the
// vector compile declines (missing vector, operand type mismatch).
type vecFilterSpec struct {
	table, col, op string // table is the column's qualifier as written, "" when bare
	operands       []Expr // Literal or Param leaves
	orig           Expr   // the source conjunct, for the row-level fallback
}

// operandValues resolves the spec operands against the bind
// parameters; ok=false defers the conjunct to the row-level fallback
// (which reports missing-parameter errors with the usual message).
func (v *vecFilterSpec) operandValues(env *planEnv) ([]jsondom.Value, bool) {
	vals := make([]jsondom.Value, len(v.operands))
	for i, x := range v.operands {
		switch t := x.(type) {
		case *Literal:
			vals[i] = t.Val
		case *Param:
			if env == nil || t.Index >= len(env.params) {
				return nil, false
			}
			vals[i] = env.params[t.Index]
		default:
			return nil, false
		}
	}
	return vals, true
}

type tableScan struct {
	planEstimate
	tab   *store.Table
	alias string
	sch   Schema
	// needVC marks virtual columns the query references; unreferenced
	// virtual columns are not computed (left NULL).
	needVC []bool
	cols   []store.Column
	// sub is the table's attached in-memory source, bound at plan time
	// (may be nil); src is what this execution reads of it, bound at
	// Open (bindSource): sub itself, or the image a MaintainedSource is
	// in at that moment. A cached plan therefore binds the store, never a
	// state of it: no write and no fold invalidates it.
	sub, src InMemorySource
	// vecSpecs are the WHERE conjuncts over vector-backed columns
	// (§5.2.1). Open compiles each against src, with the execution's bind
	// values, into a kernel that fills a selection bitmap per
	// imc.ChunkSize chunk, zone-map-pruned chunks skipped whole; one that
	// does not compile stays a row-level residual.
	vecSpecs []vecFilterSpec
	// rowIDsFn, when non-nil, resolves the scan's candidate row ids at
	// Open, from live index state and the execution's binds — JSON
	// search index postings (rowIDsVia "index") or the one row a
	// primary-key probe finds ("pk") — so a cached plan sees rows written
	// after it was planned. ok=false declines for this execution: the
	// scan reads every row and applies rowIDsPred, the conjunct the list
	// would have answered.
	rowIDsFn   func(env *planEnv) (ids []int, ok bool)
	rowIDsVia  string
	rowIDsPred Expr
	env        *planEnv
	// lo/hi restrict the scan to the row-id range [lo, hi) — the
	// per-worker partition of a parallel scan. hi == 0 means the full
	// table.
	lo, hi int

	samplePct float64
	rng       *rand.Rand

	// rows/tombs are the Open-time snapshot: one lock acquisition for
	// the whole scan instead of a Table.Get RLock per row.
	rows  []store.Row
	tombs []bool

	rowIDs []int // resolved by Open from rowIDsFn
	idPos  int
	// fallbackPred collects what Open could not hand to an index or a
	// kernel — rowIDsPred when rowIDsFn declined, the vecSpecs whose
	// compile declined; it is evaluated per materialized row.
	fallbackPred Expr
	fallbackCtx  *evalCtx

	// kernel iteration state (set up by Open): batchActive is true once
	// at least one kernel is in play; batchRun is the execution's kernel
	// list, runLabels names each ("col op") for EXPLAIN ANALYZE, sel is
	// the reusable per-chunk selection bitmap.
	batchActive bool
	batchRun    []imc.BatchKernel
	runLabels   []string
	sel         *imc.Bitmap
	selActive   bool
	selPos      int
	chunkLo     int
	nextChunkLo int
	// chunksSeen/chunksPruned/selRows accumulate operator-locally and
	// are flushed to the imc.scan.* counters at Close; the stat*
	// mirrors survive the flush for EXPLAIN ANALYZE rendering.
	chunksSeen, chunksPruned, selRows   int64
	statChunks, statPruned, statSelRows int64
	kernelStats                         []batchKernelStat // collect mode only

	pos, maxID int
	ticks      int
	// rowsOut accumulates emitted rows operator-locally; Close flushes
	// it to the shared sql.scan.rows counter in one atomic add.
	rowsOut int64
	st      *OpStats

	// arena carves the output rows; out is the pooled batch on loan to
	// the consumer, recycled on the next NextBatch call.
	arena rowArena
	out   *Batch
}

// cloneForRange derives a worker scan restricted to [lo, hi). The
// immutable plan state (schema, columns, vector predicates) is shared,
// and the worker's in-memory source is the image s has bound: the whole
// fleet reads the same one. All iteration state is fresh.
func (s *tableScan) cloneForRange(lo, hi int) *tableScan {
	return &tableScan{
		tab: s.tab, alias: s.alias, sch: s.sch, needVC: s.needVC,
		cols: s.cols, sub: s.src, vecSpecs: s.vecSpecs, env: s.env,
		lo: lo, hi: hi,
	}
}

// bindSource fixes what this execution reads of the attached in-memory
// source: the image a maintained store is in now (a broken one answers
// nothing, and the scan reads the table).
func (s *tableScan) bindSource() {
	s.src = s.sub
	if ms, ok := s.sub.(MaintainedSource); ok {
		s.src = ms.Image()
	}
}

// batchKernelStat tracks one kernel's pruning and selectivity for
// EXPLAIN ANALYZE (collect mode only): chunks/pruned count the chunks
// the kernel's zone-map check saw and discarded; in/out count the
// selection bits entering and surviving its And.
type batchKernelStat struct {
	chunks, pruned int64
	in, out        int64
}

func (s *tableScan) Open(ec *ExecCtx) error {
	s.st = ec.statFor()
	// the table first: every row id it holds is then known to the image
	s.rows, s.tombs = s.tab.Snapshot()
	s.bindSource()
	s.pos = s.lo
	s.idPos = 0
	s.ticks = 0
	s.rowsOut = 0
	s.maxID = len(s.rows)
	if s.hi > 0 && s.hi < s.maxID {
		s.maxID = s.hi
	}
	if s.samplePct > 0 {
		// deterministic sampling for reproducible experiments
		s.rng = rand.New(rand.NewSource(42))
	}
	s.rowIDs = nil
	s.fallbackPred, s.fallbackCtx = nil, nil
	if s.rowIDsFn != nil {
		if ids, ok := s.rowIDsFn(s.env); !ok {
			s.fallbackPred = s.rowIDsPred
		} else if ids != nil {
			s.rowIDs = ids
		} else {
			s.rowIDs = []int{} // no candidates, not "no restriction"
		}
	}
	s.batchRun, s.runLabels = nil, nil
	if len(s.vecSpecs) > 0 {
		bsrc, _ := s.src.(BatchFilterSource)
		s.batchRun = make([]imc.BatchKernel, 0, len(s.vecSpecs))
		s.runLabels = make([]string, 0, len(s.vecSpecs))
		for i := range s.vecSpecs {
			spec := &s.vecSpecs[i]
			// with the image and the bind values in hand the conjunct becomes
			// a kernel; when the compile declines it stays a residual
			if vals, ok := spec.operandValues(s.env); ok && bsrc != nil {
				if k, ok := bsrc.CompileBatchFilter(spec.col, spec.op, vals); ok {
					s.batchRun = append(s.batchRun, k)
					s.runLabels = append(s.runLabels, spec.col+" "+spec.op)
					continue
				}
			}
			s.fallbackPred = andExpr(s.fallbackPred, spec.orig)
		}
	}
	if s.fallbackPred != nil {
		s.fallbackCtx = s.env.bindCtx(s.sch, s.fallbackPred)
	}
	// vector predicates are only ever planned onto full-range scans (no
	// index postings, no sampling), so kernels always drive the iteration
	s.batchActive = len(s.batchRun) > 0
	s.chunksSeen, s.chunksPruned, s.selRows = 0, 0, 0
	s.statChunks, s.statPruned, s.statSelRows = 0, 0, 0
	s.kernelStats = nil
	s.selActive = false
	if s.batchActive {
		s.sel = imc.NewBitmap(imc.ChunkSize)
		// start at the chunk containing lo; bits before lo are skipped
		// during the drain (parallel partitions are chunk-aligned, so in
		// practice lo is a chunk boundary)
		s.nextChunkLo = s.lo - s.lo%imc.ChunkSize
		if s.st != nil {
			s.kernelStats = make([]batchKernelStat, len(s.batchRun))
		}
	}
	return nil
}

func (s *tableScan) Schema() Schema { return s.sch }

func (s *tableScan) deleted(rowID int) bool {
	return rowID < len(s.tombs) && s.tombs[rowID]
}

// step materializes the next surviving row (NextBatch fills its batch
// through it).
func (s *tableScan) step(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	if s.batchActive {
		return s.nextBatchRow(ec)
	}
	for {
		if err := ec.tickErr(&s.ticks); err != nil {
			return nil, false, err
		}
		var rowID int
		var row store.Row
		if s.rowIDs != nil {
			if s.idPos >= len(s.rowIDs) {
				return nil, false, nil
			}
			rowID = s.rowIDs[s.idPos]
			s.idPos++
			if rowID < 0 || rowID >= len(s.rows) || s.deleted(rowID) {
				continue
			}
			row = s.rows[rowID]
		} else {
			if s.pos >= s.maxID {
				return nil, false, nil
			}
			rowID = s.pos
			s.pos++
			if s.deleted(rowID) {
				continue
			}
			row = s.rows[rowID]
		}
		if s.rng != nil && s.rng.Float64()*100 >= s.samplePct {
			continue
		}
		out, match, err := s.materialize(rowID, row)
		if err != nil {
			return nil, false, err
		}
		if !match {
			continue
		}
		s.rowsOut++
		return out, true, nil
	}
}

// materialize builds the output row for rowID — IMC substitution,
// stored values, referenced virtual columns — and applies the
// row-level fallback predicate; match=false rejects the row.
func (s *tableScan) materialize(rowID int, row store.Row) (out []jsondom.Value, match bool, err error) {
	out = s.arena.alloc(len(s.sch))
	if len(out) > len(s.cols) {
		out[len(s.cols)] = jsondom.NumberFromInt(int64(rowID)) // rowIDColumn
	}
	for i, c := range s.cols {
		// unreferenced columns are never read downstream: skip the
		// in-memory substitution (and its per-column decode) entirely
		if !s.needVC[i] {
			if c.Virtual {
				out[i] = null
			} else {
				out[i] = row[i]
			}
			continue
		}
		if s.src != nil {
			if v, ok := s.src.Substitute(rowID, c.Name); ok {
				out[i] = v
				continue
			}
		}
		if !c.Virtual {
			out[i] = row[i]
			continue
		}
		if c.Expr == nil {
			out[i] = null
			continue
		}
		v, err := c.Expr(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	if s.fallbackCtx != nil {
		s.fallbackCtx.row = out
		v, err := evalExpr(s.fallbackCtx, s.fallbackPred)
		if err != nil {
			return nil, false, err
		}
		if !truthy(v) {
			return nil, false, nil
		}
	}
	return out, true, nil
}

// nextBatchRow is the chunk-at-a-time scan loop: nextSelID drains the
// selection bitmap (advancing chunks with zone-map pruning as needed)
// and only the surviving rows are materialized. The selection position
// persists across calls, so a consumer that stops early — a satisfied
// LIMIT budget — resumes mid-chunk without re-materializing anything.
func (s *tableScan) nextBatchRow(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	for {
		// a selective residual can reject many materialized rows per call
		if err := ec.tickErr(&s.ticks); err != nil {
			return nil, false, err
		}
		rowID, more, err := s.nextSelID(ec)
		if err != nil || !more {
			return nil, false, err
		}
		out, match, err := s.materialize(rowID, s.rows[rowID])
		if err != nil {
			return nil, false, err
		}
		if !match {
			continue
		}
		s.rowsOut++
		return out, true, nil
	}
}

// advanceChunk moves the batch iteration to the next chunk with
// surviving rows: per chunk, every kernel gets a zone-map veto (a
// pruned chunk costs two comparisons total), then the selection bitmap
// is reset to all-ones and each kernel ANDs its matches in. Returns
// false at the end of the scan range. Cancellation is checked once per
// chunk.
func (s *tableScan) advanceChunk(ec *ExecCtx) (bool, error) {
	for {
		if s.nextChunkLo >= s.maxID {
			return false, nil
		}
		if err := ec.tickErr(&s.ticks); err != nil {
			return false, err
		}
		clo := s.nextChunkLo
		chunk := clo / imc.ChunkSize
		chi := clo + imc.ChunkSize
		if chi > s.maxID {
			chi = s.maxID
		}
		s.nextChunkLo = clo + imc.ChunkSize
		s.chunksSeen++
		pruned := false
		for ki := range s.batchRun {
			if s.kernelStats != nil {
				s.kernelStats[ki].chunks++
			}
			if s.batchRun[ki].Prune(chunk) {
				if s.kernelStats != nil {
					s.kernelStats[ki].pruned++
				}
				pruned = true
				break
			}
		}
		if pruned {
			s.chunksPruned++
			continue
		}
		s.sel.Reset(chi - clo)
		if s.kernelStats != nil {
			in := int64(chi - clo)
			for ki := range s.batchRun {
				s.batchRun[ki].And(chunk, s.sel)
				outBits := int64(s.sel.Count())
				s.kernelStats[ki].in += in
				s.kernelStats[ki].out += outBits
				in = outBits
			}
		} else {
			for ki := range s.batchRun {
				s.batchRun[ki].And(chunk, s.sel)
			}
		}
		s.selRows += int64(s.sel.Count())
		s.chunkLo = clo
		s.selPos = 0
		s.selActive = true
		return true, nil
	}
}

func (s *tableScan) Close() error {
	putBatch(s.out)
	s.out = nil
	if s.rowsOut > 0 {
		mScanRows.Add(s.rowsOut)
		s.rowsOut = 0
	}
	if s.chunksSeen > 0 {
		mIMCScanChunks.Add(s.chunksSeen)
		mIMCScanPruned.Add(s.chunksPruned)
		mIMCScanSelRows.Add(s.selRows)
		// keep display mirrors: EXPLAIN ANALYZE renders after Close
		s.statChunks += s.chunksSeen
		s.statPruned += s.chunksPruned
		s.statSelRows += s.selRows
		s.chunksSeen, s.chunksPruned, s.selRows = 0, 0, 0
	}
	return nil
}

func (s *tableScan) opName() string {
	name := fmt.Sprintf("TableScan(%s", s.tab.Name)
	if s.rowIDsFn != nil {
		name += " via-" + s.rowIDsVia
	}
	name += s.vecSuffix()
	if s.samplePct > 0 {
		name += fmt.Sprintf(" sample=%.0f%%", s.samplePct)
	}
	return name + ")"
}
func (s *tableScan) opChildren() []rowSource { return nil }
func (s *tableScan) opStat() *OpStats        { return s.st }

// vecSuffix is the operator-name part describing the scan's vector
// predicates (shared with ParallelScan's line).
func (s *tableScan) vecSuffix() string {
	if len(s.vecSpecs) == 0 {
		return ""
	}
	return fmt.Sprintf(" batch vec-filters=%d", len(s.vecSpecs))
}

// opNotes reports, in EXPLAIN with or without ANALYZE, how far the
// attached in-memory store stands in for the table as of now
// (imc.Image.Status).
func (s *tableScan) opNotes() []string {
	if ms, ok := s.sub.(MaintainedSource); ok {
		if status := ms.Image().Status(); status != "" {
			return []string{status}
		}
	}
	return nil
}

// opExtraLines reports, for EXPLAIN ANALYZE, a row-id access path that
// declined at Open (the scan then read the whole table) and the batch
// scan's chunk accounting: one summary line plus, in collect mode, one
// line per vector predicate with its chunk pruning and bit selectivity.
func (s *tableScan) opExtraLines() []string {
	if s.rowIDsFn != nil && s.rowIDs == nil {
		return []string{fmt.Sprintf("via-%s declined: scanned %d row ids", s.rowIDsVia, s.maxID)}
	}
	if s.statChunks == 0 {
		return nil
	}
	lines := []string{fmt.Sprintf("vec-batch: chunks=%d pruned=%d selected=%d",
		s.statChunks, s.statPruned, s.statSelRows)}
	for ki, ks := range s.kernelStats {
		lines = append(lines, fmt.Sprintf("vec[%s]: chunks=%d pruned=%d selectivity=%s",
			s.runLabels[ki], ks.chunks, ks.pruned, pctOf(ks.out, ks.in)))
	}
	return lines
}

// pctOf formats out/in as a percentage; "-" when nothing flowed in.
func pctOf(out, in int64) string {
	if in <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(out)/float64(in))
}

// ---------------------------------------------------------------------------
// filter / project / limit

type filterOp struct {
	planEstimate
	in    rowSource
	pred  Expr
	env   *planEnv
	ctx   *evalCtx
	st    *OpStats
	ticks int
	out   *Batch // the filter's pooled survivor batch
}

func (f *filterOp) Open(ec *ExecCtx) error {
	f.st = ec.statFor()
	f.ctx = f.env.bindCtx(f.in.Schema(), f.pred)
	return f.in.Open(ec)
}
func (f *filterOp) Close() error {
	putBatch(f.out)
	f.out = nil
	return f.in.Close()
}
func (f *filterOp) Schema() Schema { return f.in.Schema() }

func (f *filterOp) opName() string          { return "Filter" }
func (f *filterOp) opChildren() []rowSource { return []rowSource{f.in} }
func (f *filterOp) opStat() *OpStats        { return f.st }

type projectOp struct {
	planEstimate
	in    rowSource
	exprs []Expr
	sch   Schema
	env   *planEnv
	ctx   *evalCtx
	st    *OpStats
	// output rows are arena-carved so consumers may retain them without
	// a copy
	out   *Batch
	arena rowArena
}

func (p *projectOp) Open(ec *ExecCtx) error {
	p.st = ec.statFor()
	p.ctx = p.env.bindCtx(p.in.Schema(), p.exprs...)
	return p.in.Open(ec)
}
func (p *projectOp) Close() error {
	putBatch(p.out)
	p.out = nil
	return p.in.Close()
}
func (p *projectOp) Schema() Schema { return p.sch }

func (p *projectOp) opName() string          { return "Project" }
func (p *projectOp) opChildren() []rowSource { return []rowSource{p.in} }
func (p *projectOp) opStat() *OpStats        { return p.st }

type limitOp struct {
	planEstimate
	in    rowSource
	limit int
	n     int
	// inClosed: once the limit is reached the upstream is closed
	// eagerly so scans (and parallel scan workers) stop doing work the
	// query will never observe.
	inClosed bool
	st       *OpStats
}

func (l *limitOp) Open(ec *ExecCtx) error {
	l.st = ec.statFor()
	l.n = 0
	l.inClosed = false
	return l.in.Open(ec)
}

func (l *limitOp) Close() error {
	if l.inClosed {
		return nil
	}
	l.inClosed = true
	return l.in.Close()
}

func (l *limitOp) Schema() Schema { return l.in.Schema() }

func (l *limitOp) opName() string          { return fmt.Sprintf("Limit(%d)", l.limit) }
func (l *limitOp) opChildren() []rowSource { return []rowSource{l.in} }
func (l *limitOp) opStat() *OpStats        { return l.st }

// ---------------------------------------------------------------------------
// JSON_TABLE lateral apply

type jsonTableOp struct {
	planEstimate
	left rowSource // may be nil when JSON_TABLE is the only FROM item
	ref  *JSONTableRef
	sch  Schema
	env  *planEnv

	// leftCur is the row view of the outer input; leftRow is the outer
	// row currently being expanded.
	leftCur batchCursor
	leftRow []jsondom.Value
	done    bool
	argCtx  *evalCtx
	st      *OpStats
	ticks   int
	// preFilters are implied JSON_EXISTS path predicates; documents
	// failing any of them are skipped before row expansion (§6.3).
	preFilters []*pathengine.Compiled
	// preSpecs are prefilter candidates that reference bind parameters:
	// their constants are known only at execution time, so Open
	// translates them with the current bind values into runFilters.
	preSpecs   []Expr
	runFilters []*pathengine.Compiled
	// arena carves the merged left+expanded output rows; out is the
	// batch currently on loan to the consumer.
	arena rowArena
	out   *Batch
	// exp is the pooled expansion scratch (execution state: lazily
	// built per instance, never copied by clonePlan, so cached-plan
	// clones and parallel worker clones each own one). emitBatch is the
	// pre-bound emit callback (built once so the per-document Expand
	// call allocates no closure); bsink is the batch on loan to it
	// during NextBatch.
	exp       *sqljson.ExpandState
	emitBatch func([]jsondom.Value) error
	bsink     *Batch
	// expansion accounting for sql.jsontable.* metrics and EXPLAIN
	// ANALYZE: base is the state's counter snapshot at Open, pruned
	// counts prefilter-rejected documents this execution, lastStats/
	// lastPruned hold the flushed per-execution deltas for EXPLAIN.
	base       sqljson.ExpandStats
	pruned     int64
	lastStats  sqljson.ExpandStats
	lastPruned int64
}

func newJSONTableOp(left rowSource, ref *JSONTableRef, env *planEnv) *jsonTableOp {
	op := &jsonTableOp{left: left, ref: ref, env: env}
	if left != nil {
		op.sch = append(op.sch, left.Schema()...)
	}
	for _, name := range ref.ColNames {
		op.sch = append(op.sch, ColMeta{Table: ref.Alias, Name: name})
	}
	return op
}

func (j *jsonTableOp) Open(ec *ExecCtx) error {
	j.st = ec.statFor()
	j.leftCur, j.leftRow, j.done = batchCursor{src: j.left}, nil, false
	j.runFilters = nil
	for _, c := range j.preSpecs {
		if pf, ok := translatePrefilter(j.ref, c, j.env.params); ok {
			j.runFilters = append(j.runFilters, pf)
		}
	}
	var sch Schema
	if j.left != nil {
		sch = j.left.Schema()
	}
	j.argCtx = j.env.bindCtx(sch, j.ref.Arg)
	if j.exp == nil {
		// execution state, never copied by clonePlan: cached-plan clones
		// and parallel worker clones each check one out of the def's
		// pool on Open (and return it on Close), so evaluation arenas
		// and value dictionaries stay warm across executions
		j.exp = j.ref.Def.AcquireState()
		j.emitBatch = j.batchEmit
	}
	j.base = j.exp.Stats()
	j.pruned = 0
	if j.left != nil {
		return j.left.Open(ec)
	}
	return nil
}

func (j *jsonTableOp) Close() error {
	j.flushStats()
	j.ref.Def.ReleaseState(j.exp)
	j.exp = nil
	putBatch(j.out)
	j.out = nil
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}

// flushStats publishes this execution's expansion counters
// operator-locally (like sql.scan.rows) and keeps the deltas for
// EXPLAIN ANALYZE. Idempotent: a second Close adds zeros.
func (j *jsonTableOp) flushStats() {
	if j.exp == nil {
		return
	}
	s := j.exp.Stats()
	d := sqljson.ExpandStats{
		Docs:       s.Docs - j.base.Docs,
		Rows:       s.Rows - j.base.Rows,
		ParseReuse: s.ParseReuse - j.base.ParseReuse,
		ArenaGets:  s.ArenaGets - j.base.ArenaGets,
		ArenaHits:  s.ArenaHits - j.base.ArenaHits,
		InternHits: s.InternHits - j.base.InternHits,
	}
	j.base = s
	mJSONTableDocs.Add(d.Docs)
	mJSONTableRows.Add(d.Rows)
	mJSONTablePruned.Add(j.pruned)
	mJSONTableArenaHits.Add(d.ArenaHits)
	mJSONTableInternHits.Add(d.InternHits)
	if d.Docs != 0 || d.Rows != 0 || j.pruned != 0 {
		j.lastStats, j.lastPruned = d, j.pruned
	}
	j.pruned = 0
}

func (j *jsonTableOp) Schema() Schema { return j.sch }

// mergeRow carves left+expanded into the op's row arena. The scratch
// slice is ExpandState-owned and overwritten by the next row; the
// arena copy is what consumers may retain.
func (j *jsonTableOp) mergeRow(scratch []jsondom.Value) []jsondom.Value {
	lw := len(j.leftRow)
	row := j.arena.alloc(lw + len(scratch))
	copy(row, j.leftRow)
	copy(row[lw:], scratch)
	return row
}

// expandDoc evaluates the document argument against the current outer
// row, applies static and bind-time prefilters, and streams the merged
// JSON_TABLE rows to emit via the pooled ExpandState.
func (j *jsonTableOp) expandDoc(ec *ExecCtx, leftRow []jsondom.Value, emit func([]jsondom.Value) error) error {
	// one cancellation point per document (a document expands in
	// microseconds)
	if err := ec.Context().Err(); err != nil {
		return err
	}
	j.leftRow = leftRow
	j.argCtx.row = leftRow
	v, err := evalExpr(j.argCtx, j.ref.Arg)
	if err != nil {
		return err
	}
	if isNull(v) {
		return nil
	}
	if err := j.exp.Bind(v); err != nil {
		return err
	}
	for _, pf := range j.preFilters {
		ok, err := j.exp.Exists(pf)
		if err != nil {
			return err
		}
		if !ok {
			j.pruned++
			return nil // the residual WHERE would reject every row
		}
	}
	for _, pf := range j.runFilters {
		ok, err := j.exp.Exists(pf)
		if err != nil {
			return err
		}
		if !ok {
			j.pruned++
			return nil
		}
	}
	return j.exp.Expand(emit)
}

func (j *jsonTableOp) opName() string {
	name := fmt.Sprintf("JSONTable(%s", j.ref.Alias)
	if len(j.preFilters) > 0 {
		name += fmt.Sprintf(" prefilters=%d", len(j.preFilters))
	}
	if len(j.preSpecs) > 0 {
		name += fmt.Sprintf(" dyn-prefilters=%d", len(j.preSpecs))
	}
	return name + ")"
}
func (j *jsonTableOp) opChildren() []rowSource {
	if j.left == nil {
		return nil
	}
	return []rowSource{j.left}
}
func (j *jsonTableOp) opStat() *OpStats { return j.st }

// opExtraLines reports the expansion accounting of the last execution
// for EXPLAIN ANALYZE: documents expanded, rows emitted, documents
// pruned by prefilters, and how much evaluation scratch was served
// from the arena freelists.
func (j *jsonTableOp) opExtraLines() []string {
	d := j.lastStats
	if d.Docs == 0 && d.Rows == 0 && j.lastPruned == 0 {
		return nil
	}
	return []string{fmt.Sprintf(
		"expand: docs=%d rows=%d pruned=%d arena-reuse=%d/%d parse-reuse=%d intern-hits=%d",
		d.Docs, d.Rows, j.lastPruned, d.ArenaHits, d.ArenaGets, d.ParseReuse, d.InternHits)}
}

// ---------------------------------------------------------------------------
// joins

// crossJoin is a nested-loop cross product with the right side
// materialized.
type crossJoin struct {
	planEstimate
	left, right rowSource
	sch         Schema

	rightRows [][]jsondom.Value
	leftCur   batchCursor
	leftRow   []jsondom.Value
	ri        int
	init      bool
	ticks     int
	memUsed   int64
	ec        *ExecCtx
	st        *OpStats
	out       *Batch
}

func newCrossJoin(l, r rowSource) *crossJoin {
	return &crossJoin{left: l, right: r,
		sch: append(append(Schema{}, l.Schema()...), r.Schema()...)}
}

func (c *crossJoin) Open(ec *ExecCtx) error {
	c.st = ec.statFor()
	c.ec = ec
	c.init, c.ri, c.leftRow, c.rightRows = false, 0, nil, nil
	c.leftCur = batchCursor{src: c.left}
	if err := c.left.Open(ec); err != nil {
		return err
	}
	return c.right.Open(ec)
}

func (c *crossJoin) Close() error {
	putBatch(c.out)
	c.out = nil
	c.ec.release(c.memUsed)
	c.memUsed = 0
	if err := c.left.Close(); err != nil {
		return err
	}
	return c.right.Close()
}

func (c *crossJoin) Schema() Schema { return c.sch }

func (c *crossJoin) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if c.st != nil {
		t0 := time.Now()
		defer func() { c.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(c.out)
	c.out, err = fillBatch(ec, c, &c.ticks, max)
	return c.out, err
}

// step emits the next left x right pair, materializing the right side
// on the first call.
func (c *crossJoin) step(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	if !c.init {
		c.init = true
		right := batchCursor{src: c.right}
		for {
			if err := ec.tickErr(&c.ticks); err != nil {
				return nil, false, err
			}
			row, ok, err := right.next(ec)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			n := rowBytes(row)
			if err := ec.grow(n); err != nil {
				return nil, false, err
			}
			c.memUsed += n
			c.rightRows = append(c.rightRows, row)
		}
	}
	for {
		if err := ec.tickErr(&c.ticks); err != nil {
			return nil, false, err
		}
		if c.leftRow == nil {
			row, ok, err := c.leftCur.next(ec)
			if err != nil || !ok {
				return nil, false, err
			}
			c.leftRow = row
			c.ri = 0
		}
		if c.ri >= len(c.rightRows) {
			c.leftRow = nil
			continue
		}
		r := c.rightRows[c.ri]
		c.ri++
		out := make([]jsondom.Value, 0, len(c.leftRow)+len(r))
		out = append(out, c.leftRow...)
		out = append(out, r...)
		return out, true, nil
	}
}

func (c *crossJoin) opName() string          { return "CrossJoin" }
func (c *crossJoin) opChildren() []rowSource { return []rowSource{c.left, c.right} }
func (c *crossJoin) opStat() *OpStats        { return c.st }

// hashJoin is an equi-join: build on the right input, probe with the
// left (the plan the REL storage of §6.3 uses to join master and
// detail).
type hashJoin struct {
	planEstimate
	left, right         rowSource
	leftKeys, rightKeys []Expr
	residual            Expr
	leftOuter           bool
	env                 *planEnv
	sch                 Schema

	table   map[string][][]jsondom.Value
	leftRow []jsondom.Value
	matches [][]jsondom.Value
	mi      int
	init    bool
	ticks   int
	memUsed int64
	ec      *ExecCtx
	st      *OpStats

	leftCtx, rightCtx, residCtx *evalCtx

	// fast is the code-space path, taken when both inputs qualify
	// (non-nil after init); leftCur is the generic probe's view of the
	// left input; out is the batch on loan to the consumer.
	fast    *joinFast
	leftCur batchCursor
	arena   rowArena
	out     *Batch
	// keyBuf is the keyOf scratch for the build and probe loops.
	keyBuf []byte

	// buildLeft is the cost model's build-side choice: when the
	// LEFT input is estimated smaller, the hash table is built on it and
	// the right side streams past once. Emission stays left-major with
	// right rows in scan order — bit-for-bit the generic build-right
	// output — so the differential corpus holds (see buildLeftSide).
	buildLeft bool

	// build-left execution state: the materialized left rows in scan
	// order, and per left row the matching right rows in right-scan
	// order (residual already applied at probe time). blHadKey marks
	// left rows whose key matched at least one right row before the
	// residual: like the build-right loop, the left-outer pad fires
	// only on key misses, not on residual rejections.
	blLeft     [][]jsondom.Value
	blMatches  [][][]jsondom.Value
	blHadKey   []bool
	blActive   bool
	blPadded   bool
	blLi, blMi int
}

func newHashJoin(l, r rowSource, lk, rk []Expr, residual Expr, leftOuter bool, env *planEnv) *hashJoin {
	return &hashJoin{
		left: l, right: r, leftKeys: lk, rightKeys: rk,
		residual: residual, leftOuter: leftOuter, env: env,
		sch: append(append(Schema{}, l.Schema()...), r.Schema()...),
	}
}

func (h *hashJoin) Open(ec *ExecCtx) error {
	h.st = ec.statFor()
	h.ec = ec
	h.init, h.table, h.leftRow, h.matches, h.mi = false, nil, nil, nil, 0
	h.fast = nil
	h.leftCur = batchCursor{src: h.left}
	h.blLeft, h.blMatches, h.blHadKey, h.blActive, h.blPadded, h.blLi, h.blMi = nil, nil, nil, false, false, 0, 0
	h.leftCtx = h.env.bindCtx(h.left.Schema(), h.leftKeys...)
	h.rightCtx = h.env.bindCtx(h.right.Schema(), h.rightKeys...)
	if h.residual != nil {
		h.residCtx = h.env.bindCtx(h.sch, h.residual)
	}
	if err := h.left.Open(ec); err != nil {
		return err
	}
	return h.right.Open(ec)
}

func (h *hashJoin) Close() error {
	putBatch(h.out)
	h.out = nil
	h.ec.release(h.memUsed)
	h.memUsed = 0
	if err := h.left.Close(); err != nil {
		return err
	}
	return h.right.Close()
}

func (h *hashJoin) Schema() Schema { return h.sch }

// keyOf renders the canonical join key for row into buf (a scratch
// buffer the caller reuses across rows; the returned slice is its next
// incarnation). ok is false when a key expression is NULL — NULL keys
// never match — and the returned key is then empty.
func (h *hashJoin) keyOf(ctx *evalCtx, buf []byte, row []jsondom.Value, keys []Expr) (key []byte, ok bool, err error) {
	ctx.row = row
	buf = buf[:0]
	for _, e := range keys {
		v, err := evalExpr(ctx, e)
		if err != nil {
			return buf, false, err
		}
		if isNull(v) {
			return buf, false, nil
		}
		buf = keyRenderAppend(buf, v)
	}
	return buf, true, nil
}

func (h *hashJoin) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if h.st != nil {
		t0 := time.Now()
		defer func() { h.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(h.out)
	h.out, err = fillBatch(ec, h, &h.ticks, max)
	return h.out, err
}

// step emits the next join output row, building the hash table on the
// first call: in code space when both inputs qualify, else on the
// planner's build side.
func (h *hashJoin) step(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	if !h.init {
		h.init = true
		if jf := newJoinFast(h); jf != nil {
			h.fast = jf
			if err := jf.build(ec); err != nil {
				return nil, false, err
			}
		} else if h.buildLeft {
			if err := h.buildLeftSide(ec); err != nil {
				return nil, false, err
			}
		} else if err := h.buildGeneric(ec); err != nil {
			return nil, false, err
		}
	}
	if h.fast != nil {
		return h.fast.step(ec)
	}
	if h.blActive {
		return h.nextBuildLeft(ec)
	}
	for {
		if err := ec.tickErr(&h.ticks); err != nil {
			return nil, false, err
		}
		if h.mi < len(h.matches) {
			r := h.matches[h.mi]
			h.mi++
			out := make([]jsondom.Value, 0, len(h.leftRow)+len(r))
			out = append(out, h.leftRow...)
			out = append(out, r...)
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
		row, ok, err := h.leftCur.next(ec)
		if err != nil || !ok {
			return nil, false, err
		}
		h.leftRow = row
		k, kok, err := h.keyOf(h.leftCtx, h.keyBuf, row, h.leftKeys)
		h.keyBuf = k
		if err != nil {
			return nil, false, err
		}
		h.matches = nil
		if kok {
			h.matches = h.table[string(k)]
		}
		h.mi = 0
		if len(h.matches) == 0 && h.leftOuter {
			out := make([]jsondom.Value, 0, len(row)+len(h.right.Schema()))
			out = append(out, row...)
			for range h.right.Schema() {
				out = append(out, null)
			}
			return out, true, nil
		}
	}
}

// buildGeneric materializes the right input into the rendered-key hash
// table.
func (h *hashJoin) buildGeneric(ec *ExecCtx) error {
	right := batchCursor{src: h.right}
	h.table = make(map[string][][]jsondom.Value)
	for {
		if err := ec.tickErr(&h.ticks); err != nil {
			return err
		}
		row, ok, err := right.next(ec)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		k, kok, err := h.keyOf(h.rightCtx, h.keyBuf, row, h.rightKeys)
		h.keyBuf = k
		if err != nil {
			return err
		}
		if !kok {
			continue
		}
		ks := string(k)
		n := rowBytes(row) + int64(len(ks))
		if err := ec.grow(n); err != nil {
			return err
		}
		h.memUsed += n
		h.table[ks] = append(h.table[ks], row)
	}
}

// buildLeftSide materializes the LEFT input and hashes its keys, then
// streams the right input once, attaching each right row (after the
// residual check on the concatenated pair) to every matching left row.
// Left rows keep scan order and right matches append in right-scan
// order, so nextBuildLeft emits exactly the sequence the build-right
// probe loop would: left-major, right-scan order within a left row.
func (h *hashJoin) buildLeftSide(ec *ExecCtx) error {
	h.blActive = true
	right := batchCursor{src: h.right}
	byKey := make(map[string][]int)
	for {
		if err := ec.tickErr(&h.ticks); err != nil {
			return err
		}
		row, ok, err := h.leftCur.next(ec)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k, kok, err := h.keyOf(h.leftCtx, h.keyBuf, row, h.leftKeys)
		h.keyBuf = k
		if err != nil {
			return err
		}
		n := rowBytes(row) + int64(len(k))
		if err := ec.grow(n); err != nil {
			return err
		}
		h.memUsed += n
		li := len(h.blLeft)
		h.blLeft = append(h.blLeft, row)
		if kok { // NULL keys never match
			ks := string(k)
			byKey[ks] = append(byKey[ks], li)
		}
	}
	h.blMatches = make([][][]jsondom.Value, len(h.blLeft))
	h.blHadKey = make([]bool, len(h.blLeft))
	for {
		if err := ec.tickErr(&h.ticks); err != nil {
			return err
		}
		row, ok, err := right.next(ec)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		k, kok, err := h.keyOf(h.rightCtx, h.keyBuf, row, h.rightKeys)
		h.keyBuf = k
		if err != nil {
			return err
		}
		if !kok {
			continue
		}
		charged := false
		for _, li := range byKey[string(k)] {
			h.blHadKey[li] = true
			if h.residual != nil {
				pair := make([]jsondom.Value, 0, len(h.blLeft[li])+len(row))
				pair = append(pair, h.blLeft[li]...)
				pair = append(pair, row...)
				h.residCtx.row = pair
				v, err := evalExpr(h.residCtx, h.residual)
				if err != nil {
					return err
				}
				if !truthy(v) {
					continue
				}
			}
			if !charged {
				// the row slice is shared across its left matches;
				// charge it once
				n := rowBytes(row)
				if err := ec.grow(n); err != nil {
					return err
				}
				h.memUsed += n
				charged = true
			}
			h.blMatches[li] = append(h.blMatches[li], row)
		}
	}
}

// nextBuildLeft emits the build-left join output: left rows in scan
// order, each concatenated with its matches in right-scan order, with
// the left-outer NULL pad when a left row matched nothing.
func (h *hashJoin) nextBuildLeft(ec *ExecCtx) ([]jsondom.Value, bool, error) {
	for {
		if err := ec.tickErr(&h.ticks); err != nil {
			return nil, false, err
		}
		if h.blLi >= len(h.blLeft) {
			return nil, false, nil
		}
		lrow := h.blLeft[h.blLi]
		ms := h.blMatches[h.blLi]
		if h.blMi < len(ms) {
			r := ms[h.blMi]
			h.blMi++
			out := make([]jsondom.Value, 0, len(lrow)+len(r))
			out = append(out, lrow...)
			out = append(out, r...)
			return out, true, nil
		}
		if len(ms) == 0 && h.leftOuter && !h.blHadKey[h.blLi] && !h.blPadded {
			h.blPadded = true
			out := make([]jsondom.Value, 0, len(lrow)+len(h.right.Schema()))
			out = append(out, lrow...)
			for range h.right.Schema() {
				out = append(out, null)
			}
			return out, true, nil
		}
		h.blLi++
		h.blMi = 0
		h.blPadded = false
	}
}

func (h *hashJoin) opName() string {
	name := "HashJoin"
	if h.leftOuter {
		name = "HashJoin(left-outer)"
	}
	if h.buildLeft {
		name += " build=left"
	}
	return name
}
func (h *hashJoin) opChildren() []rowSource { return []rowSource{h.left, h.right} }
func (h *hashJoin) opStat() *OpStats        { return h.st }

// opExtraLines reports the code-space probe statistics when the fast
// path ran.
func (h *hashJoin) opExtraLines() []string {
	if h.fast == nil {
		return nil
	}
	return []string{h.fast.stat()}
}

// ---------------------------------------------------------------------------
// grouping and aggregation

// groupAggOp hashes input rows into groups and emits one row per
// group: a representative input row extended with one synthetic
// column per aggregate (positions recorded in planEnv.aggCols).
type groupAggOp struct {
	planEstimate
	in      rowSource
	groupBy []Expr
	aggs    []*FuncCall
	env     *planEnv
	// implicitGroup: aggregate query without GROUP BY — one group over
	// the whole input, emitted even when the input is empty.
	implicitGroup bool
	sch           Schema

	groups  [][]jsondom.Value
	gi      int
	opened  bool
	ticks   int
	memUsed int64
	ec      *ExecCtx
	st      *OpStats
	out     *Batch

	// fastStat is the code-space fast path's EXPLAIN ANALYZE line when
	// it ran.
	fastStat string
}

func newGroupAggOp(in rowSource, groupBy []Expr, aggs []*FuncCall, implicit bool, env *planEnv) *groupAggOp {
	g := &groupAggOp{in: in, groupBy: groupBy, aggs: aggs, implicitGroup: implicit, env: env}
	g.sch = append(Schema{}, in.Schema()...)
	for i, a := range g.aggs {
		env.aggCols[a] = len(g.sch)
		g.sch = append(g.sch, ColMeta{Name: fmt.Sprintf("$agg%d", i), Hidden: true})
	}
	return g
}

func (g *groupAggOp) Open(ec *ExecCtx) error {
	g.st = ec.statFor()
	g.ec = ec
	g.groups, g.gi, g.opened = nil, 0, false
	g.fastStat = ""
	return g.in.Open(ec)
}

func (g *groupAggOp) Close() error {
	putBatch(g.out)
	g.out = nil
	g.ec.release(g.memUsed)
	g.memUsed = 0
	return g.in.Close()
}
func (g *groupAggOp) Schema() Schema { return g.sch }

type groupState struct {
	repr   []jsondom.Value
	states []aggState
}

type aggState interface {
	add(v jsondom.Value)
	result() jsondom.Value
}

func (g *groupAggOp) build(ec *ExecCtx) error {
	// code-space aggregation when the plan shape qualifies; the generic
	// build otherwise
	if ok, err := g.buildFast(ec); ok || err != nil {
		return err
	}
	in := batchCursor{src: g.in}
	index := make(map[string]*groupState)
	var order []string
	inSch := g.in.Schema()
	bindExprs := append([]Expr{}, g.groupBy...)
	for _, a := range g.aggs {
		bindExprs = append(bindExprs, a.Args...)
	}
	ctx := g.env.bindCtx(inSch, bindExprs...)
	var keyBuf []byte // per-row rendered key, allocated only on new groups
	for {
		if err := ec.tickErr(&g.ticks); err != nil {
			return err
		}
		row, ok, err := in.next(ec)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ctx.row = row
		keyBuf = keyBuf[:0]
		for _, e := range g.groupBy {
			v, err := evalExpr(ctx, e)
			if err != nil {
				return err
			}
			keyBuf = keyRenderAppend(keyBuf, v)
		}
		gs, ok := index[string(keyBuf)] // alloc-free lookup
		if !ok {
			key := string(keyBuf)
			gs = &groupState{repr: row, states: g.newStates()}
			index[key] = gs
			order = append(order, key)
			// only the per-group representative row is retained; the
			// aggregate states are O(1) per group
			n := rowBytes(row) + int64(len(key))
			if err := ec.grow(n); err != nil {
				return err
			}
			g.memUsed += n
		}
		for i, agg := range g.aggs {
			var arg jsondom.Value = null
			if len(agg.Args) > 0 {
				v, err := evalExpr(ctx, agg.Args[0])
				if err != nil {
					return err
				}
				arg = v
			}
			gs.states[i].add(arg)
		}
	}
	if len(order) == 0 && g.implicitGroup {
		gs := &groupState{repr: make([]jsondom.Value, len(inSch)), states: g.newStates()}
		for i := range gs.repr {
			gs.repr[i] = null
		}
		index[""] = gs
		order = append(order, "")
	}
	for _, k := range order {
		gs := index[k]
		out := make([]jsondom.Value, 0, len(gs.repr)+len(g.aggs))
		out = append(out, gs.repr...)
		for _, st := range gs.states {
			out = append(out, st.result())
		}
		g.groups = append(g.groups, out)
	}
	return nil
}

func (g *groupAggOp) newStates() []aggState {
	states := make([]aggState, len(g.aggs))
	for i, a := range g.aggs {
		switch a.Name {
		case "count":
			states[i] = &countState{star: a.Star}
		case "sum":
			states[i] = &sumState{}
		case "avg":
			states[i] = &avgState{}
		case "min":
			states[i] = &minMaxState{min: true}
		case "max":
			states[i] = &minMaxState{}
		case "json_dataguideagg":
			states[i] = &dataGuideState{guide: dataguide.New()}
		}
	}
	return states
}

func (g *groupAggOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if g.st != nil {
		t0 := time.Now()
		defer func() { g.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(g.out)
	g.out = nil
	if !g.opened {
		g.opened = true
		if err := g.build(ec); err != nil {
			return nil, err
		}
	}
	g.out = sliceBatch(g.groups, &g.gi, max)
	return g.out, nil
}

func (g *groupAggOp) opName() string {
	return fmt.Sprintf("GroupAgg(keys=%d aggs=%d)", len(g.groupBy), len(g.aggs))
}
func (g *groupAggOp) opChildren() []rowSource { return []rowSource{g.in} }
func (g *groupAggOp) opStat() *OpStats        { return g.st }

// opExtraLines reports the code-space aggregation statistics when the
// fast path ran.
func (g *groupAggOp) opExtraLines() []string {
	if g.fastStat == "" {
		return nil
	}
	return []string{g.fastStat}
}

type countState struct {
	star bool
	n    int64
}

func (s *countState) add(v jsondom.Value) {
	if s.star || !isNull(v) {
		s.n++
	}
}
func (s *countState) result() jsondom.Value { return jsondom.NumberFromInt(s.n) }

type sumState struct {
	sum   float64
	valid bool
}

func (s *sumState) add(v jsondom.Value) {
	if isNull(v) {
		return
	}
	if f, ok := numOf(v); ok {
		s.sum += f
		s.valid = true
	}
}

func (s *sumState) result() jsondom.Value {
	if !s.valid {
		return null
	}
	return jsondom.NumberFromFloat(s.sum)
}

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) add(v jsondom.Value) {
	if isNull(v) {
		return
	}
	if f, ok := numOf(v); ok {
		s.sum += f
		s.n++
	}
}

func (s *avgState) result() jsondom.Value {
	if s.n == 0 {
		return null
	}
	return jsondom.NumberFromFloat(s.sum / float64(s.n))
}

type minMaxState struct {
	min  bool
	best jsondom.Value
}

func (s *minMaxState) add(v jsondom.Value) {
	if isNull(v) {
		return
	}
	if s.best == nil {
		s.best = v
		return
	}
	cmp, ok := compareSQL(v, s.best)
	if !ok {
		return
	}
	if s.min && cmp < 0 || !s.min && cmp > 0 {
		s.best = v
	}
}

func (s *minMaxState) result() jsondom.Value {
	if s.best == nil {
		return null
	}
	return s.best
}

// dataGuideState implements JSON_DATAGUIDEAGG (§3.4): a user-defined
// aggregate that merges instance DataGuides and returns the flat form
// as one JSON document.
type dataGuideState struct {
	guide *dataguide.Guide
	err   error
}

func (s *dataGuideState) add(v jsondom.Value) {
	if isNull(v) || s.err != nil {
		return
	}
	doc, err := sqljson.FromDatum(v)
	if err != nil {
		s.err = err
		return
	}
	dom, err := doc.DOM()
	if err != nil {
		s.err = err
		return
	}
	s.guide.Add(dom)
}

func (s *dataGuideState) result() jsondom.Value {
	return jsondom.String(s.guide.FlatJSON())
}

// ---------------------------------------------------------------------------
// window functions

// windowOp materializes its input, computes window function values and
// appends them as synthetic columns (positions recorded in
// planEnv.winCols). LAG/LEAD/ROW_NUMBER with OVER (ORDER BY ...) are
// supported; Q6 of Table 13 needs LAG.
type windowOp struct {
	planEstimate
	in    rowSource
	funcs []*WindowFunc
	env   *planEnv
	sch   Schema

	rows    [][]jsondom.Value
	pos     int
	opened  bool
	ticks   int
	memUsed int64
	ec      *ExecCtx
	st      *OpStats
	out     *Batch
}

func newWindowOp(in rowSource, funcs []*WindowFunc, env *planEnv) *windowOp {
	w := &windowOp{in: in, funcs: funcs, env: env}
	w.sch = append(Schema{}, in.Schema()...)
	for i, f := range funcs {
		env.winCols[f] = len(w.sch)
		w.sch = append(w.sch, ColMeta{Name: fmt.Sprintf("$win%d", i), Hidden: true})
	}
	return w
}

func (w *windowOp) Open(ec *ExecCtx) error {
	w.st = ec.statFor()
	w.ec = ec
	w.rows, w.pos, w.opened = nil, 0, false
	return w.in.Open(ec)
}

func (w *windowOp) Close() error {
	putBatch(w.out)
	w.out = nil
	w.ec.release(w.memUsed)
	w.memUsed = 0
	return w.in.Close()
}
func (w *windowOp) Schema() Schema { return w.sch }

func (w *windowOp) build(ec *ExecCtx) error {
	inSch := w.in.Schema()
	in := batchCursor{src: w.in}
	var base [][]jsondom.Value
	for {
		if err := ec.tickErr(&w.ticks); err != nil {
			return err
		}
		row, ok, err := in.next(ec)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := rowBytes(row)
		if err := ec.grow(n); err != nil {
			return err
		}
		w.memUsed += n
		base = append(base, row)
	}
	ext := make([][]jsondom.Value, len(base))
	for i, row := range base {
		ext[i] = make([]jsondom.Value, len(w.sch))
		copy(ext[i], row)
		for j := len(row); j < len(w.sch); j++ {
			ext[i][j] = null
		}
	}
	for fi, f := range w.funcs {
		order, err := sortedIndexes(base, inSch, w.env, f.OrderBy)
		if err != nil {
			return err
		}
		col := len(inSch) + fi
		for rank, rowIdx := range order {
			ctx := w.env.ctx(inSch, base[rowIdx])
			switch f.Name {
			case "row_number":
				ext[rowIdx][col] = jsondom.NumberFromInt(int64(rank + 1))
			case "lag", "lead":
				offset := 1
				if len(f.Args) >= 2 {
					ov, err := evalExpr(ctx, f.Args[1])
					if err != nil {
						return err
					}
					if of, ok := numOf(ov); ok {
						offset = int(of)
					}
				}
				srcRank := rank - offset
				if f.Name == "lead" {
					srcRank = rank + offset
				}
				switch {
				case srcRank >= 0 && srcRank < len(order):
					v, err := evalExpr(w.env.ctx(inSch, base[order[srcRank]]), f.Args[0])
					if err != nil {
						return err
					}
					ext[rowIdx][col] = v
				case len(f.Args) >= 3:
					v, err := evalExpr(ctx, f.Args[2])
					if err != nil {
						return err
					}
					ext[rowIdx][col] = v
				}
			default:
				return fmt.Errorf("sql: unsupported window function %q", f.Name)
			}
		}
	}
	w.rows = ext
	return nil
}

func (w *windowOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if w.st != nil {
		t0 := time.Now()
		defer func() { w.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(w.out)
	w.out = nil
	if !w.opened {
		w.opened = true
		if err := w.build(ec); err != nil {
			return nil, err
		}
	}
	w.out = sliceBatch(w.rows, &w.pos, max)
	return w.out, nil
}

func (w *windowOp) opName() string          { return fmt.Sprintf("Window(funcs=%d)", len(w.funcs)) }
func (w *windowOp) opChildren() []rowSource { return []rowSource{w.in} }
func (w *windowOp) opStat() *OpStats        { return w.st }

// ---------------------------------------------------------------------------
// sorting

// sortOp materializes and orders its input. Key expressions are
// evaluated against the input schema; positional items (ORDER BY 1)
// are resolved by the planner into expressions before reaching here.
type sortOp struct {
	planEstimate
	in    rowSource
	items []OrderItem
	env   *planEnv

	rows   [][]jsondom.Value
	pos    int
	opened bool
	// inClosed: the input is closed as soon as materialization is
	// complete — it has no more rows to give, and closing it early
	// stops any parallel scan workers still queued behind it.
	inClosed bool
	ticks    int
	memUsed  int64
	ec       *ExecCtx
	st       *OpStats
	out      *Batch
}

func (s *sortOp) Open(ec *ExecCtx) error {
	s.st = ec.statFor()
	s.ec = ec
	s.rows, s.pos, s.opened, s.inClosed = nil, 0, false, false
	return s.in.Open(ec)
}

func (s *sortOp) Close() error {
	putBatch(s.out)
	s.out = nil
	s.ec.release(s.memUsed)
	s.memUsed = 0
	if s.inClosed {
		return nil
	}
	s.inClosed = true
	return s.in.Close()
}

func (s *sortOp) Schema() Schema { return s.in.Schema() }

func (s *sortOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if s.st != nil {
		t0 := time.Now()
		defer func() { s.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(s.out)
	s.out = nil
	if !s.opened {
		s.opened = true
		if err := s.build(ec); err != nil {
			return nil, err
		}
	}
	s.out = sliceBatch(s.rows, &s.pos, max)
	return s.out, nil
}

// build materializes and stable-sorts the whole input.
func (s *sortOp) build(ec *ExecCtx) error {
	in := batchCursor{src: s.in}
	for {
		if err := ec.tickErr(&s.ticks); err != nil {
			return err
		}
		row, ok, err := in.next(ec)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := rowBytes(row)
		if err := ec.grow(n); err != nil {
			return err
		}
		s.memUsed += n
		s.rows = append(s.rows, row)
	}
	// fully materialized: release the upstream immediately
	if !s.inClosed {
		s.inClosed = true
		if err := s.in.Close(); err != nil {
			return err
		}
	}
	inSch := s.in.Schema()
	var itemExprs []Expr
	for _, it := range s.items {
		itemExprs = append(itemExprs, it.Expr)
	}
	ctx := s.env.bindCtx(inSch, itemExprs...)
	keys := make([][]jsondom.Value, len(s.rows))
	for i, row := range s.rows {
		ctx.row = row
		keys[i] = make([]jsondom.Value, len(s.items))
		for k, it := range s.items {
			v, err := evalExpr(ctx, it.Expr)
			if err != nil {
				return err
			}
			keys[i][k] = v
		}
	}
	idx := make([]int, len(s.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return sortKeyLess(s.items, keys[idx[a]], keys[idx[b]])
	})
	sorted := make([][]jsondom.Value, len(s.rows))
	for i, j := range idx {
		sorted[i] = s.rows[j]
	}
	s.rows = sorted
	return nil
}

func (s *sortOp) opName() string          { return fmt.Sprintf("Sort(keys=%d)", len(s.items)) }
func (s *sortOp) opChildren() []rowSource { return []rowSource{s.in} }
func (s *sortOp) opStat() *OpStats        { return s.st }

// sortKeyLess is the ORDER BY comparison over evaluated key tuples.
func sortKeyLess(items []OrderItem, a, b []jsondom.Value) bool {
	for k, it := range items {
		c := compareForSort(a[k], b[k])
		if it.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// sortedIndexes sorts row indexes by ORDER BY items evaluated against
// the rows; used by window functions.
func sortedIndexes(rows [][]jsondom.Value, sch Schema, env *planEnv, items []OrderItem) ([]int, error) {
	keys := make([][]jsondom.Value, len(rows))
	for i, row := range rows {
		keys[i] = make([]jsondom.Value, len(items))
		for k, it := range items {
			if it.Expr == nil {
				return nil, fmt.Errorf("sql: positional ORDER BY not supported in OVER clauses")
			}
			v, err := evalExpr(env.ctx(sch, row), it.Expr)
			if err != nil {
				return nil, err
			}
			keys[i][k] = v
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, it := range items {
			c := compareForSort(keys[idx[a]][k], keys[idx[b]][k])
			if it.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return idx, nil
}

// compareForSort orders values with NULLs last (the Oracle default for
// ascending order) and incomparable kinds by kind id for determinism.
func compareForSort(a, b jsondom.Value) int {
	an, bn := isNull(a), isNull(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	if cmp, ok := compareSQL(a, b); ok {
		return cmp
	}
	ak, bk := a.Kind(), b.Kind()
	switch {
	case ak < bk:
		return -1
	case ak > bk:
		return 1
	}
	return 0
}

// keyRender produces a canonical grouping/join key for a value.
func keyRender(v jsondom.Value) string {
	if isNull(v) {
		return "\x00N"
	}
	switch t := v.(type) {
	case jsondom.String:
		return "s" + string(t)
	case jsondom.Bool:
		if t {
			return "bt"
		}
		return "bf"
	default:
		if f, ok := numOf(v); ok {
			// numeric normalization so 1 and 1.0 group together
			return "n" + string(jsondom.NumberFromFloat(f))
		}
		return "x"
	}
}

// keyRenderAppend appends keyRender's canonical form of v plus the
// NUL column separator to dst. Key builders render each row's key into
// a reused scratch buffer and look groups up with an alloc-free
// map[string(buf)] access, materializing the key string only when a
// new group or build row is inserted — the dominant per-row allocation
// of the rendered-key aggregation and join paths otherwise.
func keyRenderAppend(dst []byte, v jsondom.Value) []byte {
	if isNull(v) {
		dst = append(dst, "\x00N"...)
	} else {
		switch t := v.(type) {
		case jsondom.String:
			dst = append(dst, 's')
			dst = append(dst, t...)
		case jsondom.Bool:
			if t {
				dst = append(dst, "bt"...)
			} else {
				dst = append(dst, "bf"...)
			}
		default:
			if f, ok := numOf(v); ok {
				dst = append(dst, 'n')
				dst = jsondom.AppendFloat(dst, f)
			} else {
				dst = append(dst, 'x')
			}
		}
	}
	return append(dst, 0)
}

// aliasWrap renames the table qualifier of every column, exposing a
// subquery or view under its alias.
type aliasWrap struct {
	planEstimate
	in    rowSource
	alias string
	sch   Schema
	st    *OpStats
}

func newAliasWrap(in rowSource, alias string, names []string) *aliasWrap {
	w := &aliasWrap{in: in, alias: alias}
	inSch := in.Schema()
	for i := range inSch {
		name := inSch[i].Name
		if names != nil && i < len(names) {
			name = names[i]
		}
		w.sch = append(w.sch, ColMeta{Table: alias, Name: name})
	}
	return w
}

func (w *aliasWrap) Open(ec *ExecCtx) error {
	w.st = ec.statFor()
	return w.in.Open(ec)
}
func (w *aliasWrap) Close() error   { return w.in.Close() }
func (w *aliasWrap) Schema() Schema { return w.sch }

func (w *aliasWrap) opName() string          { return fmt.Sprintf("Alias(%s)", w.alias) }
func (w *aliasWrap) opChildren() []rowSource { return []rowSource{w.in} }
func (w *aliasWrap) opStat() *OpStats        { return w.st }
