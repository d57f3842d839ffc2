// Engine observability: the always-on metrics the statement path and
// the scan operators feed, the slow-query log, and the SHOW METRICS
// statement that exposes the process-wide registry through SQL.
//
// Hot-path budget: per statement the engine pays two time.Now calls,
// four counter increments, and one histogram observation; per scanned
// row it pays a non-atomic operator-local increment that is flushed to
// the shared counter once at operator Close. Per-operator wall-clock
// timing (the EXPLAIN ANALYZE sinks) stays opt-in: it is enabled for
// every statement only while a slow-query log is installed, so a slow
// statement can be dumped with live operator stats.

package sqlengine

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/jsondom"
	"repro/internal/metrics"
)

// Statement-path metrics (docs/OBSERVABILITY.md catalogs semantics).
var (
	mQueryStarted   = metrics.NewCounter("sql.query.started", "statements entering execution")
	mQueryFinished  = metrics.NewCounter("sql.query.finished", "statements completed without error")
	mQueryFailed    = metrics.NewCounter("sql.query.failed", "statements failed with a non-cancellation error")
	mQueryCancelled = metrics.NewCounter("sql.query.cancelled", "statements aborted by context cancellation or timeout")
	mQuerySlow      = metrics.NewCounter("sql.query.slow", "statements written to the slow-query log")
	mQueryLatency   = metrics.NewHistogram("sql.query.latency_ns", "end-to-end statement latency, nanoseconds")
)

// Plan-cache and parse metrics. A hard parse is a full ParseStatement
// call on the execution path (Exec/Query miss, Prepare, replan after
// invalidation); a soft parse is an execution served from an already
// compiled plan.
var (
	mPlanCacheHits          = metrics.NewCounter("sql.plancache.hits", "statements served from the plan cache")
	mPlanCacheMisses        = metrics.NewCounter("sql.plancache.misses", "cacheable statements that required a hard parse and plan")
	mPlanCacheEvictions     = metrics.NewCounter("sql.plancache.evictions", "plans evicted by the LRU capacity bound")
	mPlanCacheInvalidations = metrics.NewCounter("sql.plancache.invalidations", "generation bumps that invalidated all cached plans (DDL, IMC attach/detach, planner changes)")
	mSoftParse              = metrics.NewCounter("sql.parse.soft", "executions that reused a compiled plan without parsing")
	mHardParse              = metrics.NewCounter("sql.parse.hard", "full SQL parses on the execution path")
)

// Scan and memory-accounting metrics.
var (
	mScanRows       = metrics.NewCounter("sql.scan.rows", "rows selected by table scans, before residual filters (rows the code-space fast paths consume by id included)")
	mParScans       = metrics.NewCounter("sql.scan.parallel.fanout", "parallel partitioned scans started")
	mParWorkers     = metrics.NewCounter("sql.scan.parallel.workers", "scan worker goroutines launched")
	mParRows        = metrics.NewCounter("sql.scan.parallel.rows", "rows delivered by parallel scan workers (after worker-side filters)")
	mParMergeStalls = metrics.NewCounter("sql.scan.parallel.merge_stalls", "merge-side waits on an empty worker channel")
	mMemCharged     = metrics.NewCounter("sql.mem.bytes_charged", "bytes charged against query memory budgets")
	mMemDenied      = metrics.NewCounter("sql.mem.denials", "allocations denied by the query memory budget")
)

// Batch-vectorized IMC scan metrics, flushed operator-locally at scan
// Close like sql.scan.rows.
var (
	mIMCScanChunks  = metrics.NewCounter("imc.scan.chunks", "vector chunks considered by batch scans")
	mIMCScanPruned  = metrics.NewCounter("imc.scan.chunks_pruned", "vector chunks skipped whole by zone-map pruning")
	mIMCScanSelRows = metrics.NewCounter("imc.scan.rows_selected", "rows surviving the selection bitmap in batch scans")
)

// Batch execution spine metrics: batch production is counted once per
// batch (1/batchSize of the row rate), so these are direct atomic adds
// rather than Close-flushed accumulators.
var (
	mBatchBatches = metrics.NewCounter("sql.batch.batches", "row batches produced by table scans")
	mAggFastRows  = metrics.NewCounter("sql.batch.agg_rows", "rows aggregated by the code-space grouped-aggregation fast path")
)

// JSON_TABLE expansion metrics, flushed operator-locally at Close like
// sql.scan.rows: document and row volumes through the pooled
// ExpandState, prefilter prunes, and evaluation-scratch freelist hits.
var (
	mJSONTableDocs       = metrics.NewCounter("sql.jsontable.docs", "documents bound for JSON_TABLE expansion")
	mJSONTableRows       = metrics.NewCounter("sql.jsontable.rows", "rows emitted by JSON_TABLE expansion")
	mJSONTablePruned     = metrics.NewCounter("sql.jsontable.docs_pruned", "documents skipped whole by JSON_EXISTS prefilters")
	mJSONTableArenaHits  = metrics.NewCounter("sql.jsontable.arena_hits", "path-evaluation scratch checkouts served from the expansion arena freelists")
	mJSONTableInternHits = metrics.NewCounter("sql.jsontable.intern_hits", "column values served from the expansion value dictionaries instead of freshly boxed")
)

// Dictionary-code join probe metrics (the hash-join fast path that
// builds and probes on uint32 dictionary codes / float64 bits instead
// of rendered keys).
var (
	mDictProbeBuilds = metrics.NewCounter("imc.dictprobe.builds", "hash-join builds executed in code space")
	mDictProbeRows   = metrics.NewCounter("imc.dictprobe.rows", "probe-side rows matched through code-space lookup")
)

// Cost-based planner metrics (docs/OPTIMIZER.md): how often the
// statistics actually changed a plan, and how often statistics drift
// invalidated a cached one.
var (
	mCostReorders      = metrics.NewCounter("sql.planner.cost.conjunct_reorders", "WHERE clauses whose AND-conjuncts were reordered most-selective-first")
	mCostBuildLeft     = metrics.NewCounter("sql.planner.cost.join_build_left", "hash joins built on the left (estimated smaller) input")
	mCostIndexSkips    = metrics.NewCounter("sql.planner.cost.index_skips", "index-postings scans demoted to vectorized scans by the selectivity crossover")
	mCostStatsDrift    = metrics.NewCounter("sql.planner.cost.stats_drift", "cached plans invalidated because base-table sizes drifted past a power-of-two bucket")
	mJoinSideConjuncts = metrics.NewCounter("sql.planner.join_side_conjuncts", "WHERE conjuncts handed to one join input at plan time")
)

// slowQueryConfig is the installed slow-query log; nil means disabled.
type slowQueryConfig struct {
	threshold time.Duration
	mu        sync.Mutex // serializes multi-line entries from concurrent queries
	w         io.Writer
}

// SetSlowQueryLog installs (or, with w == nil, removes) the engine's
// slow-query log: any statement whose end-to-end latency reaches
// threshold is written to w as a multi-line entry carrying the SQL
// text, the phase trace, and — for SELECTs — the EXPLAIN ANALYZE
// operator tree. While a log is installed, per-operator stats
// collection is enabled for every statement (the same timers EXPLAIN
// ANALYZE uses), which costs two clock reads per operator NextBatch call.
func (e *Engine) SetSlowQueryLog(w io.Writer, threshold time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w == nil {
		e.slowLog = nil
		return
	}
	e.slowLog = &slowQueryConfig{threshold: threshold, w: w}
}

// slowQuery returns the current slow-query config, or nil.
func (e *Engine) slowQuery() *slowQueryConfig {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.slowLog
}

// logSlowQuery writes one slow-query entry. plan may be nil for
// non-SELECT statements.
func (cfg *slowQueryConfig) logSlowQuery(sqlText string, stmt Statement, queryID uint64, elapsed time.Duration, tr *metrics.Trace, plan rowSource) {
	mQuerySlow.Inc()
	if sqlText == "" {
		sqlText = fmt.Sprintf("<pre-parsed %T>", stmt)
	}
	cfg.mu.Lock()
	defer cfg.mu.Unlock()
	fmt.Fprintf(cfg.w, "--- SLOW QUERY id=%d elapsed=%s threshold=%s\n", queryID, elapsed, cfg.threshold)
	fmt.Fprintf(cfg.w, "sql: %s\n", sqlText)
	if s := tr.String(); s != "" {
		fmt.Fprintf(cfg.w, "trace: %s\n", s)
	}
	if plan != nil {
		fmt.Fprintln(cfg.w, "plan:")
		for _, line := range renderPlan(plan, true) {
			fmt.Fprintf(cfg.w, "  %s\n", line)
		}
	}
}

// runShowMetrics executes SHOW METRICS / STATS: one row per counter
// and gauge, plus count/sum/max/p50/p90/p99 rows per histogram, all
// read live from the process-wide default registry.
func (e *Engine) runShowMetrics() (*Result, error) {
	snap := metrics.Default.Snapshot()
	res := &Result{Columns: []string{"metric", "value"}}
	add := func(name string, v int64) {
		res.Rows = append(res.Rows, []jsondom.Value{jsondom.String(name), jsondom.NumberFromInt(v)})
	}
	for _, s := range snap.Samples {
		add(s.Name, s.Value)
	}
	for _, h := range snap.Histograms {
		add(h.Name+".count", h.Count)
		add(h.Name+".sum", h.Sum)
		add(h.Name+".max", h.Max)
		add(h.Name+".p50", h.P50)
		add(h.Name+".p90", h.P90)
		add(h.Name+".p99", h.P99)
	}
	return res, nil
}

// runShowStats executes SHOW STATS (and the bare STATS shorthand): the
// SHOW METRICS rows followed by the optimizer statistics the cost
// model reads — per-table row counts, per-guide document
// and path counts with the per-path monoid statistics (frequency,
// non-null count, NDV estimate), and the populated IMC column
// statistics.
func (e *Engine) runShowStats() (*Result, error) {
	res, err := e.runShowMetrics()
	if err != nil {
		return nil, err
	}
	add := func(name string, v int64) {
		res.Rows = append(res.Rows, []jsondom.Value{jsondom.String(name), jsondom.NumberFromInt(v)})
	}
	names := e.cat.Names()
	sort.Strings(names)
	for _, name := range names {
		tab, ok := e.cat.Table(name)
		if !ok {
			continue
		}
		add("optimizer."+name+".rows", int64(tab.NumRows()))
		for _, ix := range e.indexesFor(name) {
			if !ix.DataGuideEnabled() {
				continue
			}
			g := ix.Guide()
			leaves := g.LeafEntries()
			add("optimizer."+name+".guide.docs", int64(ix.DocCount()))
			add("optimizer."+name+".guide.paths", int64(len(leaves)))
			for _, ent := range leaves {
				pfx := "optimizer." + name + ".path." + ent.Path
				add(pfx+".frequency", int64(ent.Frequency))
				add(pfx+".nonnull", int64(ent.NonNull()))
				add(pfx+".ndv", ent.NDV())
			}
		}
		if bfs, ok := e.imcSource(name).(BatchFilterSource); ok {
			for _, col := range bfs.PopulatedColumns() {
				vec, _ := bfs.Vector(col)
				st := vec.Stats()
				pfx := "optimizer." + name + ".imc." + col
				add(pfx+".rows", int64(st.Rows))
				add(pfx+".nulls", int64(st.Nulls))
				add(pfx+".ndv", st.NDV)
			}
		}
	}
	return res, nil
}
