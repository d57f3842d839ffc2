// Engine: the public SQL API — statement execution, the planner, the
// view/ index catalogs, and the in-memory store attachment points.

package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/metrics"
	"repro/internal/searchindex"
	"repro/internal/store"
)

// Engine executes SQL over a store catalog. It stands in for the
// Oracle SQL layer: tables, views, search indexes with DataGuide
// maintenance, virtual columns, and the IMC attachment of §5.2.
type Engine struct {
	mu    sync.RWMutex
	cat   *store.Catalog
	views map[string]*viewDef
	// indexes by name; tableIndexes by table name.
	indexes      map[string]*searchindex.Index
	tableIndexes map[string][]*searchindex.Index
	// imc: in-memory substitution sources by table name (§5.2).
	imc map[string]InMemorySource
	// vcRewrites: table -> canonical JSON_VALUE expression -> virtual
	// column name, used to rewrite queries onto virtual columns
	// (§5.2.1).
	vcRewrites map[string]map[string]string
	// slowLog, when non-nil, receives statements at or above its
	// latency threshold (SetSlowQueryLog).
	slowLog *slowQueryConfig
	// plans is the LRU plan cache behind Query/Exec; planGen is the
	// plan generation, bumped by invalidatePlans on any change that
	// could alter planning (DDL, IMC attach/detach, index/VC/view
	// creation) so stale cached plans self-invalidate at lookup.
	plans   *planCache
	planGen atomic.Uint64

	// Planner toggles individual optimizations off, for ablation
	// studies and debugging; the zero value enables everything.
	// Flipping a flag is observed by the plan cache: cached plans
	// carry the option snapshot they were built under and are
	// discarded on mismatch.
	Planner PlannerOptions
}

// PlannerOptions disables individual planner optimizations.
type PlannerOptions struct {
	// DisablePrefilter turns off JSON_EXISTS prefilters on JSON_TABLE
	// (§6.3's predicate pushdown).
	DisablePrefilter bool
	// DisableVCRewrite turns off rewriting JSON_VALUE expressions onto
	// matching virtual columns (§5.2.1).
	DisableVCRewrite bool
	// DisableIndexScan turns off search-index-driven scans for
	// JSON_EXISTS predicates.
	DisableIndexScan bool
	// DisableVectorFilter turns off columnar predicate pushdown over
	// in-memory vectors (§5.2.1): no chunk kernels, selection bitmaps or
	// zone-map pruning, every conjunct a row-level filter.
	DisableVectorFilter bool
	// DisableParallelScan turns off parallel partitioned scans (serial
	// tableScan + filter instead of parallelScanOp).
	DisableParallelScan bool
	// ParallelDegree is the worker count for parallel scans; <= 0 means
	// runtime.GOMAXPROCS(0).
	ParallelDegree int
	// ParallelMinRows is the minimum table size for a parallel scan;
	// <= 0 means the built-in default (defaultParallelMinRows).
	ParallelMinRows int
	// MemoryBudget caps the bytes pipeline-breaking operators (sort,
	// hash-join build, group-by, window, cross-join) may buffer per
	// query; <= 0 disables the accountant.
	MemoryBudget int64
	// DisableCostBasedPlanner turns off the statistics-driven plan
	// decisions (docs/OPTIMIZER.md): AND-conjunct ordering, the
	// index-vs-vectorized access-path arbitration, and the hash-join
	// build-side choice. EXPLAIN's est-rows annotations stay on — they
	// are observability, not plan decisions.
	DisableCostBasedPlanner bool
}

type viewDef struct {
	stmt  *SelectStmt
	names []string
}

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    [][]jsondom.Value
}

// New creates an engine with an empty catalog.
func New() *Engine {
	return &Engine{
		cat:          store.NewCatalog(),
		views:        make(map[string]*viewDef),
		indexes:      make(map[string]*searchindex.Index),
		tableIndexes: make(map[string][]*searchindex.Index),
		imc:          make(map[string]InMemorySource),
		vcRewrites:   make(map[string]map[string]string),
		plans:        newPlanCache(defaultPlanCacheSize),
	}
}

// Catalog exposes the underlying table catalog.
func (e *Engine) Catalog() *store.Catalog { return e.cat }

// AttachIMC installs an in-memory substitution source for a table,
// the population step of §5.2.2 / §5.2.1.
func (e *Engine) AttachIMC(table string, src InMemorySource) {
	e.setIMC(strings.ToLower(table), src)
	e.invalidatePlans()
}

// DetachIMC removes the in-memory source for a table. Cached plans
// bind the source at plan time, so an actual detach invalidates them;
// detaching a table with no source attached (the DML paths call this
// unconditionally) leaves the cache alone.
func (e *Engine) DetachIMC(table string) {
	if e.removeIMC(strings.ToLower(table)) {
		e.invalidatePlans()
	}
}

// Locked accessors for the engine's mutable catalog maps. Every read
// or write of e.imc / e.views / e.indexes / e.tableIndexes /
// e.vcRewrites goes through one of these so the critical section is a
// deferred-unlock one-liner (the lockcheck invariant) and the callers
// — planning, DDL, rewrite — never hold e.mu across real work.

// setIMC publishes the in-memory source for a (lowercased) table name.
func (e *Engine) setIMC(name string, src InMemorySource) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.imc[name] = src
}

// removeIMC detaches a table's in-memory source, reporting whether one
// was attached.
func (e *Engine) removeIMC(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, had := e.imc[name]
	delete(e.imc, name)
	return had
}

// imcSource returns the in-memory source attached to a table, nil if
// none.
func (e *Engine) imcSource(name string) InMemorySource {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.imc[name]
}

// view returns the named view's definition.
func (e *Engine) view(name string) (*viewDef, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vd, ok := e.views[name]
	return vd, ok
}

// setView installs or replaces a view definition.
func (e *Engine) setView(name string, vd *viewDef) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.views[name] = vd
}

// indexDefined reports whether a search index name is taken.
func (e *Engine) indexDefined(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, dup := e.indexes[name]
	return dup
}

// registerIndex publishes a built search index under its name and
// table.
func (e *Engine) registerIndex(name, table string, ix *searchindex.Index) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.indexes[name] = ix
	e.tableIndexes[table] = append(e.tableIndexes[table], ix)
}

// indexesFor returns the search indexes observing a table.
func (e *Engine) indexesFor(table string) []*searchindex.Index {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tableIndexes[table]
}

// addVCRewrite records expression-to-virtual-column rewrite for a
// table (§5.2.1 query rewriting).
func (e *Engine) addVCRewrite(table, exprKey, column string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.vcRewrites[table] == nil {
		e.vcRewrites[table] = make(map[string]string)
	}
	e.vcRewrites[table][exprKey] = column
}

// vcRewritesFor returns a table's expression rewrites (nil when none).
func (e *Engine) vcRewritesFor(table string) map[string]string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.vcRewrites[table]
}

// SearchIndex returns a search index by name.
func (e *Engine) SearchIndex(name string) (*searchindex.Index, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ix, ok := e.indexes[strings.ToLower(name)]
	return ix, ok
}

// InsertRow appends a row directly (the bulk-load fast path used by
// workload loaders); constraint checks and index maintenance still
// apply.
func (e *Engine) InsertRow(table string, row store.Row) error {
	t, ok := e.cat.Table(strings.ToLower(table))
	if !ok {
		return fmt.Errorf("sql: no such table %q", table)
	}
	_, err := t.Insert(row)
	return err
}

// MustExec runs a statement and panics on error; for setup code.
func (e *Engine) MustExec(sql string, params ...jsondom.Value) *Result {
	r, err := e.Exec(sql, params...)
	if err != nil {
		panic(err)
	}
	return r
}

// Exec parses and executes one SQL statement without a deadline
// (context.Background()).
func (e *Engine) Exec(sql string, params ...jsondom.Value) (*Result, error) {
	return e.ExecContext(context.Background(), sql, params...)
}

// Query is Exec under its read-oriented name.
func (e *Engine) Query(sql string, params ...jsondom.Value) (*Result, error) {
	return e.ExecContext(context.Background(), sql, params...)
}

// QueryContext runs one statement under the caller's context: scans
// and pipeline breakers observe cancellation/timeout cooperatively and
// return ctx.Err() promptly.
func (e *Engine) QueryContext(ctx context.Context, sql string, params ...jsondom.Value) (*Result, error) {
	return e.ExecContext(ctx, sql, params...)
}

// ExecContext parses and executes one SQL statement under ctx.
// Cacheable SELECTs are served through the plan cache (execCached);
// everything else — and every statement while the cache is disabled —
// takes the parse-and-execute path.
func (e *Engine) ExecContext(ctx context.Context, sql string, params ...jsondom.Value) (*Result, error) {
	if res, handled, err := e.execCached(ctx, sql, params); handled {
		return res, err
	}
	mHardParse.Inc()
	t0 := time.Now()
	stmt, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return e.execStmt(ctx, sql, time.Since(t0), stmt, params)
}

// ExecStmt executes a pre-parsed statement (loaders reuse parsed
// INSERTs to avoid paying the parser per row).
func (e *Engine) ExecStmt(stmt Statement, params ...jsondom.Value) (*Result, error) {
	return e.ExecStmtContext(context.Background(), stmt, params...)
}

// ExecStmtContext executes a pre-parsed statement under ctx.
func (e *Engine) ExecStmtContext(ctx context.Context, stmt Statement, params ...jsondom.Value) (*Result, error) {
	return e.execStmt(ctx, "", 0, stmt, params)
}

// execStmt wraps statement dispatch with the always-on query metrics,
// the typed cancellation error, and the slow-query log. parseD is the
// parse time already spent on sqlText (zero for pre-parsed
// statements); both are folded into the reported latency.
func (e *Engine) execStmt(ctx context.Context, sqlText string, parseD time.Duration, stmt Statement, params []jsondom.Value) (*Result, error) {
	return e.runWrapped(sqlText, parseD, stmt, func(collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
		return e.dispatchStmt(ctx, stmt, params, collect, tr)
	})
}

// runWrapped applies the statement-path bookkeeping — query metrics,
// typed cancellation error, slow-query log — around one execution
// produced by run. stmt may be nil when sqlText is available for the
// slow-query log.
func (e *Engine) runWrapped(sqlText string, parseD time.Duration, stmt Statement, run func(collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error)) (*Result, error) {
	mQueryStarted.Inc()
	slow := e.slowQuery()
	var tr *metrics.Trace
	if slow != nil {
		tr = metrics.NewTrace()
		if parseD > 0 {
			tr.AddPhase("parse", parseD)
		}
	}
	start := time.Now()
	res, plan, qid, err := run(slow != nil, tr)
	elapsed := parseD + time.Since(start)
	mQueryLatency.Observe(int64(elapsed))
	switch {
	case err == nil:
		mQueryFinished.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		mQueryCancelled.Inc()
		err = fmt.Errorf("%w: %w", ErrQueryCancelled, err)
	default:
		mQueryFailed.Inc()
	}
	if slow != nil && elapsed >= slow.threshold {
		slow.logSlowQuery(sqlText, stmt, qid, elapsed, tr, plan)
	}
	return res, err
}

// dispatchStmt routes one statement to its executor. For SELECTs it
// also returns the executed plan and query id so the slow-query log
// can render the operator tree.
func (e *Engine) dispatchStmt(ctx context.Context, stmt Statement, params []jsondom.Value, collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
	switch t := stmt.(type) {
	case *SelectStmt:
		return e.runSelect(ctx, t, params, collect, tr)
	case *ExplainStmt:
		res, err := e.runExplain(ctx, t, params)
		return res, nil, 0, err
	case *ShowMetricsStmt:
		res, err := e.runShowMetrics()
		return res, nil, 0, err
	case *ShowStatsStmt:
		res, err := e.runShowStats()
		return res, nil, 0, err
	case *CreateTableStmt:
		return &Result{}, nil, 0, e.ddl(e.createTable(t))
	case *CreateViewStmt:
		return &Result{}, nil, 0, e.ddl(e.createView(t))
	case *InsertStmt:
		res, err := e.runInsert(ctx, t, params)
		return res, nil, 0, err
	case *CreateSearchIndexStmt:
		return &Result{}, nil, 0, e.ddl(e.createSearchIndex(t))
	case *AlterTableAddVCStmt:
		return &Result{}, nil, 0, e.ddl(e.addVirtualColumn(t))
	case *DropStmt:
		return &Result{}, nil, 0, e.ddl(e.drop(t))
	case *DeleteStmt:
		res, err := e.runDelete(ctx, t, params)
		return res, nil, 0, err
	case *UpdateStmt:
		res, err := e.runUpdate(ctx, t, params)
		return res, nil, 0, err
	}
	return nil, nil, 0, fmt.Errorf("sql: unsupported statement %T", stmt)
}

// ddl passes a DDL executor's error through, invalidating cached
// plans on success: any succeeded DDL may change how statements plan.
func (e *Engine) ddl(err error) error {
	if err == nil {
		e.invalidatePlans()
	}
	return err
}

// ---------------------------------------------------------------------------
// DDL / DML

func (e *Engine) createTable(t *CreateTableStmt) error {
	var cols []store.Column
	var pk string
	for _, cd := range t.Columns {
		c := store.Column{Name: cd.Name, MaxLen: cd.MaxLen, CheckJSON: cd.CheckJSON}
		switch cd.TypeName {
		case "number", "integer", "int", "float":
			c.Type = store.TypeNumber
		case "varchar2", "varchar", "clob", "char":
			c.Type = store.TypeVarchar
		case "raw", "blob":
			c.Type = store.TypeRaw
		case "boolean":
			c.Type = store.TypeBool
		default:
			return fmt.Errorf("sql: unsupported column type %q", cd.TypeName)
		}
		if cd.PrimaryKey {
			pk = cd.Name
		}
		cols = append(cols, c)
	}
	tab, err := store.NewTable(strings.ToLower(t.Name), cols...)
	if err != nil {
		return err
	}
	if pk != "" {
		if err := tab.SetPrimaryKey(pk); err != nil {
			return err
		}
	}
	return e.cat.Create(tab)
}

func (e *Engine) createView(t *CreateViewStmt) error {
	name := strings.ToLower(t.Name)
	_, exists := e.view(name)
	if exists && !t.Replace {
		return fmt.Errorf("sql: view %q already exists", t.Name)
	}
	// validate by planning once and capture output column names
	env := &planEnv{aggCols: map[*FuncCall]int{}, winCols: map[*WindowFunc]int{}}
	_, names, err := e.planSelect(t.Query, env)
	if err != nil {
		return fmt.Errorf("sql: invalid view %q: %w", t.Name, err)
	}
	e.setView(name, &viewDef{stmt: t.Query, names: names})
	return nil
}

func (e *Engine) runInsert(ctx context.Context, t *InsertStmt, params []jsondom.Value) (*Result, error) {
	tab, ok := e.cat.Table(strings.ToLower(t.Table))
	if !ok {
		return nil, fmt.Errorf("sql: no such table %q", t.Table)
	}
	cols := tab.Columns()
	stored := 0
	for _, c := range cols {
		if !c.Virtual {
			stored++
		}
	}
	// map insert columns to stored positions
	target := make([]int, 0, stored)
	if len(t.Columns) == 0 {
		for i := 0; i < stored; i++ {
			target = append(target, i)
		}
	} else {
		for _, name := range t.Columns {
			pos, ok := tab.ColumnPos(name)
			if !ok || cols[pos].Virtual {
				return nil, fmt.Errorf("sql: no such stored column %q in %q", name, t.Table)
			}
			target = append(target, pos)
		}
	}
	env := &planEnv{params: params, aggCols: map[*FuncCall]int{}, winCols: map[*WindowFunc]int{}}
	n := 0
	ticks := 0
	for _, exprRow := range t.Rows {
		ticks++
		if ticks%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if len(exprRow) != len(target) {
			return nil, fmt.Errorf("sql: INSERT value count %d != column count %d", len(exprRow), len(target))
		}
		row := make(store.Row, stored)
		for i := range row {
			row[i] = null
		}
		for i, ex := range exprRow {
			v, err := evalExpr(env.ctx(nil, nil), ex)
			if err != nil {
				return nil, err
			}
			row[target[i]] = v
		}
		if _, err := tab.Insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Columns: []string{"rows_inserted"},
		Rows: [][]jsondom.Value{{jsondom.NumberFromInt(int64(n))}}}, nil
}

func (e *Engine) createSearchIndex(t *CreateSearchIndexStmt) error {
	tab, ok := e.cat.Table(strings.ToLower(t.Table))
	if !ok {
		return fmt.Errorf("sql: no such table %q", t.Table)
	}
	if _, ok := tab.Column(t.Column); !ok {
		return fmt.Errorf("sql: no such column %q in %q", t.Column, t.Table)
	}
	name := strings.ToLower(t.Name)
	if e.indexDefined(name) {
		return fmt.Errorf("sql: index %q already exists", t.Name)
	}
	var ix *searchindex.Index
	if t.DataGuideOnly {
		ix = searchindex.NewDataGuideOnly(name, tab.Name, t.Column)
	} else {
		ix = searchindex.New(name, tab.Name, t.Column, t.DataGuide)
	}
	// index pre-existing rows, then observe future inserts
	var indexErr error
	tab.Scan(func(rid int, row store.Row) bool {
		if err := ix.RowInserted(tab, rid, row); err != nil {
			indexErr = err
			return false
		}
		return true
	})
	if indexErr != nil {
		return indexErr
	}
	tab.AddObserver(ix)
	e.registerIndex(name, tab.Name, ix)
	return nil
}

func (e *Engine) addVirtualColumn(t *AlterTableAddVCStmt) error {
	tab, ok := e.cat.Table(strings.ToLower(t.Table))
	if !ok {
		return fmt.Errorf("sql: no such table %q", t.Table)
	}
	// the VC expression sees the stored columns of the table
	var sch Schema
	var cols []store.Column
	for _, c := range tab.Columns() {
		if !c.Virtual {
			sch = append(sch, ColMeta{Name: c.Name})
			cols = append(cols, c)
		}
	}
	expr := t.Expr
	env := &planEnv{aggCols: map[*FuncCall]int{}, winCols: map[*WindowFunc]int{}}
	colType := store.TypeVarchar
	if jv, ok := expr.(*JSONValueExpr); ok {
		switch jv.Returning {
		case 1: // sqljson.RetNumber
			colType = store.TypeNumber
		}
	}
	key := exprKey(expr)
	col := store.Column{
		Name:     t.Column,
		Type:     colType,
		Virtual:  true,
		Hidden:   t.Hidden,
		ExprText: key,
		Expr: func(row store.Row) (jsondom.Value, error) {
			return evalExpr(env.ctx(sch, row), expr)
		},
	}
	if err := tab.AddVirtualColumn(col); err != nil {
		return err
	}
	if key != "" {
		e.addVCRewrite(tab.Name, key, t.Column)
	}
	return nil
}

func (e *Engine) drop(t *DropStmt) error {
	name := strings.ToLower(t.Name)
	switch t.Kind {
	case "table":
		if !e.cat.Drop(name) {
			return fmt.Errorf("sql: no such table %q", t.Name)
		}
	case "view":
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.views[name]; !ok {
			return fmt.Errorf("sql: no such view %q", t.Name)
		}
		delete(e.views, name)
	case "index":
		e.mu.Lock()
		defer e.mu.Unlock()
		ix, ok := e.indexes[name]
		if !ok {
			return fmt.Errorf("sql: no such index %q", t.Name)
		}
		delete(e.indexes, name)
		list := e.tableIndexes[ix.TableName]
		for i, x := range list {
			if x == ix {
				e.tableIndexes[ix.TableName] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	return nil
}

// exprKey canonicalizes expressions for virtual-column matching
// (§5.2.1): two textually equivalent JSON_VALUE calls share a key.
func exprKey(e Expr) string {
	switch t := e.(type) {
	case *JSONValueExpr:
		arg, ok := t.Arg.(*ColRef)
		if !ok {
			return ""
		}
		return fmt.Sprintf("json_value(%s,%s,%d)", arg.Name, t.PathText, t.Returning)
	}
	return ""
}

// ---------------------------------------------------------------------------
// SELECT planning

// runSelect plans and drains one SELECT. collect forces per-operator
// stats collection (slow-query logging); the returned rowSource is the
// closed plan tree, kept so the caller can render it, and the uint64
// is the execution's query id.
func (e *Engine) runSelect(ctx context.Context, stmt *SelectStmt, params []jsondom.Value, collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
	planDone := tr.StartPhase("plan")
	env := &planEnv{params: params, aggCols: map[*FuncCall]int{}, winCols: map[*WindowFunc]int{}}
	src, names, err := e.planSelectPushed(stmt, env, nil)
	planDone()
	if err != nil {
		return nil, nil, 0, err
	}
	return e.drainSource(ctx, src, names, collect, tr)
}

// runPlan executes one cached/prepared plan: a bind phase
// instantiates a fresh operator tree against params, then the tree is
// drained like any other SELECT.
func (e *Engine) runPlan(ctx context.Context, plan *preparedPlan, params []jsondom.Value, collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
	bindDone := tr.StartPhase("bind")
	src := plan.instantiate(params)
	bindDone()
	return e.drainSource(ctx, src, plan.names, collect, tr)
}

// drainSource opens src, materializes every row, and closes it,
// timing the execute phase and recording the row count on tr. It is
// the engine's single batch-to-row adapter: Query, prepared statements
// and EXPLAIN ANALYZE all execute a plan through this loop. The rows
// inside a batch are arena-carved and safe to retain in the Result;
// only the batch headers cycle through the pool.
func (e *Engine) drainSource(ctx context.Context, src rowSource, names []string, collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
	ec := newExecCtx(ctx, e.Planner.MemoryBudget)
	ec.collect = collect
	execDone := tr.StartPhase("execute")
	if err := src.Open(ec); err != nil {
		// a mid-tree Open failure can leave earlier-opened subtrees
		// running (parallel scan workers already spawned); closing the
		// whole tree joins them instead of leaking them
		src.Close() //nolint:errcheck // surfacing the Open error
		return nil, src, ec.queryID, err
	}
	defer src.Close() //nolint:errcheck
	res := &Result{Columns: names}
	ticks := 0
	for {
		// defense in depth: the source's own scan/build loops tick, but
		// the drain must stay responsive even over non-ticking sources
		if err := ec.tickErr(&ticks); err != nil {
			return nil, src, ec.queryID, err
		}
		batch, err := src.NextBatch(ec, 0)
		if err != nil {
			return nil, src, ec.queryID, err
		}
		if batch == nil {
			execDone()
			tr.Notef("rows=%d", len(res.Rows))
			return res, src, ec.queryID, nil
		}
		for i := 0; i < batch.Len(); i++ {
			res.Rows = append(res.Rows, batch.Row(i))
		}
	}
}

func (e *Engine) planSelect(stmt *SelectStmt, env *planEnv) (rowSource, []string, error) {
	return e.planSelectPushed(stmt, env, nil)
}

// planSelectPushed plans a select with additional predicate conjuncts
// pushed down from an enclosing query (view predicate pushdown, §6.3).
// Pushed conjuncts reference this statement's *output* column names;
// they are substituted to inner expressions and folded into WHERE.
func (e *Engine) planSelectPushed(stmt *SelectStmt, env *planEnv, pushed []Expr) (rowSource, []string, error) {
	// 1. virtual-column rewrite (JSON_VALUE -> VC column; §5.2.1) must
	// precede the referenced-column analysis so rewritten VC references
	// are computed by the scan
	e.applyVCRewrites(stmt)

	// 2. fold pushed conjuncts (already substituted to this statement's
	// inner expressions) into a local WHERE, never mutating the shared
	// view AST
	where := stmt.Where
	for _, p := range pushed {
		where = andExpr(where, p)
	}

	// 2b. cost-based conjunct ordering (docs/OPTIMIZER.md): evaluate
	// the most selective AND-conjunct first so the executor's
	// short-circuit (and the vectorized scan's kernel/residual split)
	// discards rows as early as possible. AND commutes over the row
	// set, so the result rows and their order are unchanged.
	cc := e.newCostCtx(stmt)
	costOn := !e.Planner.DisableCostBasedPlanner
	if costOn {
		mCostPlans.Inc()
		if where != nil {
			if ordered, changed := cc.orderConjuncts(splitAnd(where)); changed {
				where = joinAnd(ordered)
				mCostReorders.Inc()
			}
		}
	}
	whereOrig := where

	// 3. referenced-column analysis for virtual-column pruning
	referenced, hasStar := collectReferenced(stmt)
	for _, c := range exprColRefs(where) {
		referenced[c.Name] = true
	}

	// 4. FROM (with columnar predicate pushdown for single-table scans
	// over an attached vector store, §5.2.1, view predicate pushdown
	// and JSON_EXISTS prefilters on JSON_TABLE, §6.3)
	var src rowSource
	if scan, residual, ok := e.tryIndexScan(stmt, where, env, referenced, hasStar); ok && !e.Planner.DisableIndexScan {
		src = scan
		where = residual
		// cost-based access-path arbitration: when the postings are
		// estimated to cover a large table fraction and a vectorized
		// scan is available, the sparse row-id list loses its point —
		// prefer the columnar kernels. Both paths return the same rows
		// in ascending row-id order.
		if costOn {
			if sel, known := cc.indexScanSelectivity(whereOrig, residual); known && sel > costIndexMaxSel {
				if vscan, vres, vok := e.tryVectorizedScan(stmt, whereOrig, env, referenced, hasStar); vok && !e.Planner.DisableVectorFilter {
					src = vscan
					where = vres
					mCostIndexSkips.Inc()
				}
			}
		}
	} else if scan, residual, ok := e.tryVectorizedScan(stmt, where, env, referenced, hasStar); ok && !e.Planner.DisableVectorFilter {
		src = scan
		where = residual
	} else if inner, residual, ok, err := e.tryViewPushdown(stmt, where, env); ok || err != nil {
		if err != nil {
			return nil, nil, err
		}
		src = inner
		where = residual
	} else {
		var jtOp *jsonTableOp
		for _, f := range stmt.From {
			s, lateral, err := e.buildFrom(f, src, env, referenced, hasStar, cc)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case lateral:
				src = s // JSON_TABLE already composed with the left side
				if op, ok := s.(*jsonTableOp); ok {
					jtOp = op
				}
			case src == nil:
				src = s
			default:
				src = newCrossJoin(src, s)
				jtOp = nil
			}
		}
		// JSON_EXISTS prefilter: WHERE conjuncts over the trailing
		// JSON_TABLE's columns become path predicates evaluated on the
		// document before expansion (§6.3); the residual WHERE still
		// applies, so this is purely an implied pre-filter.
		if jtOp != nil && where != nil && !e.Planner.DisablePrefilter {
			attachPrefilters(jtOp, where)
		}
	}
	if src == nil {
		return nil, nil, fmt.Errorf("sql: empty FROM clause")
	}
	// stamp the scan's est-rows with base rows x consumed-conjunct
	// selectivity while the pushed-down conjuncts are still in hand
	if scan, ok := src.(*tableScan); ok {
		cc.setScanEstimate(scan, whereOrig, where)
	}

	// 5. WHERE (residual after pushdown). A bare scan over a large
	// enough table upgrades to a parallel partitioned scan that absorbs
	// the residual filter into its workers.
	if par := e.parallelizeScan(src, where, env); par != nil {
		src = par
	} else if where != nil {
		src = &filterOp{in: src, pred: where, env: env}
	}

	// 5. aggregation
	var aggs []*FuncCall
	for _, it := range stmt.Items {
		collectAggs(it.Expr, &aggs)
	}
	collectAggs(stmt.Having, &aggs)
	for _, o := range stmt.OrderBy {
		collectAggs(o.Expr, &aggs)
	}
	if len(aggs) > 0 || len(stmt.GroupBy) > 0 {
		src = newGroupAggOp(src, stmt.GroupBy, aggs, len(stmt.GroupBy) == 0, env)
		if stmt.Having != nil {
			src = &filterOp{in: src, pred: stmt.Having, env: env}
		}
	} else if stmt.Having != nil {
		return nil, nil, fmt.Errorf("sql: HAVING requires aggregation")
	}

	// 6. window functions
	var wins []*WindowFunc
	for _, it := range stmt.Items {
		collectWins(it.Expr, &wins)
	}
	for _, o := range stmt.OrderBy {
		collectWins(o.Expr, &wins)
	}
	if len(wins) > 0 {
		src = newWindowOp(src, wins, env)
	}

	// 7. compile-time schema check (§1: "compile time schema check with
	// the rich analytic power of SQL"): every column reference must
	// resolve against the plan schema
	if err := validateColumns(stmt, src.Schema()); err != nil {
		return nil, nil, err
	}

	// 8. expand stars into concrete projection expressions
	exprs, names, err := expandItems(stmt.Items, src.Schema())
	if err != nil {
		return nil, nil, err
	}

	// 8. ORDER BY below the projection; positional items resolve to the
	// corresponding projection expression
	if len(stmt.OrderBy) > 0 {
		items := make([]OrderItem, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			items[i] = o
			if o.Position > 0 {
				if o.Position > len(exprs) {
					return nil, nil, fmt.Errorf("sql: ORDER BY position %d out of range", o.Position)
				}
				items[i].Expr = exprs[o.Position-1]
				items[i].Position = 0
			}
		}
		src = &sortOp{in: src, items: items, env: env}
	}

	// 9. projection
	sch := make(Schema, len(names))
	for i, n := range names {
		sch[i] = ColMeta{Name: n}
	}
	src = &projectOp{in: src, exprs: exprs, sch: sch, env: env}

	// 10. LIMIT
	if stmt.Limit >= 0 {
		src = &limitOp{in: src, limit: stmt.Limit}
	}

	// 11. est-rows annotation for EXPLAIN: always computed (estimates
	// are observability; only plan decisions are gated by
	// DisableCostBasedPlanner)
	cc.annotateEstimates(src)

	return src, names, nil
}

// tryVectorizedScan handles the single-table case with an attached
// vector-filter source: WHERE conjuncts over vector-backed columns
// compile to chunk kernels applied before row materialization —
// constant predicates at plan time, bind-dependent ones at the scan's
// Open; the conjuncts the compiler declines are returned as the
// residual filter.
func (e *Engine) tryVectorizedScan(stmt *SelectStmt, where Expr, env *planEnv, referenced map[string]bool, hasStar bool) (rowSource, Expr, bool) {
	if len(stmt.From) != 1 || where == nil {
		return nil, nil, false
	}
	tr, ok := stmt.From[0].(*TableRef)
	if !ok || tr.SamplePct > 0 {
		return nil, nil, false
	}
	name := strings.ToLower(tr.Name)
	tab, ok := e.cat.Table(name)
	if !ok {
		return nil, nil, false
	}
	sub := e.imcSource(name)
	bfs, ok := sub.(BatchFilterSource)
	if !ok {
		return nil, nil, false
	}
	var kernels []imc.BatchKernel
	var kernelLabels []string
	var specs []vecFilterSpec
	var residual Expr
	for _, c := range splitAnd(where) {
		if spec, ok := recognizeVecFilter(c); ok {
			if specHasParam(spec) {
				// bind-dependent: compiled by the scan's Open with the
				// execution's parameter values
				specs = append(specs, spec)
				continue
			}
			if vals, ok := spec.operandValues(nil); ok {
				if k, ok := bfs.CompileBatchFilter(spec.col, spec.op, vals); ok {
					kernels = append(kernels, k)
					kernelLabels = append(kernelLabels, spec.col+" "+spec.op)
					continue
				}
			}
		}
		residual = andExpr(residual, c)
	}
	if len(kernels)+len(specs) == 0 {
		return nil, nil, false
	}
	alias := tr.Alias
	if alias == "" {
		alias = name
	}
	needed := make(map[string]bool)
	for _, c := range tab.Columns() {
		needed[c.Name] = referenced[c.Name] || (hasStar && !c.Hidden)
	}
	scan := newTableScan(tab, alias, needed, sub, 0, env)
	scan.vecSpecs = specs
	scan.batchKernels = kernels
	scan.batchLabels = kernelLabels
	scan.bsrc = bfs
	return scan, residual, true
}

// recognizeVecFilter matches `col op const` / `const op col` /
// `col between const and const` shapes (const = literal or bind
// parameter) and returns them as a spec for vector compilation.
func recognizeVecFilter(c Expr) (vecFilterSpec, bool) {
	isConst := func(x Expr) bool {
		switch x.(type) {
		case *Literal, *Param:
			return true
		}
		return false
	}
	switch t := c.(type) {
	case *BinOp:
		flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
		if _, cmp := flip[t.Op]; !cmp {
			return vecFilterSpec{}, false
		}
		if col, ok := t.L.(*ColRef); ok && isConst(t.R) {
			return vecFilterSpec{col: col.Name, op: t.Op, operands: []Expr{t.R}, orig: c}, true
		}
		if col, ok := t.R.(*ColRef); ok && isConst(t.L) {
			return vecFilterSpec{col: col.Name, op: flip[t.Op], operands: []Expr{t.L}, orig: c}, true
		}
	case *BetweenExpr:
		if t.Not {
			return vecFilterSpec{}, false
		}
		col, ok := t.X.(*ColRef)
		if ok && isConst(t.Lo) && isConst(t.Hi) {
			return vecFilterSpec{col: col.Name, op: "between", operands: []Expr{t.Lo, t.Hi}, orig: c}, true
		}
	}
	return vecFilterSpec{}, false
}

func specHasParam(spec vecFilterSpec) bool {
	for _, x := range spec.operands {
		if _, ok := x.(*Param); ok {
			return true
		}
	}
	return false
}

// tryIndexScan accelerates `FROM table WHERE json_exists(col, '$...')`
// using the JSON search index: the path postings yield exactly the
// documents containing the field-name path (§3.2.1: "what documents
// within the collection have particular path structures"), so the scan
// touches only those rows and the conjunct is satisfied by
// construction. Only plain field-chain paths qualify — they match the
// index's path vocabulary exactly.
func (e *Engine) tryIndexScan(stmt *SelectStmt, where Expr, env *planEnv, referenced map[string]bool, hasStar bool) (rowSource, Expr, bool) {
	if len(stmt.From) != 1 || where == nil {
		return nil, nil, false
	}
	tr, ok := stmt.From[0].(*TableRef)
	if !ok || tr.SamplePct > 0 {
		return nil, nil, false
	}
	name := strings.ToLower(tr.Name)
	tab, ok := e.cat.Table(name)
	if !ok {
		return nil, nil, false
	}
	indexes := e.indexesFor(name)
	if len(indexes) == 0 {
		return nil, nil, false
	}
	var getters []func() []int
	var residual Expr
	for _, c := range splitAnd(where) {
		switch t := c.(type) {
		case *JSONExistsExpr:
			if g, ok := e.indexPathPostings(indexes, t); ok {
				getters = append(getters, g)
				continue // the postings satisfy this conjunct exactly
			}
		case *JSONTextContainsExpr:
			// keyword postings give document-level candidates; the
			// conjunct stays as a residual filter for path scoping
			if g, ok := e.indexKeywordPostings(indexes, t); ok {
				getters = append(getters, g)
			}
		}
		residual = andExpr(residual, c)
	}
	if len(getters) == 0 {
		return nil, nil, false
	}
	alias := tr.Alias
	if alias == "" {
		alias = name
	}
	needed := make(map[string]bool)
	for _, col := range tab.Columns() {
		needed[col.Name] = referenced[col.Name] || (hasStar && !col.Hidden)
	}
	scan := newTableScan(tab, alias, needed, e.imcSource(name), 0, env)
	// postings are read at Open, per execution, so a cached plan picks
	// up rows inserted after planning
	scan.rowIDsFn = func() []int {
		var rowIDs []int
		for i, g := range getters {
			rowIDs = restrictIDs(rowIDs, g(), i > 0)
		}
		if rowIDs == nil {
			rowIDs = []int{}
		}
		return rowIDs
	}
	return scan, residual, true
}

// restrictIDs intersects candidate row id lists (both sorted by
// insertion order as postings are).
func restrictIDs(cur, add []int, curValid bool) []int {
	if !curValid {
		return add
	}
	set := make(map[int]bool, len(add))
	for _, id := range add {
		set[id] = true
	}
	var out []int
	for _, id := range cur {
		if set[id] {
			out = append(out, id)
		}
	}
	return out
}

// indexKeywordPostings resolves a JSON_TEXTCONTAINS conjunct to a
// getter over the documents whose string leaves contain the keyword;
// the getter reads live postings when the scan opens.
func (e *Engine) indexKeywordPostings(indexes []*searchindex.Index, tc *JSONTextContainsExpr) (func() []int, bool) {
	arg, ok := tc.Arg.(*ColRef)
	if !ok {
		return nil, false
	}
	for _, ix := range indexes {
		if ix.Column != arg.Name || !ix.PostingsEnabled() {
			continue
		}
		ix := ix
		return func() []int { return ix.DocsWithKeyword(tc.Keyword) }, true
	}
	return nil, false
}

// indexPathPostings resolves a JSON_EXISTS conjunct against the search
// indexes of the table: the argument must be a bare column reference
// carrying a postings-enabled index, and the path a pure field chain.
// The returned getter reads live postings when the scan opens.
func (e *Engine) indexPathPostings(indexes []*searchindex.Index, je *JSONExistsExpr) (func() []int, bool) {
	arg, ok := je.Arg.(*ColRef)
	if !ok {
		return nil, false
	}
	names, whole := je.Compiled.Path.FieldChain()
	if !whole || len(names) == 0 {
		return nil, false
	}
	for _, ix := range indexes {
		if ix.Column != arg.Name || !ix.PostingsEnabled() {
			continue
		}
		path := "$"
		for _, n := range names {
			path += "." + n
		}
		ix := ix
		return func() []int { return ix.DocsWithPath(path) }, true
	}
	return nil, false
}

// substituteOutputCols rewrites a pushed conjunct (expressed over a
// statement's output column names) into the statement's inner
// expressions, returning a new tree (the original is never mutated).
func substituteOutputCols(p Expr, stmt *SelectStmt) (Expr, error) {
	lookup := func(name string) (Expr, error) {
		for _, it := range stmt.Items {
			if it.Star {
				continue
			}
			if itemName(it, 0) == name {
				return it.Expr, nil
			}
		}
		for _, it := range stmt.Items {
			if !it.Star {
				continue
			}
			for _, f := range stmt.From {
				switch t := f.(type) {
				case *TableRef:
					alias := t.Alias
					if alias == "" {
						alias = strings.ToLower(t.Name)
					}
					if it.StarTable != "" && it.StarTable != alias {
						continue
					}
					return &ColRef{Table: alias, Name: name}, nil
				case *JSONTableRef:
					if it.StarTable != "" && it.StarTable != t.Alias {
						continue
					}
					for _, cn := range t.ColNames {
						if cn == name {
							return &ColRef{Table: t.Alias, Name: name}, nil
						}
					}
				}
			}
		}
		return nil, fmt.Errorf("sql: pushed predicate references unknown column %q", name)
	}
	var clone func(Expr) (Expr, error)
	clone = func(x Expr) (Expr, error) {
		switch t := x.(type) {
		case nil:
			return nil, nil
		case *ColRef:
			return lookup(t.Name)
		case *Literal, *Param:
			return x, nil
		case *BinOp:
			l, err := clone(t.L)
			if err != nil {
				return nil, err
			}
			r, err := clone(t.R)
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: t.Op, L: l, R: r}, nil
		case *UnOp:
			xx, err := clone(t.X)
			if err != nil {
				return nil, err
			}
			return &UnOp{Op: t.Op, X: xx}, nil
		case *IsNullExpr:
			xx, err := clone(t.X)
			if err != nil {
				return nil, err
			}
			return &IsNullExpr{X: xx, Not: t.Not}, nil
		case *InExpr:
			xx, err := clone(t.X)
			if err != nil {
				return nil, err
			}
			list := make([]Expr, len(t.List))
			for i, a := range t.List {
				if list[i], err = clone(a); err != nil {
					return nil, err
				}
			}
			return &InExpr{X: xx, List: list, Not: t.Not}, nil
		case *LikeExpr:
			xx, err := clone(t.X)
			if err != nil {
				return nil, err
			}
			pat, err := clone(t.Pattern)
			if err != nil {
				return nil, err
			}
			return &LikeExpr{X: xx, Pattern: pat, Not: t.Not}, nil
		case *BetweenExpr:
			xx, err := clone(t.X)
			if err != nil {
				return nil, err
			}
			lo, err := clone(t.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := clone(t.Hi)
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{X: xx, Lo: lo, Hi: hi, Not: t.Not}, nil
		case *FuncCall:
			args := make([]Expr, len(t.Args))
			var err error
			for i, a := range t.Args {
				if args[i], err = clone(a); err != nil {
					return nil, err
				}
			}
			return &FuncCall{Name: t.Name, Args: args, Star: t.Star, Distinct: t.Distinct}, nil
		}
		return nil, fmt.Errorf("sql: cannot push predicate containing %T", x)
	}
	return clone(p)
}

// tryViewPushdown handles `FROM <view> WHERE ...`: conjuncts that only
// reference the view's output columns are pushed into the view's plan
// (where the JSON_EXISTS prefilter and vector pushdowns can act on
// them); the rest remain as the residual filter.
func (e *Engine) tryViewPushdown(stmt *SelectStmt, where Expr, env *planEnv) (rowSource, Expr, bool, error) {
	if len(stmt.From) != 1 || where == nil {
		return nil, nil, false, nil
	}
	tr, ok := stmt.From[0].(*TableRef)
	if !ok || tr.SamplePct > 0 {
		return nil, nil, false, nil
	}
	name := strings.ToLower(tr.Name)
	if _, isTable := e.cat.Table(name); isTable {
		return nil, nil, false, nil
	}
	vd, isView := e.view(name)
	if !isView {
		return nil, nil, false, nil
	}
	// filtering must not cross aggregation/limit boundaries
	if len(vd.stmt.GroupBy) > 0 || vd.stmt.Having != nil || vd.stmt.Limit >= 0 {
		return nil, nil, false, nil
	}
	for _, it := range vd.stmt.Items {
		if hasAggregate(it.Expr) || hasWindow(it.Expr) {
			return nil, nil, false, nil
		}
	}
	alias := tr.Alias
	if alias == "" {
		alias = name
	}
	viewCols := make(map[string]bool, len(vd.names))
	for _, n := range vd.names {
		viewCols[n] = true
	}
	var push []Expr
	var residual Expr
	for _, c := range splitAnd(where) {
		ok := true
		for _, cr := range exprColRefs(c) {
			if cr.Table != "" && cr.Table != alias || !viewCols[cr.Name] {
				ok = false
				break
			}
		}
		// only simple predicate shapes are pushed; exotic expressions
		// stay above the view
		if ok && pushableShape(c) {
			if sub, err := substituteOutputCols(stripQualifier(c, alias), vd.stmt); err == nil {
				push = append(push, sub)
				continue
			}
		}
		residual = andExpr(residual, c)
	}
	if len(push) == 0 {
		return nil, nil, false, nil
	}
	inner, _, err := e.planSelectPushed(vd.stmt, env, push)
	if err != nil {
		return nil, nil, false, err
	}
	return newAliasWrap(inner, alias, vd.names), residual, true, nil
}

// pushableShape limits pushdown to deterministic scalar predicates.
func pushableShape(c Expr) bool {
	switch t := c.(type) {
	case *BinOp:
		switch t.Op {
		case "=", "!=", "<", "<=", ">", ">=", "and", "or":
			return pushableShape(t.L) && pushableShape(t.R)
		}
		return false
	case *ColRef, *Literal, *Param:
		return true
	case *InExpr:
		if !pushableShape(t.X) {
			return false
		}
		for _, a := range t.List {
			if !pushableShape(a) {
				return false
			}
		}
		return true
	case *BetweenExpr:
		return pushableShape(t.X) && pushableShape(t.Lo) && pushableShape(t.Hi)
	case *IsNullExpr:
		return pushableShape(t.X)
	case *LikeExpr:
		return pushableShape(t.X) && pushableShape(t.Pattern)
	}
	return false
}

// stripQualifier rebuilds the conjunct with unqualified column refs so
// it can be re-resolved inside the view.
func stripQualifier(c Expr, alias string) Expr {
	// substituteOutputCols performs its own cloning; here we only need
	// qualifiers dropped, which it tolerates, so a shallow pass
	// suffices: clone via substituteOutputCols-compatible copy
	var clone func(Expr) Expr
	clone = func(x Expr) Expr {
		switch t := x.(type) {
		case nil:
			return nil
		case *ColRef:
			return &ColRef{Name: t.Name}
		case *BinOp:
			return &BinOp{Op: t.Op, L: clone(t.L), R: clone(t.R)}
		case *UnOp:
			return &UnOp{Op: t.Op, X: clone(t.X)}
		case *IsNullExpr:
			return &IsNullExpr{X: clone(t.X), Not: t.Not}
		case *InExpr:
			list := make([]Expr, len(t.List))
			for i, a := range t.List {
				list[i] = clone(a)
			}
			return &InExpr{X: clone(t.X), List: list, Not: t.Not}
		case *LikeExpr:
			return &LikeExpr{X: clone(t.X), Pattern: clone(t.Pattern), Not: t.Not}
		case *BetweenExpr:
			return &BetweenExpr{X: clone(t.X), Lo: clone(t.Lo), Hi: clone(t.Hi), Not: t.Not}
		case *FuncCall:
			args := make([]Expr, len(t.Args))
			for i, a := range t.Args {
				args[i] = clone(a)
			}
			return &FuncCall{Name: t.Name, Args: args, Star: t.Star, Distinct: t.Distinct}
		}
		return x
	}
	return clone(c)
}

// buildFrom builds a row source for one FROM item. lateral=true means
// the returned source already incorporates the accumulated left side.
func (e *Engine) buildFrom(f FromItem, left rowSource, env *planEnv, referenced map[string]bool, hasStar bool, cc *costCtx) (rowSource, bool, error) {
	switch t := f.(type) {
	case *TableRef:
		alias := t.Alias
		if alias == "" {
			alias = strings.ToLower(t.Name)
		}
		name := strings.ToLower(t.Name)
		if tab, ok := e.cat.Table(name); ok {
			needed := make(map[string]bool)
			for _, c := range tab.Columns() {
				needed[c.Name] = referenced[c.Name] || (hasStar && !c.Hidden)
			}
			return newTableScan(tab, alias, needed, e.imcSource(name), t.SamplePct, env), false, nil
		}
		vd, ok := e.view(name)
		if !ok {
			return nil, false, fmt.Errorf("sql: no such table or view %q", t.Name)
		}
		if t.SamplePct > 0 {
			return nil, false, fmt.Errorf("sql: SAMPLE is not supported on views")
		}
		inner, _, err := e.planSelect(vd.stmt, env)
		if err != nil {
			return nil, false, err
		}
		return newAliasWrap(inner, alias, vd.names), false, nil
	case *SubqueryRef:
		inner, names, err := e.planSelect(t.Query, env)
		if err != nil {
			return nil, false, err
		}
		return newAliasWrap(inner, t.Alias, names), false, nil
	case *JSONTableRef:
		return newJSONTableOp(left, t, env), true, nil
	case *JoinRef:
		l, lLateral, err := e.buildFrom(t.Left, left, env, referenced, hasStar, cc)
		if err != nil {
			return nil, false, err
		}
		r, _, err := e.buildFrom(t.Right, nil, env, referenced, hasStar, cc)
		if err != nil {
			return nil, false, err
		}
		join, err := e.planJoin(l, r, t, env, cc)
		return join, lLateral, err
	}
	return nil, false, fmt.Errorf("sql: unsupported FROM item %T", f)
}

// planJoin picks a hash join when the ON condition contains
// equi-conjuncts whose two sides are each computable from one input
// (arbitrary expressions, e.g. JSON_VALUE calls, not just bare
// columns); otherwise a cross join plus filter. With the cost-based
// planner on, the hash table is built on whichever input is estimated
// smaller (the build-side pick doubles as the order-preserving
// two-way join reordering — probe order, and therefore output order,
// never changes).
func (e *Engine) planJoin(l, r rowSource, t *JoinRef, env *planEnv, cc *costCtx) (rowSource, error) {
	conjuncts := splitAnd(t.On)
	var lk, rk []Expr
	var residual Expr
	for _, c := range conjuncts {
		if b, ok := c.(*BinOp); ok && b.Op == "=" {
			switch {
			case resolvesOn(l.Schema(), b.L) && resolvesOn(r.Schema(), b.R):
				lk = append(lk, b.L)
				rk = append(rk, b.R)
				continue
			case resolvesOn(l.Schema(), b.R) && resolvesOn(r.Schema(), b.L):
				lk = append(lk, b.R)
				rk = append(rk, b.L)
				continue
			}
		}
		residual = andExpr(residual, c)
	}
	if len(lk) > 0 {
		hj := newHashJoin(l, r, lk, rk, residual, t.LeftOuter, env)
		if cc != nil && !e.Planner.DisableCostBasedPlanner {
			ln, lok := cc.annotateEstimates(l)
			rn, rok := cc.annotateEstimates(r)
			if lok && rok && ln < rn {
				hj.buildLeft = true
				mCostBuildLeft.Inc()
			}
		}
		return hj, nil
	}
	if t.LeftOuter {
		return nil, fmt.Errorf("sql: LEFT JOIN requires an equi-join condition")
	}
	return &filterOp{in: newCrossJoin(l, r), pred: t.On, env: env}, nil
}

// resolvesOn reports whether every column reference in the expression
// resolves against the schema, and the expression references at least
// one column (a constant is not a useful join key side).
func resolvesOn(s Schema, e Expr) bool {
	cols := exprColRefs(e)
	if len(cols) == 0 {
		return false
	}
	for _, c := range cols {
		if _, err := s.Resolve(c.Table, c.Name); err != nil {
			return false
		}
	}
	return true
}

func exprColRefs(e Expr) []*ColRef {
	var out []*ColRef
	var walk func(Expr)
	walk = func(x Expr) {
		switch t := x.(type) {
		case nil:
		case *ColRef:
			out = append(out, t)
		case *BinOp:
			walk(t.L)
			walk(t.R)
		case *UnOp:
			walk(t.X)
		case *IsNullExpr:
			walk(t.X)
		case *InExpr:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *LikeExpr:
			walk(t.X)
			walk(t.Pattern)
		case *BetweenExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case *JSONValueExpr:
			walk(t.Arg)
		case *JSONExistsExpr:
			walk(t.Arg)
		case *JSONQueryExpr:
			walk(t.Arg)
		case *JSONTextContainsExpr:
			walk(t.Arg)
		case *OSONExpr:
			walk(t.Arg)
		}
	}
	walk(e)
	return out
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func andExpr(a, b Expr) Expr {
	if a == nil {
		return b
	}
	return &BinOp{Op: "and", L: a, R: b}
}

// expandItems expands * and alias.* select items and derives output
// column names.
func expandItems(items []SelectItem, sch Schema) ([]Expr, []string, error) {
	var exprs []Expr
	var names []string
	for _, it := range items {
		if it.Star {
			for _, c := range sch {
				if c.Hidden {
					continue
				}
				if it.StarTable != "" && c.Table != it.StarTable {
					continue
				}
				exprs = append(exprs, &ColRef{Table: c.Table, Name: c.Name})
				names = append(names, c.Name)
			}
			continue
		}
		exprs = append(exprs, it.Expr)
		names = append(names, itemName(it, len(names)))
	}
	if len(exprs) == 0 {
		return nil, nil, fmt.Errorf("sql: empty select list")
	}
	return exprs, names, nil
}

func itemName(it SelectItem, pos int) string {
	if it.Alias != "" {
		return strings.ToLower(it.Alias)
	}
	switch t := it.Expr.(type) {
	case *ColRef:
		return t.Name
	case *FuncCall:
		return t.Name
	case *JSONValueExpr:
		return "json_value"
	case *JSONQueryExpr:
		return "json_query"
	case *WindowFunc:
		return t.Name
	}
	return fmt.Sprintf("col_%d", pos+1)
}

// collectReferenced gathers every column name referenced anywhere in
// the statement (for lazy virtual-column evaluation) and whether any
// star projection occurs.
func collectReferenced(stmt *SelectStmt) (map[string]bool, bool) {
	names := make(map[string]bool)
	star := false
	var walkExpr func(Expr)
	walkExpr = func(e Expr) {
		switch t := e.(type) {
		case nil:
		case *ColRef:
			names[t.Name] = true
		case *BinOp:
			walkExpr(t.L)
			walkExpr(t.R)
		case *UnOp:
			walkExpr(t.X)
		case *IsNullExpr:
			walkExpr(t.X)
		case *InExpr:
			walkExpr(t.X)
			for _, x := range t.List {
				walkExpr(x)
			}
		case *LikeExpr:
			walkExpr(t.X)
			walkExpr(t.Pattern)
		case *BetweenExpr:
			walkExpr(t.X)
			walkExpr(t.Lo)
			walkExpr(t.Hi)
		case *FuncCall:
			for _, a := range t.Args {
				walkExpr(a)
			}
		case *WindowFunc:
			for _, a := range t.Args {
				walkExpr(a)
			}
			for _, o := range t.OrderBy {
				walkExpr(o.Expr)
			}
		case *JSONValueExpr:
			walkExpr(t.Arg)
		case *JSONExistsExpr:
			walkExpr(t.Arg)
		case *JSONQueryExpr:
			walkExpr(t.Arg)
		case *JSONTextContainsExpr:
			walkExpr(t.Arg)
		case *OSONExpr:
			walkExpr(t.Arg)
		}
	}
	var walkSelect func(s *SelectStmt)
	walkSelect = func(s *SelectStmt) {
		for _, it := range s.Items {
			if it.Star {
				star = true
			}
			walkExpr(it.Expr)
		}
		walkExpr(s.Where)
		walkExpr(s.Having)
		for _, g := range s.GroupBy {
			walkExpr(g)
		}
		for _, o := range s.OrderBy {
			walkExpr(o.Expr)
		}
		for _, f := range s.From {
			var walkFrom func(FromItem)
			walkFrom = func(fi FromItem) {
				switch t := fi.(type) {
				case *SubqueryRef:
					walkSelect(t.Query)
				case *JSONTableRef:
					walkExpr(t.Arg)
				case *JoinRef:
					walkFrom(t.Left)
					walkFrom(t.Right)
					walkExpr(t.On)
				}
			}
			walkFrom(f)
		}
	}
	walkSelect(stmt)
	return names, star
}

// applyVCRewrites replaces JSON_VALUE expressions with references to
// matching virtual columns for single-table queries (§5.2.1): when the
// VC is populated in the in-memory columnar store, the predicate then
// reads the column vector instead of evaluating the path.
func (e *Engine) applyVCRewrites(stmt *SelectStmt) {
	if e.Planner.DisableVCRewrite {
		return
	}
	// collect the tables in FROM (including join trees) by alias
	byAlias := make(map[string]map[string]string) // alias -> exprKey -> vc
	single := ""
	var collect func(FromItem)
	collect = func(f FromItem) {
		switch t := f.(type) {
		case *TableRef:
			name := strings.ToLower(t.Name)
			rewrites := e.vcRewritesFor(name)
			if len(rewrites) == 0 {
				return
			}
			alias := t.Alias
			if alias == "" {
				alias = name
			}
			byAlias[alias] = rewrites
			if single == "" {
				single = alias
			} else {
				single = "\x00" // more than one candidate: unqualified refs stay
			}
		case *JoinRef:
			collect(t.Left)
			collect(t.Right)
		}
	}
	for _, f := range stmt.From {
		collect(f)
	}
	if len(byAlias) == 0 {
		return
	}
	lookup := func(t *JSONValueExpr) (string, string, bool) {
		key := exprKey(t)
		if key == "" {
			return "", "", false
		}
		arg := t.Arg.(*ColRef)
		if arg.Table != "" {
			if rewrites, ok := byAlias[arg.Table]; ok {
				if vc, ok := rewrites[key]; ok {
					return arg.Table, vc, true
				}
			}
			return "", "", false
		}
		if single != "" && single != "\x00" {
			if vc, ok := byAlias[single][key]; ok {
				return "", vc, true
			}
		}
		return "", "", false
	}
	var rw func(Expr) Expr
	rw = func(x Expr) Expr {
		switch t := x.(type) {
		case *JSONValueExpr:
			if table, vc, ok := lookup(t); ok {
				return &ColRef{Table: table, Name: vc}
			}
		case *BinOp:
			t.L, t.R = rw(t.L), rw(t.R)
		case *UnOp:
			t.X = rw(t.X)
		case *IsNullExpr:
			t.X = rw(t.X)
		case *InExpr:
			t.X = rw(t.X)
			for i := range t.List {
				t.List[i] = rw(t.List[i])
			}
		case *BetweenExpr:
			t.X, t.Lo, t.Hi = rw(t.X), rw(t.Lo), rw(t.Hi)
		case *LikeExpr:
			t.X, t.Pattern = rw(t.X), rw(t.Pattern)
		case *FuncCall:
			for i := range t.Args {
				t.Args[i] = rw(t.Args[i])
			}
		case *WindowFunc:
			for i := range t.Args {
				t.Args[i] = rw(t.Args[i])
			}
		}
		return x
	}
	for i := range stmt.Items {
		if stmt.Items[i].Expr != nil {
			stmt.Items[i].Expr = rw(stmt.Items[i].Expr)
		}
	}
	if stmt.Where != nil {
		stmt.Where = rw(stmt.Where)
	}
	for i := range stmt.GroupBy {
		stmt.GroupBy[i] = rw(stmt.GroupBy[i])
	}
	if stmt.Having != nil {
		stmt.Having = rw(stmt.Having)
	}
	for i := range stmt.OrderBy {
		if stmt.OrderBy[i].Expr != nil {
			stmt.OrderBy[i].Expr = rw(stmt.OrderBy[i].Expr)
		}
	}
	var rwFrom func(FromItem)
	rwFrom = func(f FromItem) {
		if j, ok := f.(*JoinRef); ok {
			j.On = rw(j.On)
			rwFrom(j.Left)
			rwFrom(j.Right)
		}
	}
	for _, f := range stmt.From {
		rwFrom(f)
	}
}

// validateColumns resolves every column reference in the statement's
// expressions against the plan schema, rejecting unknown or ambiguous
// names at compile time.
func validateColumns(stmt *SelectStmt, sch Schema) error {
	var err error
	var walk func(Expr)
	walk = func(x Expr) {
		if err != nil {
			return
		}
		switch t := x.(type) {
		case nil:
		case *ColRef:
			if _, rerr := sch.Resolve(t.Table, t.Name); rerr != nil {
				err = rerr
			}
		case *BinOp:
			walk(t.L)
			walk(t.R)
		case *UnOp:
			walk(t.X)
		case *IsNullExpr:
			walk(t.X)
		case *InExpr:
			walk(t.X)
			for _, a := range t.List {
				walk(a)
			}
		case *LikeExpr:
			walk(t.X)
			walk(t.Pattern)
		case *BetweenExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *FuncCall:
			for _, a := range t.Args {
				walk(a)
			}
		case *WindowFunc:
			for _, a := range t.Args {
				walk(a)
			}
			for _, o := range t.OrderBy {
				walk(o.Expr)
			}
		case *JSONValueExpr:
			walk(t.Arg)
		case *JSONExistsExpr:
			walk(t.Arg)
		case *JSONQueryExpr:
			walk(t.Arg)
		case *JSONTextContainsExpr:
			walk(t.Arg)
		case *OSONExpr:
			walk(t.Arg)
		}
	}
	for _, it := range stmt.Items {
		walk(it.Expr)
	}
	walk(stmt.Where)
	walk(stmt.Having)
	for _, g := range stmt.GroupBy {
		walk(g)
	}
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	return err
}

func collectAggs(e Expr, out *[]*FuncCall) {
	switch t := e.(type) {
	case nil:
	case *FuncCall:
		if aggregateFuncs[t.Name] {
			*out = append(*out, t)
			return
		}
		for _, a := range t.Args {
			collectAggs(a, out)
		}
	case *BinOp:
		collectAggs(t.L, out)
		collectAggs(t.R, out)
	case *UnOp:
		collectAggs(t.X, out)
	case *IsNullExpr:
		collectAggs(t.X, out)
	case *InExpr:
		collectAggs(t.X, out)
		for _, a := range t.List {
			collectAggs(a, out)
		}
	case *LikeExpr:
		collectAggs(t.X, out)
		collectAggs(t.Pattern, out)
	case *BetweenExpr:
		collectAggs(t.X, out)
		collectAggs(t.Lo, out)
		collectAggs(t.Hi, out)
	}
}

func collectWins(e Expr, out *[]*WindowFunc) {
	switch t := e.(type) {
	case nil:
	case *WindowFunc:
		*out = append(*out, t)
	case *BinOp:
		collectWins(t.L, out)
		collectWins(t.R, out)
	case *UnOp:
		collectWins(t.X, out)
	case *FuncCall:
		for _, a := range t.Args {
			collectWins(a, out)
		}
	}
}
