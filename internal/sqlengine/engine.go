// Engine: the public SQL API — statement execution, the planner, the
// view/ index catalogs, and the in-memory store attachment points.

package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// MemoryBudget caps the bytes pipeline-breaking operators (sort,
	// hash-join build, group-by, window, cross-join) may buffer per
	// query; <= 0 disables the accountant.
	MemoryBudget int64

	// fanout overrides the scan fan-out for tests: 0 lets the planner
	// decide (parallelizeScan), 1 keeps every scan serial, and n >= 2
	// forces n workers at any table size.
	fanout int
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
// the population step of §5.2.2 / §5.2.1; nil detaches. A
// MaintainedSource is subscribed to the table's writes from here until
// it is detached or replaced. Cached plans bind the source at plan
// time, so a change of source invalidates them.
func (e *Engine) AttachIMC(table string, src InMemorySource) {
	old := e.swapIMC(strings.ToLower(table), src)
	if ms, ok := old.(MaintainedSource); ok && old != src {
		ms.Unsubscribe()
	}
	if ms, ok := src.(MaintainedSource); ok {
		ms.Subscribe()
	}
	if old != nil || src != nil {
		e.invalidatePlans()
	}
}

// DetachIMC removes the in-memory source for a table and ends its
// subscription to the table's writes.
func (e *Engine) DetachIMC(table string) { e.AttachIMC(table, nil) }

// Locked accessors for the engine's mutable catalog maps. Every read
// or write of e.imc / e.views / e.indexes / e.tableIndexes /
// e.vcRewrites goes through one of these so the critical section is a
// deferred-unlock one-liner (the lockcheck invariant) and the callers
// — planning, DDL, rewrite — never hold e.mu across real work.

// swapIMC publishes the in-memory source for a (lowercased) table name
// — nil detaches — and returns the source it replaces.
func (e *Engine) swapIMC(name string, src InMemorySource) (old InMemorySource) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old, e.imc[name] = e.imc[name], src
	return old
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
	t, err := e.table(table)
	if err != nil {
		return err
	}
	_, err = t.Insert(row)
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
		return e.planAndRun(ctx, t, params, collect, tr)
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
		res, err := e.runDelete(ctx, t, params, tr)
		return res, nil, 0, err
	case *UpdateStmt:
		res, err := e.runUpdate(ctx, t, params, tr)
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
	plan, err := e.planSelectStmt(t.Query)
	if err != nil {
		return fmt.Errorf("sql: invalid view %q: %w", t.Name, err)
	}
	e.setView(name, &viewDef{stmt: t.Query, names: plan.names})
	return nil
}

func (e *Engine) runInsert(ctx context.Context, t *InsertStmt, params []jsondom.Value) (*Result, error) {
	tab, err := e.table(t.Table)
	if err != nil {
		return nil, err
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
	env := newPlanEnv(params)
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
	tab, err := e.table(t.Table)
	if err != nil {
		return err
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
	// index the rows the table holds and follow every write from there
	if err := ix.Subscribe(tab); err != nil {
		return fmt.Errorf("sql: create search index %s: %w", t.Name, err)
	}
	e.registerIndex(name, tab.Name, ix)
	return nil
}

func (e *Engine) addVirtualColumn(t *AlterTableAddVCStmt) error {
	tab, err := e.table(t.Table)
	if err != nil {
		return err
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
	env := newPlanEnv(nil)
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
		ix.Unsubscribe()
		delete(e.indexes, name)
		e.tableIndexes[ix.TableName] = slices.DeleteFunc(e.tableIndexes[ix.TableName], func(x *searchindex.Index) bool { return x == ix })
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

// planAndRun compiles one statement-path SELECT (or the read half of an
// UPDATE / DELETE) and executes it the way cached and prepared
// statements run: the plan is a template, instantiated per execution.
// collect forces per-operator stats collection (slow-query logging);
// the returned rowSource is the closed plan tree, kept so the caller
// can render it, and the uint64 is the execution's query id.
func (e *Engine) planAndRun(ctx context.Context, stmt *SelectStmt, params []jsondom.Value, collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
	planDone := tr.StartPhase("plan")
	plan, err := e.planSelectStmt(stmt)
	planDone()
	if err != nil {
		return nil, nil, 0, err
	}
	return e.runPlan(ctx, plan, params, collect, tr)
}

// runPlan executes one compiled plan: a bind phase instantiates a
// fresh operator tree against params, then the tree is drained.
func (e *Engine) runPlan(ctx context.Context, plan *preparedPlan, params []jsondom.Value, collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
	bindDone := tr.StartPhase("bind")
	src := plan.instantiate(params)
	bindDone()
	return e.drainSource(ctx, src, plan.names, collect, tr)
}

// drainSource opens src, materializes every row, and closes it,
// timing the execute phase and recording the row count on tr. It is
// the engine's single batch-to-row adapter: Query, prepared statements,
// EXPLAIN ANALYZE and the reads of UPDATE / DELETE all execute a plan
// through this loop. The rows inside a batch are arena-carved and safe
// to retain in the Result; only the batch headers cycle through the
// pool.
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

// selectLevel is what planning one query level shares between its FROM
// items: the plan environment, the statistics context, the column
// names the level references (virtual columns outside it are not
// computed) with whether a star projection exposes all of them, and
// the FROM tree's leaves (planFrom).
type selectLevel struct {
	env        *planEnv
	cc         *costCtx
	referenced map[string]bool
	star       bool
	leaves     []fromLeaf
}

// planSelectPushed plans a select with additional predicate conjuncts
// pushed down from an enclosing query (view predicate pushdown, §6.3).
// Pushed conjuncts are already substituted to this statement's inner
// expressions; they are folded into WHERE. The numbered steps are the
// planner's ordered pass list.
func (e *Engine) planSelectPushed(stmt *SelectStmt, env *planEnv, pushed []Expr) (rowSource, []string, error) {
	// 1. virtual-column rewrite (JSON_VALUE -> VC column; §5.2.1) must
	// precede the referenced-column analysis so rewritten VC references
	// are computed by the scan
	e.applyVCRewrites(stmt)

	// 2. fold pushed conjuncts into a local WHERE, never mutating the
	// shared view AST; WHERE runs below aggregation and windowing, so
	// neither may appear in it
	where := stmt.Where
	for _, p := range pushed {
		where = andExpr(where, p)
	}
	if err := noAggOrWindow(where, "WHERE"); err != nil {
		return nil, nil, err
	}

	// 3. cost-ordered conjuncts (docs/OPTIMIZER.md): evaluate
	// the most selective AND-conjunct first so the executor's
	// short-circuit (and the vectorized scan's kernel/residual split)
	// discards rows as early as possible. AND commutes over the row
	// set, so the result rows and their order are unchanged.
	lv := &selectLevel{env: env, cc: e.newCostCtx(stmt)}
	if where != nil {
		if ordered, changed := lv.cc.orderConjuncts(splitAnd(where)); changed {
			where = joinAnd(ordered)
			mCostReorders.Inc()
		}
	}

	// 4. referenced-column analysis for virtual-column pruning
	lv.referenced, lv.star = collectReferenced(stmt, where)

	// 5. FROM, with WHERE split across its inputs (planFrom): a conjunct
	// that one table or view alone can answer moves to it — into the
	// table's access path (primary key, search-index postings or vector
	// kernels, §5.2.1) and a filter directly above its scan, or into the
	// view's own plan (§6.3) — so a join is built over filtered inputs.
	// What no input takes is the residual WHERE; on a trailing
	// JSON_TABLE it also becomes JSON_EXISTS prefilters (§6.3).
	src, where, err := e.planFrom(stmt.From, where, lv)
	if err != nil {
		return nil, nil, err
	}

	// 6. WHERE (residual after pushdown). A bare scan over a large
	// enough table upgrades to a parallel partitioned scan that absorbs
	// the residual filter into its workers.
	if par := e.parallelizeScan(src, where, env); par != nil {
		src = par
	} else if where != nil {
		src = &filterOp{in: src, pred: where, env: env}
	}

	// 7. aggregation, then window functions over its output. Neither
	// collection looks inside an aggregate's arguments: those are
	// evaluated below both operators, where a window column does not
	// exist yet. They are two walks because they stop differently: a
	// window's arguments and keys may hold aggregates, but no further
	// window.
	var aggs []*FuncCall
	var wins []*WindowFunc
	collectAggs := func(x Expr) bool {
		if isAggregate(x) {
			aggs = append(aggs, x.(*FuncCall))
		}
		return !isAggregate(x)
	}
	collectWins := func(x Expr) bool {
		if isWindow(x) {
			wins = append(wins, x.(*WindowFunc))
		}
		return !isWindow(x) && !isAggregate(x)
	}
	for _, it := range stmt.Items {
		walkExpr(it.Expr, collectAggs)
		walkExpr(it.Expr, collectWins)
	}
	walkExpr(stmt.Having, collectAggs)
	walkOrder(stmt.OrderBy, collectAggs)
	walkOrder(stmt.OrderBy, collectWins)
	if len(aggs) > 0 || len(stmt.GroupBy) > 0 {
		src = newGroupAggOp(src, stmt.GroupBy, aggs, len(stmt.GroupBy) == 0, env)
		if stmt.Having != nil {
			src = &filterOp{in: src, pred: stmt.Having, env: env}
		}
	} else if stmt.Having != nil {
		return nil, nil, fmt.Errorf("sql: HAVING requires aggregation")
	}
	if len(wins) > 0 {
		src = newWindowOp(src, wins, env)
	}

	// 8. compile-time schema check (§1: "compile time schema check with
	// the rich analytic power of SQL"): every column reference of this
	// query level must resolve against the plan schema
	planned := src.Schema()
	walkSelect(stmt, false, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok && err == nil {
			_, err = planned.Resolve(c.Table, c.Name)
		}
		return err == nil
	})
	if err != nil {
		return nil, nil, err
	}

	// 9. expand stars into concrete projection expressions
	exprs, names, err := expandItems(stmt.Items, planned)
	if err != nil {
		return nil, nil, err
	}

	// 10. ORDER BY below the projection; positional items resolve to the
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

	// 11. projection
	sch := make(Schema, len(names))
	for i, n := range names {
		sch[i] = ColMeta{Name: n}
	}
	src = &projectOp{in: src, exprs: exprs, sch: sch, env: env}

	// 12. LIMIT
	if stmt.Limit >= 0 {
		src = &limitOp{in: src, limit: stmt.Limit}
	}

	// 13. est-rows annotation for EXPLAIN
	lv.cc.annotateEstimates(src)

	return src, names, nil
}

// noAggOrWindow rejects an aggregate or window function in a clause
// that is evaluated below the operators computing them.
func noAggOrWindow(e Expr, clause string) (err error) {
	walkExpr(e, func(x Expr) bool {
		switch {
		case isAggregate(x):
			err = fmt.Errorf("sql: aggregate %s is not allowed in %s", x.(*FuncCall).Name, clause)
		case isWindow(x):
			err = fmt.Errorf("sql: window function %s is not allowed in %s", x.(*WindowFunc).Name, clause)
		}
		return err == nil
	})
	return err
}

// rowIDColumn names the hidden scan column that carries a row's id to
// UPDATE and DELETE (dml.go). The lexer lower-cases every identifier,
// quoted or not, so no SQL text can spell it.
const rowIDColumn = "ROWID"

// resolved returns the reference's lower-cased catalog name and the
// alias its columns are qualified by (the name when none is written).
func (t *TableRef) resolved() (name, alias string) {
	name = strings.ToLower(t.Name)
	if t.Alias != "" {
		return name, t.Alias
	}
	return name, name
}

// eachTableRef calls fn for every table reference of a FROM item, join
// trees included (subqueries are their own query level).
func eachTableRef(f FromItem, fn func(*TableRef)) {
	switch t := f.(type) {
	case *TableRef:
		fn(t)
	case *JoinRef:
		eachTableRef(t.Left, fn)
		eachTableRef(t.Right, fn)
	}
}

// scanTable is the one table-access constructor: it resolves a FROM
// table reference against the catalog and builds its scan — virtual
// columns computed only where the level references them, the attached
// in-memory source substituted, and the row id appended as a hidden
// column when the level asks for it (the read half of an UPDATE or
// DELETE, which reads through the store like any query: the store is
// consistent under DML). nil when the name is not a table.
func (e *Engine) scanTable(t *TableRef, lv *selectLevel) *tableScan {
	name, alias := t.resolved()
	tab, ok := e.cat.Table(name)
	if !ok {
		return nil
	}
	s := &tableScan{
		tab:       tab,
		alias:     alias,
		cols:      tab.Columns(),
		sub:       e.imcSource(name),
		samplePct: t.SamplePct,
		env:       lv.env,
	}
	for _, c := range s.cols {
		s.sch = append(s.sch, ColMeta{Table: alias, Name: c.Name, Hidden: c.Hidden})
		s.needVC = append(s.needVC, lv.referenced[c.Name] || (lv.star && !c.Hidden))
	}
	if lv.referenced[rowIDColumn] {
		s.sch = append(s.sch, ColMeta{Table: alias, Name: rowIDColumn, Hidden: true})
	}
	return s
}

// chooseAccessPath lets the WHERE conjuncts pick how a single-table
// scan finds its rows — a primary-key probe, search-index postings,
// vector kernels, or the plain scan, in that order — and returns the
// residual predicate. A key probe yields at most one row, so nothing
// can beat it. When the postings are estimated to cover a large table
// fraction and vector kernels are available, the sparse row-id list
// loses its point and the kernels win; both paths return the same rows
// in ascending row-id order.
func (e *Engine) chooseAccessPath(scan *tableScan, where Expr, cc *costCtx) Expr {
	if residual, ok := pkAccess(scan, where); ok {
		return residual
	}
	residual, ok := e.indexAccess(scan, where)
	if !ok {
		residual, _ = e.vectorAccess(scan, where)
		return residual
	}
	if sel, known := cc.indexScanSelectivity(where, residual); known && sel > costIndexMaxSel {
		if vres, vok := e.vectorAccess(scan, where); vok {
			scan.rowIDsFn, scan.rowIDsVia = nil, ""
			mCostIndexSkips.Inc()
			return vres
		}
	}
	return residual
}

// pkAccess turns the first conjunct `pk = literal | ?` (either side)
// into a one-candidate row-id scan; the other conjuncts are the
// residual. The key is probed at Open, with the execution's bind value
// and under the table lock that Insert / Update / Delete maintain the
// key index under. The probe declines — and the scan reads every row,
// applying the conjunct itself — whenever the index's notion of
// equality (equal serialised keys) and SQL's might differ on this
// table or this constant: store.Table.ProbePK says when.
func pkAccess(scan *tableScan, where Expr) (Expr, bool) {
	pk, ok := scan.tab.PrimaryKey()
	if !ok {
		return where, false
	}
	conjs := splitAnd(where)
	for i, c := range conjs {
		spec, ok := recognizeVecFilter(c)
		if !ok || spec.op != "=" || spec.col != pk || (spec.table != "" && spec.table != scan.alias) {
			continue // a qualifier that is not this table's is for binding to report
		}
		tab := scan.tab
		scan.rowIDsVia, scan.rowIDsPred = "pk", c
		scan.rowIDsFn = func(env *planEnv) ([]int, bool) {
			// a missing bind declines too: the row-level conjunct reports
			// it with the usual message
			vals, ok := spec.operandValues(env)
			if !ok {
				return nil, false
			}
			rowID, found, exact := tab.ProbePK(vals[0])
			if !found {
				return nil, exact
			}
			return []int{rowID}, true
		}
		return joinAnd(append(conjs[:i:i], conjs[i+1:]...)), true
	}
	return where, false
}

// vectorAccess hands the WHERE conjuncts that compare a vector-backed
// column of the scan's in-memory source with constants or binds to the
// scan, which compiles them to chunk kernels at its Open (tableScan.
// vecSpecs); the other conjuncts are returned as the residual filter.
func (e *Engine) vectorAccess(scan *tableScan, where Expr) (Expr, bool) {
	bfs, ok := scan.sub.(BatchFilterSource)
	if !ok || e.Planner.DisableVectorFilter {
		return where, false
	}
	var specs []vecFilterSpec
	var residual Expr
	for _, c := range splitAnd(where) {
		if spec, ok := recognizeVecFilter(c); ok {
			if _, ok := bfs.Vector(spec.col); ok {
				specs = append(specs, spec)
				continue
			}
		}
		residual = andExpr(residual, c)
	}
	if len(specs) == 0 {
		return where, false
	}
	scan.vecSpecs = specs
	return residual, true
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
			return vecFilterSpec{table: col.Table, col: col.Name, op: t.Op, operands: []Expr{t.R}, orig: c}, true
		}
		if col, ok := t.R.(*ColRef); ok && isConst(t.L) {
			return vecFilterSpec{table: col.Table, col: col.Name, op: flip[t.Op], operands: []Expr{t.L}, orig: c}, true
		}
	case *BetweenExpr:
		if t.Not {
			return vecFilterSpec{}, false
		}
		col, ok := t.X.(*ColRef)
		if ok && isConst(t.Lo) && isConst(t.Hi) {
			return vecFilterSpec{table: col.Table, col: col.Name, op: "between", operands: []Expr{t.Lo, t.Hi}, orig: c}, true
		}
	}
	return vecFilterSpec{}, false
}

// indexAccess accelerates `WHERE json_exists(col, '$...')` using the
// JSON search index: the path postings yield exactly the documents
// containing the field-name path (§3.2.1: "what documents within the
// collection have particular path structures"), so the scan touches
// only those rows and the conjunct is satisfied by construction. Only
// plain field-chain paths qualify — they match the index's path
// vocabulary exactly.
func (e *Engine) indexAccess(scan *tableScan, where Expr) (Expr, bool) {
	indexes := e.indexesFor(scan.tab.Name)
	if len(indexes) == 0 || e.Planner.DisableIndexScan {
		return where, false
	}
	var getters []func() ([]int, bool)
	var residual, consumed Expr
	for _, c := range splitAnd(where) {
		switch t := c.(type) {
		case *JSONExistsExpr:
			if g, ok := e.indexPathPostings(indexes, t); ok {
				getters = append(getters, g)
				consumed = andExpr(consumed, c)
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
		return where, false
	}
	// postings are read at Open, per execution, so a cached plan picks
	// up rows written after planning; a stale index declines, and the
	// scan applies the conjuncts the postings would have answered
	scan.rowIDsVia, scan.rowIDsPred = "index", consumed
	scan.rowIDsFn = func(*planEnv) ([]int, bool) {
		var rowIDs []int
		for i, g := range getters {
			ids, ok := g()
			if !ok {
				return nil, false
			}
			if i > 0 {
				ids = searchindex.Intersect(rowIDs, ids)
			}
			rowIDs = ids
		}
		return rowIDs, true
	}
	return residual, true
}

// indexKeywordPostings resolves a JSON_TEXTCONTAINS conjunct to a
// getter over the documents whose string leaves contain the keyword;
// the getter reads live postings when the scan opens, and declines
// when the index is stale.
func (e *Engine) indexKeywordPostings(indexes []*searchindex.Index, tc *JSONTextContainsExpr) (func() ([]int, bool), bool) {
	arg, ok := tc.Arg.(*ColRef)
	if !ok {
		return nil, false
	}
	for _, ix := range indexes {
		if ix.Column != arg.Name || !ix.PostingsEnabled() {
			continue
		}
		ix := ix
		return func() ([]int, bool) { return ix.DocsWithKeyword(tc.Keyword), !ix.Stale() }, true
	}
	return nil, false
}

// indexPathPostings resolves a JSON_EXISTS conjunct against the search
// indexes of the table: the argument must be a bare column reference
// carrying a postings-enabled index, and the path a pure field chain.
// The returned getter reads live postings when the scan opens, and
// declines when the index is stale.
func (e *Engine) indexPathPostings(indexes []*searchindex.Index, je *JSONExistsExpr) (func() ([]int, bool), bool) {
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
		return func() ([]int, bool) { return ix.DocsWithPath(path), !ix.Stale() }, true
	}
	return nil, false
}

// substituteOutputCols rewrites a pushed conjunct (expressed over a
// statement's output column names; qualifiers are ignored) into the
// statement's inner expressions, returning a new tree (the original is
// never mutated).
func substituteOutputCols(p Expr, stmt *SelectStmt) (Expr, error) {
	lookup := func(name string) (Expr, error) {
		for _, it := range stmt.Items {
			if !it.Star && itemName(it, 0) == name {
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
					if _, alias := t.resolved(); it.StarTable == "" || it.StarTable == alias {
						return &ColRef{Table: alias, Name: name}, nil
					}
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
	var err error
	out := rewriteExpr(p, true, func(x Expr) Expr {
		if c, ok := x.(*ColRef); ok && err == nil {
			x, err = lookup(c.Name)
		}
		return x
	})
	return out, err
}

// viewPushdown plans the view tr names under the WHERE conjuncts its
// leaf took: those that only reference the view's output columns are
// pushed into the view's plan (where the JSON_EXISTS prefilter and
// vector pushdowns can act on them) unless that would cross an
// aggregation, window or LIMIT; the rest are returned as the residual.
func (e *Engine) viewPushdown(tr *TableRef, where Expr, env *planEnv) (rowSource, Expr, error) {
	name, alias := tr.resolved()
	vd, _ := e.view(name)
	crosses := len(vd.stmt.GroupBy) > 0 || vd.stmt.Limit >= 0
	walkSelect(vd.stmt, false, func(x Expr) bool {
		crosses = crosses || isAggregate(x) || isWindow(x)
		return !crosses
	})
	viewCols := make(map[string]bool, len(vd.names))
	for _, n := range vd.names {
		viewCols[n] = true
	}
	var push []Expr
	var residual Expr
	for _, c := range splitAnd(where) {
		// only simple predicate shapes over the view's own columns are
		// pushed; exotic expressions stay above the view
		foreign := crosses || !pushableShape(c) || exprContains(c, func(x Expr) bool {
			cr, ok := x.(*ColRef)
			return ok && (cr.Table != "" && cr.Table != alias || !viewCols[cr.Name])
		})
		if !foreign {
			if sub, err := substituteOutputCols(c, vd.stmt); err == nil {
				push = append(push, sub)
				continue
			}
		}
		residual = andExpr(residual, c)
	}
	inner, _, err := e.planSelectPushed(vd.stmt, env, push)
	if err != nil {
		return nil, nil, err
	}
	return newAliasWrap(inner, alias, vd.names), residual, nil
}

// pushableShape limits pushdown to deterministic scalar predicates that
// cannot raise an error, so moving one below a join or into a view
// never evaluates it on a row that would otherwise have failed it
// silently: a comparison of incomparable values is NULL, while LIKE
// over a non-string raises.
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
	}
	return false
}

// fromLeaf is one input of a FROM tree as planFrom sees it: the FROM
// item, the columns it exposes, whether WHERE conjuncts may move into
// it (an unsampled table or view no LEFT join pads with NULLs), the
// conjuncts it took, and a table's scan or a subquery's plan.
type fromLeaf struct {
	ref   FromItem
	sch   Schema
	takes bool
	where Expr
	src   rowSource
}

// planFrom builds the FROM clause with WHERE split across its leaves
// and returns the conjuncts no leaf took. A conjunct goes to a leaf
// when every column it references resolves on that leaf, none resolves
// on another input, and it passes pushableShape, so nothing that can
// raise an error runs on rows a join would have discarded. A lone leaf
// has no join to move below: it takes the whole WHERE and hands its
// residual back to step 6, where a parallel scan can absorb it.
func (e *Engine) planFrom(from []FromItem, where Expr, lv *selectLevel) (rowSource, Expr, error) {
	for _, f := range from {
		if err := e.collectLeaves(f, true, lv); err != nil {
			return nil, nil, err
		}
	}
	if tr, ok := from[0].(*TableRef); ok && len(lv.leaves) == 1 && lv.leaves[0].takes {
		lv.leaves[0].where = where
		return e.planLeaf(tr, lv)
	}
	var rest Expr
	for _, c := range splitAnd(where) {
		if lf := conjunctOwner(c, lv.leaves); lf != nil && pushableShape(c) {
			lf.where = andExpr(lf.where, c)
			mJoinSideConjuncts.Inc()
			continue
		}
		rest = andExpr(rest, c)
	}
	var src rowSource
	var jtOp *jsonTableOp
	for _, f := range from {
		s, lateral, err := e.buildFrom(f, src, lv)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case lateral:
			src = s // JSON_TABLE already composed with the left side
			jtOp, _ = s.(*jsonTableOp)
		case src == nil:
			src = s
		default:
			src = newCrossJoin(src, s)
			jtOp = nil
		}
	}
	// WHERE conjuncts over the trailing JSON_TABLE's columns become path
	// predicates evaluated on the document before expansion; the
	// residual WHERE still applies, so this is purely an implied
	// pre-filter
	if jtOp != nil && rest != nil && !e.Planner.DisablePrefilter {
		attachPrefilters(jtOp, rest)
	}
	return src, rest, nil
}

// collectLeaves appends the leaves of one FROM item to lv.leaves;
// takes is false below a LEFT join's null-supplying side.
func (e *Engine) collectLeaves(f FromItem, takes bool, lv *selectLevel) error {
	lf := fromLeaf{ref: f}
	switch t := f.(type) {
	case *JoinRef:
		if err := e.collectLeaves(t.Left, takes, lv); err != nil {
			return err
		}
		return e.collectLeaves(t.Right, takes && !t.LeftOuter, lv)
	case *TableRef:
		name, alias := t.resolved()
		lf.takes = takes && t.SamplePct == 0
		if scan := e.scanTable(t, lv); scan != nil {
			lf.src, lf.sch = scan, scan.sch
		} else if vd, ok := e.view(name); ok {
			for _, n := range vd.names {
				lf.sch = append(lf.sch, ColMeta{Table: alias, Name: n})
			}
		} else {
			return fmt.Errorf("sql: no such table or view %q", t.Name)
		}
	case *SubqueryRef:
		inner, names, err := e.planSelectPushed(t.Query, lv.env, nil)
		if err != nil {
			return err
		}
		lf.src = newAliasWrap(inner, t.Alias, names)
		lf.sch = lf.src.Schema()
	case *JSONTableRef:
		for _, n := range t.ColNames {
			lf.sch = append(lf.sch, ColMeta{Table: t.Alias, Name: n})
		}
	}
	lv.leaves = append(lv.leaves, lf)
	return nil
}

// leaf returns the collected leaf of a FROM item.
func (lv *selectLevel) leaf(f FromItem) *fromLeaf {
	for i := range lv.leaves {
		if lv.leaves[i].ref == f {
			return &lv.leaves[i]
		}
	}
	return nil
}

// conjunctOwner returns the leaf that may take c: the one on which
// every column reference of c resolves, when no other leaf resolves any
// of them; nil when there is none or it takes no conjuncts.
func conjunctOwner(c Expr, leaves []fromLeaf) *fromLeaf {
	var own *fromLeaf
	for i := range leaves {
		lf := &leaves[i]
		n, total := resolveCount(lf.sch, c)
		if n == 0 {
			continue
		}
		if own != nil || n < total {
			return nil
		}
		own = lf
	}
	if own == nil || !own.takes {
		return nil
	}
	return own
}

// planLeaf builds a table or view leaf under the conjuncts it took and
// returns what they left: on a table they choose the access path and
// stamp the scan's estimate, on a view they go through viewPushdown.
func (e *Engine) planLeaf(t *TableRef, lv *selectLevel) (rowSource, Expr, error) {
	lf := lv.leaf(t)
	if scan, ok := lf.src.(*tableScan); ok {
		if lf.where == nil {
			return scan, nil, nil
		}
		residual := e.chooseAccessPath(scan, lf.where, lv.cc)
		lv.cc.setScanEstimate(scan, lf.where, residual)
		return scan, residual, nil
	}
	if t.SamplePct > 0 {
		return nil, nil, fmt.Errorf("sql: SAMPLE is not supported on views")
	}
	return e.viewPushdown(t, lf.where, lv.env)
}

// buildFrom builds a row source for one FROM item from its collected
// leaves; a leaf's residual is filtered directly above it, below any
// join. lateral=true means the returned source already incorporates
// the accumulated left side.
func (e *Engine) buildFrom(f FromItem, left rowSource, lv *selectLevel) (rowSource, bool, error) {
	switch t := f.(type) {
	case *TableRef:
		src, residual, err := e.planLeaf(t, lv)
		if err == nil && residual != nil {
			src = &filterOp{in: src, pred: residual, env: lv.env}
		}
		return src, false, err
	case *SubqueryRef:
		return lv.leaf(t).src, false, nil
	case *JSONTableRef:
		return newJSONTableOp(left, t, lv.env), true, nil
	case *JoinRef:
		l, lLateral, err := e.buildFrom(t.Left, left, lv)
		if err != nil {
			return nil, false, err
		}
		r, _, err := e.buildFrom(t.Right, nil, lv)
		if err != nil {
			return nil, false, err
		}
		join, err := e.planJoin(l, r, t, lv)
		return join, lLateral, err
	}
	return nil, false, fmt.Errorf("sql: unsupported FROM item %T", f)
}

// planJoin picks a hash join when the ON condition contains
// equi-conjuncts whose two sides are each computable from one input
// (arbitrary expressions, e.g. JSON_VALUE calls, not just bare
// columns); otherwise a cross join plus filter. The hash table is built
// on whichever input is estimated smaller (the build-side pick doubles
// as the order-preserving two-way join reordering — probe order, and
// therefore output order, never changes).
func (e *Engine) planJoin(l, r rowSource, t *JoinRef, lv *selectLevel) (rowSource, error) {
	var lk, rk []Expr
	var residual Expr
	for _, c := range splitAnd(t.On) {
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
		hj := newHashJoin(l, r, lk, rk, residual, t.LeftOuter, lv.env)
		ln, lok := lv.cc.annotateEstimates(l)
		rn, rok := lv.cc.annotateEstimates(r)
		if lok && rok && ln < rn {
			hj.buildLeft = true
			mCostBuildLeft.Inc()
		}
		return hj, nil
	}
	if t.LeftOuter {
		return nil, fmt.Errorf("sql: LEFT JOIN requires an equi-join condition")
	}
	return &filterOp{in: newCrossJoin(l, r), pred: t.On, env: lv.env}, nil
}

// resolvesOn reports whether every column reference in the expression
// resolves against the schema, and the expression references at least
// one column (a constant is not a useful join key side).
func resolvesOn(s Schema, e Expr) bool {
	n, total := resolveCount(s, e)
	return total > 0 && n == total
}

// resolveCount counts the column references in e, and those of them
// that resolve against s.
func resolveCount(s Schema, e Expr) (n, total int) {
	walkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			if _, err := s.Resolve(c.Table, c.Name); err == nil {
				n++
			}
			total++
		}
		return true
	})
	return n, total
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
// the statement or in the conjuncts pushed into it (for lazy
// virtual-column evaluation) and whether its select list has a star.
func collectReferenced(stmt *SelectStmt, where Expr) (map[string]bool, bool) {
	names := make(map[string]bool)
	note := func(x Expr) bool {
		if c, ok := x.(*ColRef); ok {
			names[c.Name] = true
		}
		return true
	}
	walkSelect(stmt, true, note)
	walkExpr(where, note)
	star := false
	for _, it := range stmt.Items {
		star = star || it.Star
	}
	return names, star
}

// applyVCRewrites replaces JSON_VALUE expressions with references to
// matching virtual columns of this query level's tables (§5.2.1): when
// the VC is populated in the in-memory columnar store, the predicate
// then reads the column vector instead of evaluating the path.
func (e *Engine) applyVCRewrites(stmt *SelectStmt) {
	if e.Planner.DisableVCRewrite {
		return
	}
	byAlias := make(map[string]map[string]string) // alias -> exprKey -> vc
	single := ""
	for _, f := range stmt.From {
		eachTableRef(f, func(t *TableRef) {
			name, alias := t.resolved()
			if rewrites := e.vcRewritesFor(name); len(rewrites) > 0 {
				byAlias[alias] = rewrites
				single = alias
			}
		})
	}
	if len(byAlias) != 1 {
		single = "" // more than one candidate: unqualified refs stay
	}
	if len(byAlias) == 0 {
		return
	}
	rewriteSelect(stmt, false, func(x Expr) Expr {
		key := exprKey(x)
		if key == "" {
			return x
		}
		arg := x.(*JSONValueExpr).Arg.(*ColRef)
		alias := arg.Table
		if alias == "" {
			alias = single
		}
		if vc, ok := byAlias[alias][key]; ok {
			return &ColRef{Table: arg.Table, Name: vc}
		}
		return x
	})
}
