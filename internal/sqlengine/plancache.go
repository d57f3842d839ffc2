// The LRU plan cache behind the OLTP fast path: plain Query/Exec
// calls look their normalized SQL up here and, on a hit, skip the
// parser and planner entirely — the cached preparedPlan is
// instantiated with the execution's parameter values (user binds plus
// auto-parameterized literals) and drained. Entries carry the
// planner-option snapshot and the engine's plan generation at build
// time; a generation bump (DDL, IMC attach/detach) or an option flip
// makes the entry self-invalidate at its next lookup.

package sqlengine

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/jsondom"
	"repro/internal/metrics"
)

// defaultPlanCacheSize is the plan cache capacity a new engine starts
// with.
const defaultPlanCacheSize = 128

// planEntry is one cached, immutable compiled statement plus the
// binding recipe that maps an execution's literals onto the plan's
// parameter slots.
type planEntry struct {
	shape, key string // normalizeSQL's shape; appendCacheKey's completion of it
	plan       *preparedPlan
	gen        uint64         // engine plan generation at build time
	opts       PlannerOptions // planner-option snapshot at build time
	// litParam maps the i-th number/string token to its bind slot, or
	// -1 for tokens whose text is baked into the plan and into key.
	litParam []int
	// nUser is the user-supplied parameter count the plan was built
	// for; nSlots is nUser plus the auto-parameterized literal count.
	nUser, nSlots int
	// statsFP fingerprints the power-of-two size buckets of the base
	// tables the plan reads (planStatsFP); a lookup whose recomputed
	// fingerprint differs re-plans, so the cost model's decisions track
	// statistics drift.
	statsFP uint64
}

// bindLits assembles the execution parameter vector: the caller's
// values in slots [0,nUser) and the lookup's literal tokens converted
// into the slots recorded at build time. It reports false when a
// token is not a value the parser would accept.
func (ent *planEntry) bindLits(user []jsondom.Value, lits []token) ([]jsondom.Value, bool) {
	if len(lits) != len(ent.litParam) {
		return nil, false
	}
	exec := make([]jsondom.Value, ent.nSlots)
	copy(exec, user)
	for i, t := range lits {
		slot := ent.litParam[i]
		if slot < 0 {
			continue
		}
		v, err := litValue(t)
		if err != nil {
			return nil, false
		}
		exec[slot] = v
	}
	return exec, true
}

// planCache is a mutex-guarded LRU of planEntry keyed by appendCacheKey.
// All methods are safe for concurrent use.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *planEntry
	byKey map[string]*list.Element
	// shapes says, for every shape with a cached entry, which of its
	// literal tokens are baked in — what a lookup needs to complete a
	// shape into a key without parsing. It lives and dies with the
	// entries: entries counts them per shape.
	shapes map[string]*shapeInfo
}

type shapeInfo struct {
	litParam []int
	entries  int
}

func newPlanCache(capacity int) *planCache {
	if capacity < 0 {
		capacity = 0
	}
	return &planCache{cap: capacity, lru: list.New(),
		byKey: make(map[string]*list.Element), shapes: make(map[string]*shapeInfo)}
}

// find returns the entry a statement of the given shape and literals
// would execute through, or nil. promote makes it the most recently
// used; EXPLAIN's cache-status probe passes false.
func (c *planCache) find(shape string, lits []token, promote bool) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, ok := c.shapes[shape]
	if !ok {
		return nil
	}
	var buf [512]byte // keeps the key of an ordinary statement off the heap
	el, ok := c.byKey[string(appendCacheKey(buf[:0], shape, lits, sh.litParam))]
	if !ok {
		return nil
	}
	if promote {
		c.lru.MoveToFront(el)
	}
	return el.Value.(*planEntry)
}

// put inserts or replaces the entry for ent.key, evicting from the
// cold end when over capacity.
func (c *planCache) put(ent *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap == 0 {
		return
	}
	if el, ok := c.byKey[ent.key]; ok {
		el.Value = ent
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[ent.key] = c.lru.PushFront(ent)
	sh := c.shapes[ent.shape]
	if sh == nil {
		sh = &shapeInfo{litParam: ent.litParam}
		c.shapes[ent.shape] = sh
	}
	sh.entries++
	for c.lru.Len() > c.cap {
		c.dropLocked(c.lru.Back())
		mPlanCacheEvictions.Inc()
	}
}

// remove drops ent if it is still the cached entry for its key.
func (c *planCache) remove(ent *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[ent.key]; ok && el.Value == ent {
		c.dropLocked(el)
	}
}

func (c *planCache) dropLocked(el *list.Element) {
	ent := el.Value.(*planEntry)
	delete(c.byKey, ent.key)
	c.lru.Remove(el)
	if sh := c.shapes[ent.shape]; sh != nil {
		if sh.entries--; sh.entries == 0 {
			delete(c.shapes, ent.shape)
		}
	}
}

// setCapacity resizes the cache, evicting cold entries as needed;
// n <= 0 disables caching and purges everything.
func (c *planCache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.cap = n
	for c.lru.Len() > c.cap {
		c.dropLocked(c.lru.Back())
		mPlanCacheEvictions.Inc()
	}
}

func (c *planCache) capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// SetPlanCacheSize resizes the engine's plan cache; n <= 0 disables
// plan caching entirely (every statement hard-parses, the pre-cache
// behavior — used by ablation benchmarks).
func (e *Engine) SetPlanCacheSize(n int) {
	e.plans.setCapacity(n)
}

// PlanCacheLen reports how many plans are currently cached.
func (e *Engine) PlanCacheLen() int {
	return e.plans.len()
}

// invalidatePlans bumps the plan generation, making every cached plan
// (and every PreparedStmt's compiled plan) stale at its next use.
// Called on any catalog or planner-visible change: DDL, view changes,
// search-index creation, virtual columns, IMC attach/detach.
func (e *Engine) invalidatePlans() {
	e.planGen.Add(1)
	mPlanCacheInvalidations.Inc()
}

// plannerSnapshot copies the engine's planner options; PlannerOptions
// is a comparable struct, so the copy doubles as the cache validity
// check against later flag flips.
func (e *Engine) plannerSnapshot() PlannerOptions {
	return e.Planner
}

// buildEntry compiles sel (which buildEntry rewrites in place) into a
// cache entry: parameterizable literals become bind slots numbered
// after the user parameters, in source-token order; the rest keep
// their texts, in the plan and in the entry's key.
func (e *Engine) buildEntry(shape string, sel *SelectStmt, lits []token, nUser int, gen uint64, opts PlannerOptions) (*planEntry, error) {
	byOff := collectParamLiterals(sel)
	ent := &planEntry{shape: shape, gen: gen, opts: opts, nUser: nUser}
	slot := nUser
	assign := make(map[int]int, len(byOff))
	for _, t := range lits {
		if _, ok := byOff[t.pos]; ok {
			ent.litParam = append(ent.litParam, slot)
			assign[t.pos] = slot
			slot++
		} else {
			ent.litParam = append(ent.litParam, -1)
		}
	}
	ent.key = string(appendCacheKey(nil, shape, lits, ent.litParam))
	ent.nSlots = slot
	if len(assign) > 0 {
		rewriteSelect(sel, true, func(x Expr) Expr {
			if l, ok := x.(*Literal); ok && l.Off > 0 {
				if s, ok := assign[l.Off]; ok {
					return &Param{Index: s}
				}
			}
			return x
		})
	}
	plan, err := e.planSelectStmt(sel)
	if err != nil {
		return nil, err
	}
	ent.plan = plan
	ent.statsFP = planStatsFP(plan.root)
	return ent, nil
}

// execCached is the plan-cache fast path for Query/Exec: if sql is a
// cacheable SELECT it is served through the cache (counting a hit or
// a miss-and-build) and handled is true; otherwise handled is false
// and the caller takes the ordinary parse-and-execute path.
func (e *Engine) execCached(ctx context.Context, sql string, params []jsondom.Value) (res *Result, handled bool, err error) {
	if e.plans.capacity() == 0 {
		return nil, false, nil
	}
	shape, lits, isSelect, nerr := normalizeSQL(sql)
	if nerr != nil || !isSelect {
		return nil, false, nil
	}
	gen := e.planGen.Load()
	opts := e.plannerSnapshot()
	if ent := e.plans.find(shape, lits, true); ent != nil {
		if ent.gen != gen || ent.opts != opts {
			e.plans.remove(ent)
		} else if ent.statsFP != planStatsFP(ent.plan.root) {
			// statistics drift: the plan's cost decisions were made
			// against table sizes that have since crossed a
			// power-of-two bucket — re-plan with fresh estimates
			mCostStatsDrift.Inc()
			e.plans.remove(ent)
		} else if ent.nUser != len(params) {
			// parameter-count drift: let the uncached path produce the
			// engine's usual missing/extra-parameter semantics
			return nil, false, nil
		} else if exec, ok := ent.bindLits(params, lits); ok {
			mPlanCacheHits.Inc()
			mSoftParse.Inc()
			res, err := e.runWrapped(sql, 0, nil, func(collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
				return e.runPlan(ctx, ent.plan, exec, collect, tr)
			})
			return res, true, err
		}
	}
	// miss: hard-parse, compile, cache, then execute through the new
	// entry so the first execution also runs the shared plan.
	mPlanCacheMisses.Inc()
	mHardParse.Inc()
	t0 := time.Now()
	stmt, perr := ParseStatement(sql)
	if perr != nil {
		return nil, true, perr
	}
	parseD := time.Since(t0)
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		// normalization and the parser disagree on the statement kind;
		// defer to the parser
		res, err := e.execStmt(ctx, sql, parseD, stmt, params)
		return res, true, err
	}
	ent, berr := e.buildEntry(shape, sel, lits, len(params), gen, opts)
	if berr != nil {
		// planning failed; re-parse so the ordinary path reports the
		// error with its usual metrics accounting
		stmt2, perr2 := ParseStatement(sql)
		if perr2 != nil {
			return nil, true, perr2
		}
		res, err := e.execStmt(ctx, sql, parseD, stmt2, params)
		return res, true, err
	}
	e.plans.put(ent)
	exec, ok := ent.bindLits(params, lits)
	if !ok {
		// cannot happen: the entry was built from these very tokens
		return nil, false, nil
	}
	res, err = e.runWrapped(sql, parseD, nil, func(collect bool, tr *metrics.Trace) (*Result, rowSource, uint64, error) {
		return e.runPlan(ctx, ent.plan, exec, collect, tr)
	})
	return res, true, err
}
