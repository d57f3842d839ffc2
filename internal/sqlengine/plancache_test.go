// Tests for the plan cache and prepared statements: normalization,
// literal auto-parameterization, LRU behavior, generation-based
// invalidation (DDL, IMC attach, planner flags), statement-kind
// validation, and race-safety of the shared immutable plans.

package sqlengine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestNormalizeSQL(t *testing.T) {
	k1, lits, isSel, err := normalizeSQL(`select did from po where did = 5`)
	if err != nil || !isSel {
		t.Fatalf("normalize: %v isSelect=%v", err, isSel)
	}
	if len(lits) != 1 || lits[0].text != "5" {
		t.Fatalf("lits = %v", lits)
	}
	k2, _, _, _ := normalizeSQL(`select did from po where did = 7`)
	if k1 != k2 {
		t.Fatalf("same shape, different keys:\n%q\n%q", k1, k2)
	}
	// a number literal, a string literal, and a bind parameter must
	// produce three distinct keys
	kStr, _, _, _ := normalizeSQL(`select did from po where did = '5'`)
	kPar, _, _, _ := normalizeSQL(`select did from po where did = ?`)
	if k1 == kStr || k1 == kPar || kStr == kPar {
		t.Fatalf("kind markers collide: %q %q %q", k1, kStr, kPar)
	}
	// quoted identifiers must not merge with plain identifiers
	kQ, _, _, _ := normalizeSQL(`select "did" from po`)
	kP, _, _, _ := normalizeSQL(`select did from po`)
	if kQ == kP {
		t.Fatalf("quoted ident merged with plain ident: %q", kQ)
	}
	if _, _, isSel, _ := normalizeSQL(`insert into po values (1, '{}')`); isSel {
		t.Fatal("insert classified as select")
	}
}

func TestPlanCacheHitAndAutoParam(t *testing.T) {
	e := newPOEngine(t)
	hits0, miss0 := mPlanCacheHits.Value(), mPlanCacheMisses.Value()
	soft0, hard0 := mSoftParse.Value(), mHardParse.Value()

	r := mustExec(t, e, `select did from po where did = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "1" {
		t.Fatalf("first run rows = %v", r.Rows)
	}
	if got := mPlanCacheMisses.Value() - miss0; got != 1 {
		t.Fatalf("misses after first run = %d", got)
	}
	if got := mHardParse.Value() - hard0; got != 1 {
		t.Fatalf("hard parses after first run = %d", got)
	}

	// same shape, different constant: must hit the cache and still
	// return the right row
	r = mustExec(t, e, `select did from po where did = 2`)
	if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "2" {
		t.Fatalf("auto-param rows = %v", r.Rows)
	}
	if got := mPlanCacheHits.Value() - hits0; got != 1 {
		t.Fatalf("hits after second run = %d", got)
	}
	if got := mSoftParse.Value() - soft0; got != 1 {
		t.Fatalf("soft parses after second run = %d", got)
	}
	if n := e.PlanCacheLen(); n != 1 {
		t.Fatalf("cache len = %d", n)
	}
}

func TestPlanCacheFixedLiterals(t *testing.T) {
	// LIMIT counts are baked into the plan, not parameterized: limit 1
	// and limit 2 share a normalized key but must not share a plan.
	e := newPOEngine(t)
	r := mustExec(t, e, `select did from po order by did limit 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("limit 1 rows = %d", len(r.Rows))
	}
	r = mustExec(t, e, `select did from po order by did limit 2`)
	if len(r.Rows) != 2 {
		t.Fatalf("limit 2 rows = %d (stale limit-1 plan reused?)", len(r.Rows))
	}
	r = mustExec(t, e, `select did from po order by did limit 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("limit 1 again rows = %d", len(r.Rows))
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	e := newPOEngine(t)
	e.SetPlanCacheSize(2)
	ev0 := mPlanCacheEvictions.Value()
	mustExec(t, e, `select did from po`)
	mustExec(t, e, `select count(*) from po`)
	mustExec(t, e, `select did from po order by did`)
	if n := e.PlanCacheLen(); n != 2 {
		t.Fatalf("cache len = %d, want 2", n)
	}
	if got := mPlanCacheEvictions.Value() - ev0; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	e.SetPlanCacheSize(0)
	if n := e.PlanCacheLen(); n != 0 {
		t.Fatalf("disabled cache len = %d", n)
	}
	// with the cache disabled every execution is a hard parse
	hard0 := mHardParse.Value()
	mustExec(t, e, `select did from po`)
	mustExec(t, e, `select did from po`)
	if got := mHardParse.Value() - hard0; got != 2 {
		t.Fatalf("hard parses with cache off = %d, want 2", got)
	}
}

// attachScaledIMC installs an in-memory source substituting po's jdoc
// with documents whose purchaseOrder.id is scaled by 10, so a query
// that sees 10/20/30 instead of 1/2/3 provably ran a fresh plan.
func attachScaledIMC(t *testing.T, e *Engine) {
	t.Helper()
	sub := &fakeIMC{col: "jdoc", vals: map[int]jsondom.Value{}}
	tab, ok := e.Catalog().Table("po")
	if !ok {
		t.Fatal("po table missing")
	}
	i := 0
	tab.Scan(func(rid int, _ store.Row) bool {
		i++
		sub.vals[rid] = jsondom.String(fmt.Sprintf(`{"purchaseOrder":{"id":%d}}`, i*10))
		return true
	})
	e.AttachIMC("po", sub)
}

const poIDQuery = `select json_value(jdoc, '$.purchaseOrder.id' returning number) from po order by 1`

func TestPlanCacheInvalidation(t *testing.T) {
	t.Run("attach_imc", func(t *testing.T) {
		e := newPOEngine(t)
		r := mustExec(t, e, poIDQuery)
		if r.Rows[2][0].(jsondom.Number) != "3" {
			t.Fatalf("pre-attach rows = %v", r.Rows)
		}
		attachScaledIMC(t, e)
		r = mustExec(t, e, poIDQuery)
		if r.Rows[2][0].(jsondom.Number) != "30" {
			t.Fatalf("cached plan survived AttachIMC: rows = %v", r.Rows)
		}
		e.DetachIMC("po")
		r = mustExec(t, e, poIDQuery)
		if r.Rows[2][0].(jsondom.Number) != "3" {
			t.Fatalf("cached plan survived DetachIMC: rows = %v", r.Rows)
		}
	})

	t.Run("add_virtual_column", func(t *testing.T) {
		e := newPOEngine(t)
		mustExec(t, e, poIDQuery)
		inv0 := mPlanCacheInvalidations.Value()
		mustExec(t, e, `alter table po add virtual column jdoc$id as json_value(jdoc, '$.purchaseOrder.id' returning number)`)
		if mPlanCacheInvalidations.Value() == inv0 {
			t.Fatal("ALTER TABLE ADD VC did not invalidate")
		}
		// the re-planned query now routes through the VC and must still
		// be correct
		r := mustExec(t, e, poIDQuery)
		if len(r.Rows) != 3 || r.Rows[2][0].(jsondom.Number) != "3" {
			t.Fatalf("post-VC rows = %v", r.Rows)
		}
	})

	t.Run("create_search_index", func(t *testing.T) {
		e := newPOEngine(t)
		q := `select did from po where json_exists(jdoc, '$.purchaseOrder.foreign_id')`
		r := mustExec(t, e, q)
		if len(r.Rows) != 1 {
			t.Fatalf("pre-index rows = %v", r.Rows)
		}
		inv0 := mPlanCacheInvalidations.Value()
		mustExec(t, e, `create search index po_sx on po (jdoc) parameters ('DATAGUIDE ON')`)
		if mPlanCacheInvalidations.Value() == inv0 {
			t.Fatal("CREATE SEARCH INDEX did not invalidate")
		}
		r = mustExec(t, e, q)
		if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "3" {
			t.Fatalf("post-index rows = %v", r.Rows)
		}
	})

	t.Run("replace_view", func(t *testing.T) {
		e := newPOEngine(t)
		mustExec(t, e, `create view v1 as select did from po where did = 1`)
		r := mustExec(t, e, `select * from v1`)
		if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "1" {
			t.Fatalf("view v1 rows = %v", r.Rows)
		}
		mustExec(t, e, `create or replace view v1 as select did from po where did = 2`)
		r = mustExec(t, e, `select * from v1`)
		if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "2" {
			t.Fatalf("cached plan survived view replacement: rows = %v", r.Rows)
		}
	})

	t.Run("planner_flag", func(t *testing.T) {
		e := newPOEngine(t)
		mustExec(t, e, `alter table po add virtual column jdoc$id as json_value(jdoc, '$.purchaseOrder.id' returning number)`)
		mustExec(t, e, poIDQuery)
		// flipping a planner option makes the snapshot mismatch; the
		// cached plan must be rebuilt, not reused
		miss0 := mPlanCacheMisses.Value()
		e.Planner.DisableVCRewrite = true
		r := mustExec(t, e, poIDQuery)
		if len(r.Rows) != 3 || r.Rows[2][0].(jsondom.Number) != "3" {
			t.Fatalf("post-flip rows = %v", r.Rows)
		}
		if mPlanCacheMisses.Value() == miss0 {
			t.Fatal("planner flag flip did not force a rebuild")
		}
		e.Planner.DisableVCRewrite = false
	})
}

func TestPlanCacheSeesInserts(t *testing.T) {
	// DML does not bump the plan generation: cached plans re-derive
	// row postings at Open, so new rows must be visible through the
	// cache. An insert that crosses a power-of-two size bucket makes
	// the statistics fingerprint drift and forces one re-plan (counted
	// by sql.planner.cost.stats_drift); the next lookup hits again.
	e := newPOEngine(t)
	r := mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "3" {
		t.Fatalf("count = %v", r.Rows)
	}
	drift0 := mCostStatsDrift.Value()
	mustExec(t, e, `insert into po values (4, '{"purchaseOrder":{"id":4}}')`)
	r = mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "4" {
		t.Fatalf("count after insert = %v (cached plan missed the new row)", r.Rows)
	}
	if mCostStatsDrift.Value() == drift0 {
		t.Fatal("3 -> 4 rows crosses a size bucket; expected a stats-drift re-plan")
	}
	hits0 := mPlanCacheHits.Value()
	r = mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "4" {
		t.Fatalf("recount = %v", r.Rows)
	}
	if mPlanCacheHits.Value() == hits0 {
		t.Fatal("expected the recount to be a cache hit")
	}
}

func TestPreparedStmtBasics(t *testing.T) {
	e := newPOEngine(t)
	ps, err := e.Prepare(`select did from po where did = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Kind() != KindSelect || ps.SQL() == "" {
		t.Fatalf("kind=%v sql=%q", ps.Kind(), ps.SQL())
	}
	for want := 1; want <= 3; want++ {
		r, err := ps.Run(jsondom.NumberFromInt(int64(want)))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != jsondom.Number(fmt.Sprint(want)) {
			t.Fatalf("param %d rows = %v", want, r.Rows)
		}
	}
}

func TestPreparedStmtKindValidation(t *testing.T) {
	e := newPOEngine(t)
	sel, err := e.Prepare(`select did from po`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Exec(); err == nil || !strings.Contains(err.Error(), "cannot be run with Exec") {
		t.Fatalf("select via Exec: err = %v", err)
	}
	if _, err := sel.Query(); err != nil {
		t.Fatalf("select via Query: %v", err)
	}
	ins, err := e.Prepare(`insert into po values (?, '{"purchaseOrder":{"id":9}}')`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Kind() != KindDML {
		t.Fatalf("insert kind = %v", ins.Kind())
	}
	if _, err := ins.Query(jsondom.NumberFromInt(9)); err == nil || !strings.Contains(err.Error(), "cannot be run with Query") {
		t.Fatalf("insert via Query: err = %v", err)
	}
	if _, err := ins.Exec(jsondom.NumberFromInt(9)); err != nil {
		t.Fatalf("insert via Exec: %v", err)
	}
	r := mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "4" {
		t.Fatalf("count after prepared insert = %v", r.Rows)
	}
}

func TestPreparedStmtReplanAfterCatalogChange(t *testing.T) {
	e := newPOEngine(t)
	ps, err := e.Prepare(poIDQuery)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ps.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[2][0].(jsondom.Number) != "3" {
		t.Fatalf("pre-attach rows = %v", r.Rows)
	}
	attachScaledIMC(t, e)
	r, err = ps.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[2][0].(jsondom.Number) != "30" {
		t.Fatalf("prepared plan survived AttachIMC: rows = %v", r.Rows)
	}
}

func TestPlanCacheParamCountMismatch(t *testing.T) {
	// a cached zero-param plan must not serve an execution that passes
	// parameters; the engine's usual parameter semantics apply instead
	e := newPOEngine(t)
	mustExec(t, e, `select did from po where did = 1`)
	if _, err := e.Exec(`select did from po where did = ?`); err == nil {
		t.Fatal("missing bind parameter should fail")
	}
}

func TestPlanCacheConcurrentSharing(t *testing.T) {
	// one prepared statement and one cached plan hammered from many
	// goroutines: under -race this proves the compiled plan (including
	// shared pathengine.Compiled programs) is safe to share.
	e := newPOEngine(t)
	ps, err := e.Prepare(`select count(*) from po where json_value(jdoc, '$.purchaseOrder.id' returning number) = ?`)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `select did from po where did = 1`) // seed the cache
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				want := i%3 + 1
				r, err := ps.Run(jsondom.NumberFromInt(int64(want)))
				if err != nil {
					errc <- err
					return
				}
				if r.Rows[0][0].(jsondom.Number) != "1" {
					errc <- fmt.Errorf("prepared count = %v", r.Rows)
					return
				}
				r, err = e.Query(fmt.Sprintf(`select did from po where did = %d`, want))
				if err != nil {
					errc <- err
					return
				}
				if len(r.Rows) != 1 {
					errc <- fmt.Errorf("cached rows = %v", r.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestExplainPlanCacheStatus(t *testing.T) {
	e := newPOEngine(t)
	status := func(q string) string {
		r := mustExec(t, e, "explain "+q)
		for _, row := range r.Rows {
			line := string(row[0].(jsondom.String))
			if strings.HasPrefix(line, "plan cache: ") {
				return strings.TrimPrefix(line, "plan cache: ")
			}
		}
		return ""
	}
	q := `select did from po where did = 1`
	if got := status(q); got != "miss" {
		t.Fatalf("cold status = %q, want miss", got)
	}
	mustExec(t, e, q)
	if got := status(q); got != "hit" {
		t.Fatalf("warm status = %q, want hit", got)
	}
	mustExec(t, e, `create view inv_v as select did from po`)
	if got := status(q); got != "stale" {
		t.Fatalf("post-DDL status = %q, want stale", got)
	}
	e.SetPlanCacheSize(0)
	if got := status(q); got != "disabled" {
		t.Fatalf("disabled status = %q, want disabled", got)
	}
}

// hardParsesOf runs fn and returns how many hard parses it cost.
func hardParsesOf(fn func()) int64 {
	before := mHardParse.Value()
	fn()
	return mHardParse.Value() - before
}

// TestPlanCacheKeyKeepsStructure pins what the cache key abstracts: a
// JSON path, a LIMIT count and a JSON_TABLE column path are structure,
// so statements that differ there own an entry each and alternating
// between them compiles each once; a comparison literal is a bind, so
// statements that differ there share an entry. Before every execution
// EXPLAIN's cache-status probe must predict what Query then does.
func TestPlanCacheKeyKeepsStructure(t *testing.T) {
	e := newCorpusEngine(t, "text")
	e.Planner.fanout = 1
	run := func(q string) int64 {
		t.Helper()
		plan := explainPlan(t, e, "explain "+q)
		hit := strings.Contains(plan, "plan cache: hit")
		if !hit && !strings.Contains(plan, "plan cache: miss") {
			t.Fatalf("%s: no cache status in\n%s", q, plan)
		}
		hard := hardParsesOf(func() { mustExec(t, e, q) })
		if hit != (hard == 0) {
			t.Fatalf("%s: EXPLAIN said hit=%v, Query hard-parsed %d times", q, hit, hard)
		}
		return hard
	}
	for _, pair := range []struct {
		what    string
		a, b    string
		entries int
	}{
		{"a JSON_VALUE path",
			`select json_value(jdoc, '$.s') from d where did < 3`,
			`select json_value(jdoc, '$.g') from d where did < 3`, 2},
		{"a JSON_EXISTS path",
			`select count(*) from d where json_exists(jdoc, '$.n')`,
			`select count(*) from d where json_exists(jdoc, '$.addr.zip')`, 2},
		{"a LIMIT count",
			`select did from d order by did limit 2`,
			`select did from d order by did limit 3`, 2},
		{"an ORDER BY ordinal",
			`select did, vs from d where did < 30 order by 1`,
			`select did, vs from d where did < 30 order by 2`, 2},
		{"a JSON_TABLE column path",
			`select jt.x from d a, json_table(jdoc, '$.items[*]' columns (x varchar2(8) path '$.part')) jt where a.did < 3`,
			`select jt.x from d a, json_table(jdoc, '$.items[*]' columns (x varchar2(8) path '$.q')) jt where a.did < 3`, 2},
		{"a JSON_TABLE row path",
			`select count(*) from d a, json_table(jdoc, '$.items[*]' columns (x number path '$.q')) jt`,
			`select count(*) from d a, json_table(jdoc, '$.addr' columns (x number path '$.q')) jt`, 2},
		{"a comparison literal",
			`select did from d where vs = 's05' and did < 100`,
			`select did from d where vs = 's06' and did < 200`, 1},
	} {
		before := e.PlanCacheLen()
		ra, rb := fmt.Sprint(mustExec(t, e, pair.a).Rows), fmt.Sprint(mustExec(t, e, pair.b).Rows)
		if ra == rb {
			t.Fatalf("statements differing in %s return the same rows %s", pair.what, clip(ra))
		}
		if got := e.PlanCacheLen() - before; got != pair.entries {
			t.Errorf("statements differing in %s occupy %d entries, want %d", pair.what, got, pair.entries)
		}
		for i := 0; i < 3; i++ {
			if hard := run(pair.a) + run(pair.b); hard != 0 {
				t.Errorf("alternating statements differing in %s hard-parsed %d times", pair.what, hard)
			}
		}
		if got := fmt.Sprint(mustExec(t, e, pair.a).Rows); got != ra {
			t.Errorf("%s: rows changed between executions:\n  %s\n  %s", pair.a, clip(ra), clip(got))
		}
	}
}

// TestPlanCacheNoBenchRoundRobin: the eleven NOBENCH statements, six of
// which differ from another only in their paths, compile once each and
// then stay cached (they used to evict one another on every pass); and
// the benchmark's 512 ad-hoc point shapes, distinct by alias, are 512
// keys whose shape records go when their entries do.
func TestPlanCacheNoBenchRoundRobin(t *testing.T) {
	const docs = 60
	e := New()
	mustExec(t, e, `create table nobench (did number, jdoc varchar2(0) check (jdoc is json))`)
	for i := 0; i < docs; i++ {
		doc := jsontext.SerializeString(workload.GenNoBench(42, i))
		mustExec(t, e, `insert into nobench values (?, ?)`, jsondom.NumberFromInt(int64(i)), jsondom.String(doc))
	}
	queries := workload.NoBenchQueries("nobench", "jdoc", docs)
	hard := hardParsesOf(func() {
		for pass := 0; pass < 3; pass++ {
			for _, q := range queries {
				mustExec(t, e, q)
			}
		}
	})
	if hard != int64(len(queries)) || e.PlanCacheLen() != len(queries) {
		t.Fatalf("three passes over %d statements: %d hard parses, %d cached plans; want %d and %d",
			len(queries), hard, e.PlanCacheLen(), len(queries), len(queries))
	}

	adhoc := func(s int) string {
		return fmt.Sprintf(`select json_value(jdoc, '$.sparse_%03d') as s%03d from nobench where json_value(jdoc, '$.str1') = 'GBRDC%07d'`, s, s, s%docs)
	}
	e.SetPlanCacheSize(512)
	for s := 0; s < 512; s++ {
		mustExec(t, e, adhoc(s))
	}
	if n := e.PlanCacheLen(); n != 512 {
		t.Fatalf("512 ad-hoc shapes occupy %d keys", n)
	}
	e.SetPlanCacheSize(defaultPlanCacheSize)
	if n, shapes := e.PlanCacheLen(), len(e.plans.shapes); n != defaultPlanCacheSize || shapes != n {
		t.Fatalf("after shrinking: %d entries, %d shape records, want %d of each", n, shapes, defaultPlanCacheSize)
	}
	if hard := hardParsesOf(func() { mustExec(t, e, adhoc(511)) }); hard != 0 {
		t.Fatalf("the most recent shape was evicted (%d hard parses)", hard)
	}
}
