package sqlengine

// Tests for the cost-based planner layer (cost.go): statistics
// resolution through the IMC and DataGuide providers, conjunct
// ordering, access-path and join build-side decisions, SHOW STATS, the
// est-rows EXPLAIN annotations, and — most importantly — the corpus
// differential pinning that every cost-based decision is
// order-preserving: bit-for-bit the same rows with the planner on and
// off.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/jsondom"
)

// TestCostMetricsRegistered pins the new planner and DataGuide metric
// names in the default registry (the metriccheck contract: every
// metric documented in docs/OBSERVABILITY.md is registered exactly
// once and shows up in SHOW METRICS).
func TestCostMetricsRegistered(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `show metrics`)
	for _, name := range []string{
		"sql.planner.cost.conjunct_reorders",
		"sql.planner.cost.join_build_left",
		"sql.planner.cost.index_skips",
		"sql.planner.cost.stats_drift",
		"dataguide.stats.values_observed",
		"dataguide.stats.sketch_merges",
	} {
		if _, ok := metricValue(t, r, name); !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
}

// TestColumnStatsResolutionIMC checks the first provider in the chain:
// populated IMC vectors. The corpus d table has 1400 rows; vs is a
// 23-value string dictionary (exact NDV), vn is NULL on every 13th
// row.
func TestColumnStatsResolutionIMC(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	stmt, err := ParseStatement(`select did from d where vn > 0 and vs = 's07'`)
	if err != nil {
		t.Fatal(err)
	}
	cc := e.newCostCtx(stmt.(*SelectStmt))

	vs, ok := cc.columnEstimate(&ColRef{Name: "vs"})
	if !ok {
		t.Fatal("vs did not resolve through the IMC store")
	}
	if vs.rows != corpusDocs || vs.ndv != 23 || vs.nonNull != corpusDocs {
		t.Fatalf("vs stats = %+v, want rows=%d ndv=23", vs, corpusDocs)
	}

	vn, ok := cc.columnEstimate(&ColRef{Name: "vn"})
	if !ok {
		t.Fatal("vn did not resolve through the IMC store")
	}
	wantNulls := float64((corpusDocs + 12) / 13) // every 13th doc lacks $.n
	if vn.rows != corpusDocs || vn.rows-vn.nonNull != wantNulls {
		t.Fatalf("vn stats = %+v, want rows=%d nulls=%g", vn, corpusDocs, wantNulls)
	}
	if !vn.hasNum || vn.minN != 1 || vn.maxN != corpusDocs-1 {
		t.Fatalf("vn min/max = %+v, want [1, %d]", vn, corpusDocs-1)
	}
	// HLL NDV of 1292 distinct values must land within the sketch's
	// error bounds
	if math.Abs(vn.ndv-vn.nonNull)/vn.nonNull > 0.05 {
		t.Fatalf("vn ndv = %g, want within 5%% of %g", vn.ndv, vn.nonNull)
	}
}

// TestPathStatsResolutionGuide checks the second provider: DataGuide
// entries of a value-indexing search index, reached both through a raw
// JSON_VALUE predicate and through a virtual column's recorded
// expression text.
func TestPathStatsResolutionGuide(t *testing.T) {
	e := New()
	mustExec(t, e, `create table g (id number primary key, jdoc varchar2(4000) check (jdoc is json))`)
	for i := 0; i < 500; i++ {
		doc := fmt.Sprintf(`{"u":%d}`, i%50)
		if i%5 != 0 {
			doc = fmt.Sprintf(`{"u":%d,"h":%d}`, i%50, i%200)
		}
		mustExec(t, e, `insert into g values (?, ?)`,
			jsondom.NumberFromInt(int64(i)), jsondom.String(doc))
	}
	mustExec(t, e, `create search index gix on g (jdoc) parameters ('DATAGUIDE ON')`)
	mustExec(t, e, `alter table g add virtual column vu as json_value(jdoc, '$.u' returning number)`)

	stmt, err := ParseStatement(`select id from g where json_value(jdoc, '$.h' returning number) > 0`)
	if err != nil {
		t.Fatal(err)
	}
	cc := e.newCostCtx(stmt.(*SelectStmt))

	h, ok := cc.resolvePath("g", "$.h")
	if !ok {
		t.Fatal("$.h did not resolve through the DataGuide")
	}
	if h.rows != 500 || h.nonNull != 400 {
		t.Fatalf("$.h stats = %+v, want rows=500 nonnull=400", h)
	}
	if !h.hasNum || h.minN != 1 || h.maxN != 199 {
		t.Fatalf("$.h min/max = %+v, want [1, 199]", h)
	}

	// the virtual column resolves to the same path statistics
	vu, ok := cc.columnEstimate(&ColRef{Name: "vu"})
	if !ok {
		t.Fatal("vu did not resolve through its VC expression text")
	}
	if vu.rows != 500 || vu.nonNull != 500 {
		t.Fatalf("vu stats = %+v, want rows=500 nonnull=500", vu)
	}
	if math.Abs(vu.ndv-50)/50 > 0.05 {
		t.Fatalf("vu ndv = %g, want within 5%% of 50", vu.ndv)
	}

	// JSON_EXISTS selectivity is path frequency over documents
	if s, ok := cc.existsSel(&JSONExistsExpr{Arg: &ColRef{Name: "jdoc"}, PathText: "$.h"}); !ok || math.Abs(s-0.8) > 1e-9 {
		t.Fatalf("existsSel($.h) = %v ok=%v, want 0.8", s, ok)
	}
}

// TestConjunctOrderingBySelectivity: a dictionary equality (sel ~
// 1/23) must sort ahead of a wide numeric range (sel ~ 0.93), and
// re-running the ordering is a fixpoint (deterministic plans).
func TestConjunctOrderingBySelectivity(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	stmt, err := ParseStatement(`select did from d where vn >= 100 and vs = 's07'`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	cc := e.newCostCtx(sel)
	conjs := splitAnd(sel.Where)
	if len(conjs) != 2 {
		t.Fatalf("want 2 conjuncts, got %d", len(conjs))
	}
	ordered, changed := cc.orderConjuncts(conjs)
	if !changed {
		t.Fatal("expected the selective equality to move ahead of the range")
	}
	if b, ok := ordered[0].(*BinOp); !ok || b.Op != "=" {
		t.Fatalf("ordered[0] = %T %v, want the vs = 's07' equality", ordered[0], ordered[0])
	}
	again, changed2 := cc.orderConjuncts(ordered)
	if changed2 || again[0] != ordered[0] || again[1] != ordered[1] {
		t.Fatal("ordering is not a fixpoint")
	}
}

// TestExplainEstRowsAccuracy reads est-rows off EXPLAIN over the
// corpus dataset and checks the headline numbers: the scan estimate is
// the table size and the filter estimate is within a small factor of
// the true count (dictionary equality: 1400/23 ~ 61).
func TestExplainEstRowsAccuracy(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	// keep a plain Filter over TableScan: no vector kernels pushed into
	// the scan, and no parallel scan absorbing the filter on a
	// multi-core machine
	e.Planner.DisableVectorFilter = true
	e.Planner.fanout = 1
	r := mustExec(t, e, `explain select did from d where vs = 's07' and vn >= 0`)
	var scanEst, filterEst int64
	for _, row := range r.Rows {
		line := string(row[0].(jsondom.String))
		if n, ok := parseEstRows(line); ok {
			switch {
			case strings.Contains(line, "TableScan"):
				scanEst = n
			case strings.Contains(strings.TrimSpace(line), "Filter"):
				filterEst = n
			}
		}
	}
	if scanEst != corpusDocs {
		t.Fatalf("TableScan est-rows = %d, want %d", scanEst, corpusDocs)
	}
	if filterEst < 30 || filterEst > 120 {
		t.Fatalf("Filter est-rows = %d, want near 1400/23", filterEst)
	}
}

// parseEstRows extracts the est-rows annotation from one EXPLAIN line.
func parseEstRows(line string) (int64, bool) {
	i := strings.Index(line, "(est-rows=")
	if i < 0 {
		return 0, false
	}
	rest := line[i+len("(est-rows="):]
	j := strings.IndexByte(rest, ')')
	if j < 0 {
		return 0, false
	}
	var n int64
	if _, err := fmt.Sscanf(rest[:j], "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// TestJoinBuildSide: with the 30-row lookup table on the left of the
// join, the cost model must flip the hash build to the left side —
// visibly in EXPLAIN — and return exactly the rows of the same join
// written with the small table on the right, where no flip is needed.
func TestJoinBuildSide(t *testing.T) {
	const q = `select l.lid, a.did from lk l join d a on l.vk = a.vs where a.did < 200 order by l.lid, a.did`
	const swapped = `select l.lid, a.did from d a join lk l on l.vk = a.vs where a.did < 200 order by l.lid, a.did`
	// lk.vk and d.vs are string vectors of different tables (no shared
	// dictionary), so the generic hash join runs, not the code-space one
	e := newCorpusEngine(t, "oson-imc")
	explain := func(sql string) string {
		plan := ""
		for _, row := range mustExec(t, e, `explain `+sql).Rows {
			plan += string(row[0].(jsondom.String)) + "\n"
		}
		return plan
	}
	if plan := explain(q); !strings.Contains(plan, "build=left") {
		t.Fatalf("expected a left build side with |lk|=30 vs |d|=1400:\n%s", plan)
	}
	if plan := explain(swapped); strings.Contains(plan, "build=left") {
		t.Fatalf("the small table on the right must keep the right build side:\n%s", plan)
	}
	got, want := fmt.Sprint(mustExec(t, e, q).Rows), fmt.Sprint(mustExec(t, e, swapped).Rows)
	if got != want {
		t.Fatalf("build-left join diverges from build-right:\n  got  %s\n  want %s", clip(got), clip(want))
	}
}

// TestShowStatsOptimizerRows checks the SHOW STATS extension rows: the
// metrics rows first (superset of SHOW METRICS), then per-table row
// counts, DataGuide per-path statistics, and IMC column statistics.
func TestShowStatsOptimizerRows(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	mustExec(t, e, `create search index dix on d (jdoc) parameters ('DATAGUIDE ON')`)
	r := mustExec(t, e, `show stats`)
	if _, ok := metricValue(t, r, "sql.query.started"); !ok {
		t.Fatal("SHOW STATS lost the SHOW METRICS rows")
	}
	for name, want := range map[string]int64{
		"optimizer.d.rows":       corpusDocs,
		"optimizer.lk.rows":      corpusLookups,
		"optimizer.d.guide.docs": corpusDocs,
		"optimizer.d.imc.vs.ndv": 23,
	} {
		if v, ok := metricValue(t, r, name); !ok || v != want {
			t.Errorf("%s = %d (present=%v), want %d", name, v, ok, want)
		}
	}
	freq, ok := metricValue(t, r, "optimizer.d.path.$.s.frequency")
	if !ok || freq != corpusDocs {
		t.Errorf("optimizer.d.path.$.s.frequency = %d (present=%v), want %d", freq, ok, corpusDocs)
	}
}

// skewedDoc builds the skewed-selectivity benchmark document: $.u is a
// 1000-value key (equality keeps ~0.1%), $.h is uniform over [0,1000)
// (>= 100 keeps ~90%).
func skewedDoc(i int) string {
	return fmt.Sprintf(`{"u":%d,"h":%d,"pad":"%060d"}`, i%1000, (i*7)%1000, i)
}

// newSkewedEngine builds the benchmark table with a value-indexing
// DataGuide search index, so both predicates resolve real statistics.
func newSkewedEngine(tb testing.TB, docs int) *Engine {
	tb.Helper()
	e := New()
	if _, err := e.Exec(`create table sk (id number primary key, jdoc varchar2(4000) check (jdoc is json))`); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Exec(`create search index skix on sk (jdoc) parameters ('DATAGUIDE ON')`); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		if _, err := e.Exec(`insert into sk values (?, ?)`,
			jsondom.NumberFromInt(int64(i)), jsondom.String(skewedDoc(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// skewedQuery writes the unselective conjunct first: evaluated as
// written, $.h >= 100 (90% pass) runs against every row before the $.u
// equality (0.1% pass); the cost-based planner flips them (1.5-1.7x,
// EXPERIMENTS.md "Cost-based planner ablation"). skewedQueryBestFirst
// is the same predicate in the order the planner should arrive at.
const (
	skewedQuery          = `select id from sk where json_value(jdoc, '$.h' returning number) >= 100 and json_value(jdoc, '$.u' returning number) = 100 order by id`
	skewedQueryBestFirst = `select id from sk where json_value(jdoc, '$.u' returning number) = 100 and json_value(jdoc, '$.h' returning number) >= 100 order by id`
)

// TestSkewedConjunctReorder pins the reorder itself: planning the
// skewed query (EXPLAIN plans it) moves the counter, planning the
// best-first spelling does not, and both return the same rows.
func TestSkewedConjunctReorder(t *testing.T) {
	e := newSkewedEngine(t, 2000)
	re0 := mCostReorders.Value()
	mustExec(t, e, `explain `+skewedQueryBestFirst)
	if mCostReorders.Value() != re0 {
		t.Fatal("the best-first spelling must not be reordered")
	}
	mustExec(t, e, `explain `+skewedQuery)
	if mCostReorders.Value() == re0 {
		t.Fatal("expected a conjunct reorder on the skewed query")
	}
	got, want := fmt.Sprint(mustExec(t, e, skewedQuery).Rows), fmt.Sprint(mustExec(t, e, skewedQueryBestFirst).Rows)
	if got != want {
		t.Fatalf("reorder changed the result:\n  worst-first %s\n  best-first  %s", clip(got), clip(want))
	}
	if got == "[]" {
		t.Fatal("skewed query returned no rows; the reorder would be measured on nothing")
	}
}
