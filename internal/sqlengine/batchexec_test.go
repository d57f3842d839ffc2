package sqlengine

// Differential tests for the batch execution spine: every query must
// return bit-for-bit identical rows under batch execution, row-at-a-time
// execution, and (where applicable) parallel scans, across the grouped
// aggregation fast path, the code-space hash-join fast path, sorting,
// and LIMIT budget pushdown. Also covers the EXPLAIN ANALYZE fast-path
// stat lines, the sql.batch.* / imc.dictprobe.* metrics, and prepared
// statements whose cloned plans must keep their batch flags.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/imc"
	"repro/internal/jsondom"
)

// attachIMC populates the named virtual columns of a table into a
// fresh in-memory columnar store and attaches it.
func attachIMC(t *testing.T, e *Engine, table string, vcs ...string) {
	t.Helper()
	tab, ok := e.Catalog().Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	mem := imc.NewStore(tab)
	for _, vc := range vcs {
		if err := mem.PopulateVC(vc); err != nil {
			t.Fatal(err)
		}
	}
	e.AttachIMC(table, mem)
}

// newJoinEngine builds two IMC-backed tables for join fast-path tests:
// orders (600 rows; vk = i mod 37, absent when i mod 11 == 0, so the
// key vector carries NULLs) and custs (50 rows; vid 0..49, ids 37..49
// match no order — probe-side misses).
func newJoinEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table orders (oid number, jdoc varchar2(0) check (jdoc is json))`)
	ins, err := e.Prepare(`insert into orders values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		doc := fmt.Sprintf(`{"k":%d,"amt":%d,"tag":"g%02d"}`, i%37, i, i%5)
		if i%11 == 0 {
			doc = fmt.Sprintf(`{"amt":%d,"tag":"g%02d"}`, i, i%5)
		}
		if _, err := ins.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(doc)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `create table custs (cid number, jdoc varchar2(0) check (jdoc is json))`)
	insC, err := e.Prepare(`insert into custs values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		doc := fmt.Sprintf(`{"id":%d,"name":"c%02d"}`, i, i)
		if _, err := insC.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(doc)); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `alter table orders add virtual column vk as json_value(jdoc, '$.k' returning number)`)
	mustExec(t, e, `alter table orders add virtual column vamt as json_value(jdoc, '$.amt' returning number)`)
	mustExec(t, e, `alter table custs add virtual column vid as json_value(jdoc, '$.id' returning number)`)
	mustExec(t, e, `alter table custs add virtual column vname as json_value(jdoc, '$.name')`)
	attachIMC(t, e, "orders", "vk", "vamt")
	attachIMC(t, e, "custs", "vid", "vname")
	return e
}

// batchExecModes is the planner matrix every differential query runs
// under; the first entry (full batch execution) is the reference.
type plannerMode struct {
	label string
	set   func(*PlannerOptions)
}

func batchExecModes() []plannerMode {
	return []plannerMode{
		{"batch-serial", func(p *PlannerOptions) { p.DisableParallelScan = true }},
		{"row-serial", func(p *PlannerOptions) {
			p.DisableParallelScan = true
			p.DisableBatchExec = true
		}},
		{"row-serial-novec", func(p *PlannerOptions) {
			p.DisableParallelScan = true
			p.DisableBatchExec = true
			p.DisableVectorizedScan = true
			p.DisableVectorFilter = true
			p.DisableVCRewrite = true
		}},
		{"batch-parallel", func(p *PlannerOptions) { p.ParallelMinRows = 1; p.ParallelDegree = 3 }},
		{"row-parallel", func(p *PlannerOptions) {
			p.ParallelMinRows = 1
			p.ParallelDegree = 3
			p.DisableBatchExec = true
		}},
	}
}

// runDifferential executes the query set under every planner mode and
// requires identical result sets.
func runDifferential(t *testing.T, e *Engine, queries []string) {
	t.Helper()
	modes := batchExecModes()
	results := make([][]string, len(modes))
	for mi, m := range modes {
		e.Planner = PlannerOptions{}
		m.set(&e.Planner)
		for _, q := range queries {
			r := mustExec(t, e, q)
			results[mi] = append(results[mi], fmt.Sprint(r.Rows))
		}
	}
	for mi := 1; mi < len(modes); mi++ {
		for qi, q := range queries {
			if results[0][qi] != results[mi][qi] {
				t.Errorf("%s diverges from %s on %s:\n  %s\nvs\n  %s",
					modes[mi].label, modes[0].label, q,
					clip(results[mi][qi]), clip(results[0][qi]))
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

// TestBatchAggDifferential: grouped aggregation over the batch spine —
// the dict-code fast path (string key), the float-bits fast path
// (numeric key with an all-null chunk), declined shapes that take the
// generic batch build, and aggregate NULL semantics.
func TestBatchAggDifferential(t *testing.T) {
	e := newBatchEngine(t)
	runDifferential(t, e, []string{
		// dict-code key; aggregates over a vector with a 1024-row null stretch
		`select vs, count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from t group by vs order by vs`,
		// string min/max resolved in code space (sorted dictionary)
		`select vs, min(vs), max(vs) from t group by vs order by vs`,
		// float-bits key: the NULL group collects the whole second chunk
		`select vn, count(*) from t group by vn order by vn`,
		// vector filter below the aggregation: bitmap-driven id iteration
		`select vs, count(*) from t where vn between 100 and 2200 group by vs order by vs`,
		// non-column group key declines the fast path -> generic batch build
		`select mod(did, 3), count(*) from t group by mod(did, 3) order by mod(did, 3)`,
		// non-vector aggregate argument declines the fast path
		`select vs, sum(did) from t group by vs order by vs`,
		// residual predicate the scan cannot decide pre-materialization
		`select vs, count(*) from t where mod(did, 2) = 0 group by vs order by vs`,
		// implicit group (no GROUP BY) stays on the generic path
		`select count(*), sum(vn), min(vs) from t`,
		// all-null input for an aggregate: sum/min/max yield NULL
		`select vs, sum(vn) from t where vn is null group by vs order by vs`,
	})
}

// TestBatchSortLimitDifferential: ORDER BY materialization through
// batch pulls and the LIMIT budget threading into batch production.
func TestBatchSortLimitDifferential(t *testing.T) {
	e := newBatchEngine(t)
	runDifferential(t, e, []string{
		`select did, vn from t where vn between 50 and 2400 order by vn desc limit 25`,
		`select vs, did from t order by vs, did limit 40`,
		`select did from t order by did limit 7`,
		// limit larger than the result
		`select did from t where vn < 30 order by did limit 500`,
		// limit 0
		`select did from t order by did limit 0`,
		// offset-free deep sort over all chunks
		`select did from t order by vs desc, vn desc limit 10`,
	})
}

// TestBatchJoinDifferential: the code-space hash join. Numeric keys
// across two tables (probe misses on ids 37..49, NULL build keys on
// every 11th order), inner and left-outer, with and without residuals.
func TestBatchJoinDifferential(t *testing.T) {
	e := newJoinEngine(t)
	runDifferential(t, e, []string{
		`select c.cid, o.oid from custs c join orders o on c.vid = o.vk order by c.cid, o.oid`,
		`select c.cid, o.oid from custs c left join orders o on c.vid = o.vk order by c.cid, o.oid`,
		// residual on the combined row
		`select c.cid, o.oid from custs c join orders o on c.vid = o.vk and o.vamt > 300 order by c.cid, o.oid`,
		`select c.cid, o.oid from custs c left join orders o on c.vid = o.vk and o.vamt > 400 order by c.cid, o.oid`,
		// join output feeding aggregation and sort
		`select c.cid, count(*) from custs c join orders o on c.vid = o.vk group by c.cid order by c.cid`,
		// non-vector key (expression) declines the fast path
		`select c.cid, o.oid from custs c join orders o on c.vid = mod(o.oid, 37) order by c.cid, o.oid limit 50`,
	})
}

// TestBatchStringSelfJoinDifferential: string keys share one dictionary
// only within a table, so the dict-code probe triggers on a self-join;
// deleting every 'w003' row afterwards exercises deleted-row filtering
// in id-only iteration on both sides.
func TestBatchStringSelfJoinDifferential(t *testing.T) {
	e := newBatchEngine(t)
	queries := []string{
		`select a.did, b.did from t a join t b on a.vs = b.vs and b.did < 15 where a.did < 6 order by a.did, b.did`,
		`select a.vs, count(*) from t a join t b on a.vs = b.vs and b.did < 10 group by a.vs order by a.vs`,
	}
	runDifferential(t, e, queries)
	mustExec(t, e, `delete from t where vs = 'w003'`)
	runDifferential(t, e, queries)
}

// TestBatchExplainAnalyzeFastPaths asserts the fast paths actually
// engaged and report their EXPLAIN ANALYZE stat lines.
func TestBatchExplainAnalyzeFastPaths(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner.DisableParallelScan = true

	plan := explainPlan(t, e, `explain analyze select vs, count(*), sum(vn) from t group by vs`)
	if !strings.Contains(plan, "agg-fast: key=dict-codes") {
		t.Errorf("grouped aggregation did not take the dict-code fast path:\n%s", plan)
	}
	plan = explainPlan(t, e, `explain analyze select vn, count(*) from t group by vn`)
	if !strings.Contains(plan, "agg-fast: key=float-bits") {
		t.Errorf("numeric grouping did not take the float-bits fast path:\n%s", plan)
	}

	je := newJoinEngine(t)
	je.Planner.DisableParallelScan = true
	plan = explainPlan(t, je, `explain analyze select c.cid, o.oid from custs c join orders o on c.vid = o.vk`)
	if !strings.Contains(plan, "dictprobe: key=float-bits") {
		t.Errorf("hash join did not take the code-space probe path:\n%s", plan)
	}
	plan = explainPlan(t, e, `explain analyze select a.did from t a join t b on a.vs = b.vs where a.did < 3`)
	if !strings.Contains(plan, "dictprobe: key=dict-codes") {
		t.Errorf("string self-join did not probe in code space:\n%s", plan)
	}

	// the ablation flag really disables the spine
	e.Planner.DisableBatchExec = true
	plan = explainPlan(t, e, `explain analyze select vs, count(*) from t group by vs`)
	if strings.Contains(plan, "agg-fast") {
		t.Errorf("DisableBatchExec left the aggregation fast path on:\n%s", plan)
	}
}

func explainPlan(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	r := mustExec(t, e, sql)
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(string(row[0].(jsondom.String)))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBatchExecMetrics: sql.batch.* and imc.dictprobe.* advance when
// the spine runs.
func TestBatchExecMetrics(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner.DisableParallelScan = true
	before := mustExec(t, e, `show metrics`)
	batches0, _ := metricValue(t, before, "sql.batch.batches")
	rows0, _ := metricValue(t, before, "sql.batch.rows")
	agg0, _ := metricValue(t, before, "sql.batch.agg_rows")

	r := mustExec(t, e, `select did from t where vn between 100 and 500`)
	if len(r.Rows) != 401 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	r = mustExec(t, e, `select vs, count(*) from t group by vs`)
	if len(r.Rows) != 7 {
		t.Fatalf("groups = %d", len(r.Rows))
	}

	after := mustExec(t, e, `show metrics`)
	batches1, ok := metricValue(t, after, "sql.batch.batches")
	if !ok || batches1 <= batches0 {
		t.Errorf("sql.batch.batches did not advance: %d -> %d", batches0, batches1)
	}
	rows1, _ := metricValue(t, after, "sql.batch.rows")
	if rows1 < rows0+401 {
		t.Errorf("sql.batch.rows advanced only %d -> %d", rows0, rows1)
	}
	agg1, _ := metricValue(t, after, "sql.batch.agg_rows")
	if agg1 < agg0+2600 {
		t.Errorf("sql.batch.agg_rows advanced only %d -> %d (want +2600)", agg0, agg1)
	}

	je := newJoinEngine(t)
	je.Planner.DisableParallelScan = true
	jb := mustExec(t, je, `show metrics`)
	builds0, _ := metricValue(t, jb, "imc.dictprobe.builds")
	probe0, _ := metricValue(t, jb, "imc.dictprobe.rows")
	mustExec(t, je, `select c.cid, o.oid from custs c join orders o on c.vid = o.vk`)
	ja := mustExec(t, je, `show metrics`)
	builds1, _ := metricValue(t, ja, "imc.dictprobe.builds")
	if builds1 != builds0+1 {
		t.Errorf("imc.dictprobe.builds = %d, want %d", builds1, builds0+1)
	}
	probe1, _ := metricValue(t, ja, "imc.dictprobe.rows")
	if probe1 != probe0+50 {
		t.Errorf("imc.dictprobe.rows advanced %d -> %d, want +50", probe0, probe1)
	}
}

// TestBatchExecPrepared: cloned plans from the plan cache keep their
// batch flags, and bind parameters feeding the scan below a fast-path
// aggregation are resolved at Open, per execution.
func TestBatchExecPrepared(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner.DisableParallelScan = true
	ps, err := e.Prepare(`select vs, count(*) from t where vn between ? and ? group by vs order by vs`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(lo, hi int64) string {
		r, err := ps.Run(jsondom.NumberFromInt(lo), jsondom.NumberFromInt(hi))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r.Rows)
	}
	// same prepared plan, three bindings; compare each against a fresh
	// row-at-a-time execution of the same query
	for _, c := range [][2]int64{{0, 500}, {2048, 2599}, {700, 600}} {
		got := run(c[0], c[1])
		e.Planner.DisableBatchExec = true
		want := fmt.Sprint(mustExec(t, e,
			fmt.Sprintf(`select vs, count(*) from t where vn between %d and %d group by vs order by vs`, c[0], c[1])).Rows)
		e.Planner.DisableBatchExec = false
		if got != want {
			t.Errorf("prepared [%d,%d]: %s, want %s", c[0], c[1], clip(got), clip(want))
		}
	}

	// executing the same SQL twice: the second run instantiates from the
	// plan cache and must still take the fast path
	mustExec(t, e, `select vn, count(*) from t group by vn`)
	plan := explainPlan(t, e, `explain analyze select vn, count(*) from t group by vn`)
	if !strings.Contains(plan, "agg-fast") {
		t.Errorf("cache-instantiated plan lost the fast path:\n%s", plan)
	}
}

// TestKeyRenderAppend pins the append form of the rendered-key encoder
// to keyRender: the aggregation/join builders build keys through
// keyRenderAppend into reused buffers, and any byte divergence from
// keyRender would silently change grouping.
func TestKeyRenderAppend(t *testing.T) {
	vals := []jsondom.Value{
		jsondom.Null{},
		jsondom.String(""),
		jsondom.String("abc"),
		jsondom.String("\x00weird"),
		jsondom.Bool(true),
		jsondom.Bool(false),
		jsondom.MustNumber("1"),
		jsondom.MustNumber("1.0"), // must collide with Double(1)
		jsondom.Double(1),
		jsondom.Double(-2.5),
		jsondom.Double(1e300), // exponent canonicalization branch
		jsondom.NewObject(),   // no numeric form: the "x" bucket
	}
	var buf []byte
	for _, v := range vals {
		want := keyRender(v) + "\x00"
		buf = keyRenderAppend(buf[:0], v)
		if string(buf) != want {
			t.Errorf("keyRenderAppend(%v) = %q, want %q", v, buf, want)
		}
	}
	// multi-column keys concatenate in place
	buf = buf[:0]
	for _, v := range vals {
		buf = keyRenderAppend(buf, v)
	}
	want := ""
	for _, v := range vals {
		want += keyRender(v) + "\x00"
	}
	if string(buf) != want {
		t.Errorf("concatenated keys diverge: %q vs %q", buf, want)
	}
	if keyRender(jsondom.MustNumber("1.0")) != keyRender(jsondom.Double(1)) {
		t.Error("1.0 and Double(1) should share a group key")
	}
}
