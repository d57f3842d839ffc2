package sqlengine

// Tests for the code-space fast paths of the execution spine: the
// EXPLAIN ANALYZE fast-path stat lines, the sql.batch.* /
// imc.dictprobe.* metrics, and prepared statements whose cloned plans
// must keep taking them. The differential query lists that used to
// live here (aggregation, sort/LIMIT, joins, string self-joins) are
// corpus cases now (testdata/corpus/spine.sql), checked against
// digests frozen from the row-at-a-time reference.

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

// joinOrders / joinCusts size the join fixture pair.
const joinOrders, joinCusts = 600, 50

// joinOrderDoc renders order i: k = i mod 37, absent when i mod 11 == 0,
// so the key vector carries NULLs.
func joinOrderDoc(i int) string {
	if i%11 == 0 {
		return fmt.Sprintf(`{"amt":%d,"tag":"g%02d"}`, i, i%5)
	}
	return fmt.Sprintf(`{"k":%d,"amt":%d,"tag":"g%02d"}`, i%37, i, i%5)
}

// joinCustDoc renders customer i: ids 37..49 match no order —
// probe-side misses.
func joinCustDoc(i int) string {
	return fmt.Sprintf(`{"id":%d,"name":"c%02d"}`, i, i)
}

// newJoinEngine builds the two IMC-backed tables for join fast-path
// tests, orders (joinOrderDoc) and custs (joinCustDoc), as JSON text.
func newJoinEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table orders (oid number, jdoc varchar2(0) check (jdoc is json))`)
	ins, err := e.Prepare(`insert into orders values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < joinOrders; i++ {
		if _, err := ins.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(joinOrderDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `create table custs (cid number, jdoc varchar2(0) check (jdoc is json))`)
	insC, err := e.Prepare(`insert into custs values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < joinCusts; i++ {
		if _, err := insC.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(joinCustDoc(i))); err != nil {
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

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

// TestBatchExplainAnalyzeFastPaths asserts the fast paths actually
// engaged and report their EXPLAIN ANALYZE stat lines.
func TestBatchExplainAnalyzeFastPaths(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner.fanout = 1

	plan := explainPlan(t, e, `explain analyze select vs, count(*), sum(vn) from t group by vs`)
	if !strings.Contains(plan, "agg-fast: key=dict-codes") {
		t.Errorf("grouped aggregation did not take the dict-code fast path:\n%s", plan)
	}
	plan = explainPlan(t, e, `explain analyze select vn, count(*) from t group by vn`)
	if !strings.Contains(plan, "agg-fast: key=float-bits") {
		t.Errorf("numeric grouping did not take the float-bits fast path:\n%s", plan)
	}

	je := newJoinEngine(t)
	je.Planner.fanout = 1
	plan = explainPlan(t, je, `explain analyze select c.cid, o.oid from custs c join orders o on c.vid = o.vk`)
	if !strings.Contains(plan, "dictprobe: key=float-bits") {
		t.Errorf("hash join did not take the code-space probe path:\n%s", plan)
	}
	plan = explainPlan(t, e, `explain analyze select a.did from t a join t b on a.vs = b.vs where a.did < 3`)
	if !strings.Contains(plan, "dictprobe: key=dict-codes") {
		t.Errorf("string self-join did not probe in code space:\n%s", plan)
	}
}

func explainPlan(t *testing.T, e *Engine, sql string, params ...jsondom.Value) string {
	t.Helper()
	r := mustExec(t, e, sql, params...)
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
	e.Planner.fanout = 1
	before := mustExec(t, e, `show metrics`)
	batches0, _ := metricValue(t, before, "sql.batch.batches")
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
	agg1, _ := metricValue(t, after, "sql.batch.agg_rows")
	if agg1 < agg0+2600 {
		t.Errorf("sql.batch.agg_rows advanced only %d -> %d (want +2600)", agg0, agg1)
	}

	je := newJoinEngine(t)
	je.Planner.fanout = 1
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

// TestBatchExecPrepared: bind parameters feeding the scan below a
// fast-path aggregation are resolved at Open, per execution, and plans
// instantiated from the cache still take the fast path.
func TestBatchExecPrepared(t *testing.T) {
	e := newBatchEngine(t)
	e.Planner.fanout = 1
	ps, err := e.Prepare(`select vs, count(*) from t where vn between ? and ? group by vs order by vs`)
	if err != nil {
		t.Fatal(err)
	}
	// same prepared plan, three bindings; each must land on the digest
	// of the corpus case that spells the same bounds as literals
	for _, c := range []struct {
		lo, hi int64
		corpus string
	}{{0, 500, "agg_bound_0_500"}, {2048, 2599, "agg_bound_null_chunk_edge"}, {700, 600, "agg_bound_reversed"}} {
		r, err := ps.Run(jsondom.NumberFromInt(c.lo), jsondom.NumberFromInt(c.hi))
		if err != nil {
			t.Fatal(err)
		}
		if rowsDigest(r.Rows) != corpusDigest(t, "spine.sql", c.corpus) {
			t.Errorf("prepared [%d,%d] diverges from corpus case %s: %s", c.lo, c.hi, c.corpus, clip(fmt.Sprint(r.Rows)))
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
