package sqlengine

// End-to-end tests for the batch-vectorized IMC scan path: kernels
// bound at Open from prepared-statement parameters, EXPLAIN ANALYZE
// chunk statistics, and the imc.scan.* / imc.bytes.* metrics. The
// differential query list that used to live here (NULL stretch,
// reversed bounds, dictionary misses, type mismatch, bind at Open) is
// in testdata/corpus/spine.sql, checked against digests frozen from the
// unoptimized row-at-a-time plan.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/imc"
	"repro/internal/jsondom"
)

// batchDocs is the size of the batch-spine fixture table t: three
// chunks, the trailing one partial.
const batchDocs = 2*imc.ChunkSize + 552

// batchDoc renders document i of t. The second chunk (rows 1024..2047)
// has no "n" member at all, so the number vector carries an all-null
// chunk that zone maps can skip wholesale.
func batchDoc(i int) string {
	if i >= imc.ChunkSize && i < 2*imc.ChunkSize {
		return fmt.Sprintf(`{"s":"w%03d"}`, i%7)
	}
	return fmt.Sprintf(`{"n":%d,"s":"w%03d"}`, i, i%7)
}

// newBatchEngine loads t (batchDoc) as JSON text with a number VC and a
// string VC, both populated into an attached IMC store — the same table
// the corpus engines carry, so corpus digests apply to it.
func newBatchEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table t (did number, jdoc varchar2(0) check (jdoc is json))`)
	ins, err := e.Prepare(`insert into t values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batchDocs; i++ {
		if _, err := ins.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(batchDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `alter table t add virtual column vn as json_value(jdoc, '$.n' returning number)`)
	mustExec(t, e, `alter table t add virtual column vs as json_value(jdoc, '$.s')`)
	tab, _ := e.Catalog().Table("t")
	mem := imc.NewStore(tab)
	if err := mem.PopulateVC("vn"); err != nil {
		t.Fatal(err)
	}
	if err := mem.PopulateVC("vs"); err != nil {
		t.Fatal(err)
	}
	e.AttachIMC("t", mem)
	return e
}

// TestVectorizedBatchPrepared proves a cached plan compiled before any
// parameter exists still builds its kernels at Open from the bound
// values, and that re-running with different parameters rebinds.
func TestVectorizedBatchPrepared(t *testing.T) {
	e := newBatchEngine(t)
	ps, err := e.Prepare(`select count(*) from t where vn between ? and ?`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi int64
		want   string
	}{
		{100, 199, "100"},
		{199, 100, "0"}, // reversed bounds bound at Open
		{2500, 9999, "100"},
	}
	for _, c := range cases {
		r, err := ps.Run(jsondom.NumberFromInt(c.lo), jsondom.NumberFromInt(c.hi))
		if err != nil {
			t.Fatal(err)
		}
		if got := string(r.Rows[0][0].(jsondom.Number)); got != c.want {
			t.Errorf("between %d and %d: count = %s, want %s", c.lo, c.hi, got, c.want)
		}
	}
	// the bound form of a corpus case returns that case's rows
	r := mustExec(t, e, `select did from t where vn between ? and ?`, jsondom.Number("300"), jsondom.Number("310"))
	if rowsDigest(r.Rows) != corpusDigest(t, "spine.sql", "scan_bound_at_open") {
		t.Errorf("bound between 300 and 310 diverges from the corpus digest: %s", clip(fmt.Sprint(r.Rows)))
	}
}

// TestVectorizedExplainAnalyze checks that an analyzed batch scan
// reports its chunk statistics: total chunks, zone-map prunes, and the
// per-kernel selectivity lines.
func TestVectorizedExplainAnalyze(t *testing.T) {
	e := newBatchEngine(t)
	r := mustExec(t, e, `explain analyze select did from t where vn between 2048 and 2105`)
	plan := ""
	for _, row := range r.Rows {
		plan += string(row[0].(jsondom.String)) + "\n"
	}
	if !strings.Contains(plan, " batch") {
		t.Fatalf("plan does not use the batch scan:\n%s", plan)
	}
	if !strings.Contains(plan, "vec-batch: chunks=") || !strings.Contains(plan, "pruned=") {
		t.Fatalf("missing vec-batch summary line:\n%s", plan)
	}
	if !strings.Contains(plan, "vec[vn between]:") || !strings.Contains(plan, "selectivity=") {
		t.Fatalf("missing per-kernel selectivity line:\n%s", plan)
	}
	// chunks 0 (max 1023) and 1 (all null) are both zone-pruned
	if strings.Contains(plan, "pruned=0") {
		t.Fatalf("expected zone-map prunes for a third-chunk range:\n%s", plan)
	}
}

// TestVectorizedScanMetrics checks the scan counters and the dictionary
// byte accounting through SHOW METRICS.
func TestVectorizedScanMetrics(t *testing.T) {
	e := newBatchEngine(t)
	before := mustExec(t, e, `show metrics`)
	chunks0, _ := metricValue(t, before, "imc.scan.chunks")
	pruned0, _ := metricValue(t, before, "imc.scan.chunks_pruned")
	sel0, _ := metricValue(t, before, "imc.scan.rows_selected")

	r := mustExec(t, e, `select count(*) from t where vn between 2048 and 2105`)
	if got := string(r.Rows[0][0].(jsondom.Number)); got != "58" {
		t.Fatalf("count = %s", got)
	}

	after := mustExec(t, e, `show metrics`)
	chunks1, ok := metricValue(t, after, "imc.scan.chunks")
	if !ok || chunks1 <= chunks0 {
		t.Fatalf("imc.scan.chunks did not advance: %d -> %d", chunks0, chunks1)
	}
	pruned1, _ := metricValue(t, after, "imc.scan.chunks_pruned")
	if pruned1 < pruned0+2 {
		t.Fatalf("imc.scan.chunks_pruned advanced only %d -> %d, want +2 or more", pruned0, pruned1)
	}
	sel1, _ := metricValue(t, after, "imc.scan.rows_selected")
	if sel1 < sel0+58 {
		t.Fatalf("imc.scan.rows_selected advanced only %d -> %d, want +58 or more", sel0, sel1)
	}
	if dict, ok := metricValue(t, after, "imc.bytes.dict"); !ok || dict <= 0 {
		t.Fatalf("imc.bytes.dict = %d, ok=%v", dict, ok)
	}
	if codes, ok := metricValue(t, after, "imc.bytes.codes"); !ok || codes <= 0 {
		t.Fatalf("imc.bytes.codes = %d, ok=%v", codes, ok)
	}
}
