package sqlengine

// Tests for the single execution spine: EXPLAIN ANALYZE profiles the
// execution Query runs (one drain function, truthful per-operator
// rows/batches on every path, fast paths included), LIMIT budgets reach
// through the joins, and the knob / config counts are pinned.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jsondom"
)

// TestSpineSurfaceIsPinned makes the next planner knob or corpus config
// a deliberate edit: each one multiplies what the corpus has to cover.
func TestSpineSurfaceIsPinned(t *testing.T) {
	exported := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(PlannerOptions{})) {
		if f.IsExported() {
			exported++
		}
	}
	if exported != 5 {
		t.Errorf("PlannerOptions has %d exported fields, want 5", exported)
	}
	if n := len(corpusConfigs()); n != 2 {
		t.Errorf("corpus matrix has %d planner configs, want 2", n)
	}
}

// drainCount runs a plan subtree to completion through drainSource and
// returns how many rows it produced.
func drainCount(t *testing.T, e *Engine, src rowSource, collect bool) int {
	t.Helper()
	res, _, _, err := e.drainSource(context.Background(), src, nil, collect, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestExplainAnalyzeRowsInvariant: for every corpus query, under both
// planner configs, the analyzed plan's root reports exactly the rows
// Query returns, every operator reports no more batches than rows, and
// every non-root operator reports exactly the rows its subtree yields
// when drained on its own — which is what its parent consumed, unless a
// LIMIT above stopped the parent early (then it may report fewer).
// Scans consumed in code space (agg-fast, dictprobe) are held to the
// same rule.
func TestExplainAnalyzeRowsInvariant(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	cases := loadCorpus(t)
	for _, cfg := range corpusConfigs() {
		e.Planner = PlannerOptions{}
		cfg.set(&e.Planner)
		for _, c := range cases {
			label := fmt.Sprintf("%s %s/%s", cfg.label, filepath.Base(c.file), c.name)
			stmt, err := ParseStatement(c.sql)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			plan, err := e.planSelectStmt(stmt.(*SelectStmt))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			analyzed, fresh := plan.instantiate(nil), plan.instantiate(nil)
			drainCount(t, e, analyzed, true)
			if got, want := analyzed.(opNode).opStat().Rows, int64(len(mustExec(t, e, c.sql).Rows)); got != want {
				t.Errorf("%s: root reports rows=%d, Query returned %d", label, got, want)
			}
			var walk func(a, f rowSource, root, limited bool)
			walk = func(a, f rowSource, root, limited bool) {
				node := a.(opNode)
				st := node.opStat()
				if st.Batches > st.Rows {
					t.Errorf("%s: %s reports batches=%d > rows=%d", label, node.opName(), st.Batches, st.Rows)
				}
				// a breaker that was pulled at all consumed its whole input,
				// whatever happens above it (LIMIT 0 never pulls)
				kidsLimited := limited
				switch a.(type) {
				case *limitOp:
					kidsLimited = true
				case *sortOp, *groupAggOp, *windowOp:
					kidsLimited = limited && st.Rows == 0
				}
				fkids := f.(opNode).opChildren()
				for i, kid := range node.opChildren() {
					walk(kid, fkids[i], false, kidsLimited)
				}
				if root {
					return
				}
				// drained last: a fresh subtree can only be opened once
				full := int64(drainCount(t, e, f, false))
				if st.Rows != full && !(limited && st.Rows < full) {
					t.Errorf("%s: %s reports rows=%d, its subtree yields %d (under a LIMIT: %t)",
						label, node.opName(), st.Rows, full, limited)
				}
			}
			walk(analyzed, fresh, true, false)
		}
	}
}

// TestExplainAnalyzeMatchesQueryPath pins the textual symptoms the row
// arms used to produce: a 7-row scan→filter→project reported "rows=7
// batches=8" per line because EXPLAIN ANALYZE pulled rows where Query
// pulled one batch, and scans consumed by the code-space fast paths
// reported nothing at all.
func TestExplainAnalyzeMatchesQueryPath(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	for _, cfg := range corpusConfigs() {
		e.Planner = PlannerOptions{}
		cfg.set(&e.Planner)
		plan := explainPlan(t, e, `explain analyze select did, vs from d where vn < 40 and vg = 'grp1'`)
		lines := 0
		for _, line := range strings.Split(plan, "\n") {
			var rows, batches int
			if i := strings.Index(line, "(rows="); i >= 0 {
				if _, err := fmt.Sscanf(line[i:], "(rows=%d batches=%d", &rows, &batches); err != nil {
					t.Fatalf("%s: unparsable stats in %q: %v", cfg.label, line, err)
				}
				lines++
				if rows != 7 || batches < 1 || batches > 2 {
					t.Errorf("%s: want rows=7 batches<=2 on every operator line, got %q", cfg.label, line)
				}
			}
		}
		if lines != 2 {
			t.Errorf("%s: want a Project line and a scan line:\n%s", cfg.label, plan)
		}
	}

	e.Planner = PlannerOptions{fanout: 1}
	plan := explainPlan(t, e, `explain analyze select vs, count(*), sum(vn) from t group by vs`)
	if !strings.Contains(plan, "agg-fast:") || !strings.Contains(plan, fmt.Sprintf("TableScan(t)  (est-rows=%d)  (rows=%d batches=0", batchDocs, batchDocs)) {
		t.Errorf("scan under agg-fast must report the %d rows it selected (in no batches):\n%s", batchDocs, plan)
	}
	plan = explainPlan(t, e, `explain analyze select c.cid, o.oid from custs c join orders o on c.vid = o.vk`)
	for _, want := range []string{"dictprobe:",
		fmt.Sprintf("TableScan(custs)  (est-rows=%d)  (rows=%d batches=0", joinCusts, joinCusts),
		fmt.Sprintf("TableScan(orders)  (est-rows=%d)  (rows=%d batches=0", joinOrders, joinOrders)} {
		if !strings.Contains(plan, want) {
			t.Errorf("scans under dictprobe must report the rows they selected; missing %q:\n%s", want, plan)
		}
	}

	// sql.scan.rows is credited on the code-space paths too
	before, _ := metricValue(t, mustExec(t, e, `show metrics`), "sql.scan.rows")
	mustExec(t, e, `select vs, count(*) from t group by vs`)
	after, _ := metricValue(t, mustExec(t, e, `show metrics`), "sql.scan.rows")
	if after-before != batchDocs {
		t.Errorf("sql.scan.rows advanced by %d over an agg-fast scan of %d rows", after-before, batchDocs)
	}
}

// TestLimitBudgetThroughJoins: a LIMIT above a hash or cross join must
// not make the join build a whole batch of output: the budget reaches
// the join's fill loop, which stops within one probe row's fan-out of
// it (every d row matches exactly one lk row; a d row crosses with all
// 30). The serial plan also bounds what the scans feed the join: the
// build side plus one probe batch. JSON_TABLE is held to the same two
// bounds (a d document expands to at most 3 rows): its batchCursor pulls
// the outer input unbudgeted (a 1:n consumer cannot promise a total),
// so a LIMIT above it pays for one outer batch — pinned here so it
// cannot grow.
func TestLimitBudgetThroughJoins(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	for _, q := range []struct {
		sql, join string
		fanout    int
	}{
		{`select a.did, b.lid from d a join lk b on a.vs = b.vk limit 5`, "HashJoin", 1},
		{`select a.did, b.lid from d a, lk b limit 5`, "CrossJoin", corpusLookups},
		{`select a.did, jt.q from d a, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt limit 5`, "JSONTable", 3},
	} {
		for _, cfg := range corpusConfigs() {
			e.Planner = PlannerOptions{}
			cfg.set(&e.Planner)
			before, _ := metricValue(t, mustExec(t, e, `show metrics`), "sql.scan.rows")
			plan := explainPlan(t, e, `explain analyze `+q.sql)
			after, _ := metricValue(t, mustExec(t, e, `show metrics`), "sql.scan.rows")
			joinRows := -1
			for _, line := range strings.Split(plan, "\n") {
				if i := strings.Index(line, "(rows="); i >= 0 && strings.Contains(line, q.join) {
					fmt.Sscanf(line[i:], "(rows=%d", &joinRows) //nolint:errcheck // -1 fails below
				}
			}
			if joinRows < 5 || joinRows >= 5+q.fanout {
				t.Errorf("%s %s: join produced %d rows for LIMIT 5 (fan-out %d):\n%s", cfg.label, q.join, joinRows, q.fanout, plan)
			}
			if scanned := after - before; cfg.label == "serial" && scanned > batchSize+corpusLookups {
				t.Errorf("%s %s: scans fed %d rows for LIMIT 5, want at most one probe batch plus the build side", cfg.label, q.join, scanned)
			}
		}
	}
}

// recyclingSource is a producer that honours the batch contract to the
// letter: one header, recycled on every NextBatch call — including the
// call that reports end of input, after which the header holds rows
// that belong to somebody else (what the pool hands the next query).
type recyclingSource struct {
	batches [][][]jsondom.Value
	foreign []jsondom.Value
	hdr     Batch
	pulls   int
}

func (s *recyclingSource) Open(*ExecCtx) error { return nil }
func (s *recyclingSource) Close() error        { return nil }
func (s *recyclingSource) Schema() Schema      { return nil }
func (s *recyclingSource) NextBatch(*ExecCtx, int) (*Batch, error) {
	s.pulls++
	s.hdr.reset()
	if len(s.batches) == 0 {
		for i := 0; i < 4; i++ {
			s.hdr.add(s.foreign)
		}
		return nil, nil
	}
	for _, row := range s.batches[0] {
		s.hdr.add(row)
	}
	s.batches = s.batches[1:]
	return &s.hdr, nil
}

// TestBatchCursorAfterEOF: the joins ask their probe cursor for a row
// again after it reported end of input (fillBatch hands out the partial
// last batch first). By then the producer has recycled the header the
// cursor was reading, so the cursor must neither look at it nor pull
// the producer again.
func TestBatchCursorAfterEOF(t *testing.T) {
	row := func(n int64) []jsondom.Value { return []jsondom.Value{jsondom.NumberFromInt(n)} }
	src := &recyclingSource{
		batches: [][][]jsondom.Value{{row(1), row(2)}, {row(3)}},
		foreign: row(99),
	}
	cur := batchCursor{src: src}
	ec := newExecCtx(context.Background(), 0)
	for want := int64(1); want <= 3; want++ {
		r, ok, err := cur.next(ec)
		if err != nil || !ok || r[0] != jsondom.NumberFromInt(want) {
			t.Fatalf("row %d: got %v ok=%t err=%v", want, r, ok, err)
		}
	}
	for i := 0; i < 3; i++ {
		if r, ok, err := cur.next(ec); ok || err != nil {
			t.Fatalf("call %d after EOF: got row %v ok=%t err=%v", i+1, r, ok, err)
		}
	}
	if src.pulls != 3 {
		t.Errorf("producer pulled %d times, want 3 (two batches and one EOF)", src.pulls)
	}
}

// TestConcurrentJoinsShareNoBatch runs joins whose last output batch is
// partial from many goroutines at once: every execution re-asks its
// drained probe cursor, while the other queries take headers from the
// same pool. Under -race this is the test that sees a cursor read a
// recycled header; without it, a stolen row shows up as a wrong result.
func TestConcurrentJoinsShareNoBatch(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	queries := []string{
		`select a.did, b.lid from d a join lk b on a.vs = b.vk where mod(a.did, 7) = 0`,
		`select a.did, b.lid from d a left join lk b on a.vs = b.vk and b.lid > 3 where mod(a.did, 5) = 0`,
		`select a.did, b.lid from d a, lk b where mod(a.did, 97) = 0 and b.lid < 3`,
		`select a.did, jt.q from d a, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where mod(a.did, 11) = 0`,
	}
	for _, cfg := range corpusConfigs() {
		e.Planner = PlannerOptions{}
		cfg.set(&e.Planner)
		want := make([]string, len(queries))
		for i, q := range queries {
			want[i] = fmt.Sprint(mustExec(t, e, q).Rows)
		}
		errc := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				for i := 0; i < 12; i++ {
					k := (g + i) % len(queries)
					r, err := e.Query(queries[k])
					if err == nil && fmt.Sprint(r.Rows) != want[k] {
						err = fmt.Errorf("%s: concurrent result differs from the serial one", queries[k])
					}
					if err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-errc; err != nil {
				t.Errorf("%s: %v", cfg.label, err)
			}
		}
	}
}
