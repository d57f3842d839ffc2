// Tests for the execution-context plumbing: cooperative
// cancellation/timeout, goroutine hygiene of parallel scans, the
// memory accountant, early termination, and EXPLAIN [ANALYZE].

package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsondom"
	"repro/internal/store"
)

// newNumEngine builds an engine with a single-column numeric table of
// n rows via the bulk-load fast path.
func newNumEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table nums (n number)`)
	for i := 0; i < n; i++ {
		if err := e.InsertRow("nums", store.Row{jsondom.NumberFromInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

func TestQueryContextCancelMidFlight(t *testing.T) {
	e := newNumEngine(t, 3000)
	// 3000x3000 cross join: far too much work to finish before the
	// cancellation fires.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var canceledAt time.Time
	go func() {
		_, err := e.QueryContext(ctx, `select count(*) from nums a, nums b where a.n + b.n = -1`)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	canceledAt = time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if d := time.Since(canceledAt); d > 100*time.Millisecond {
			t.Fatalf("cancellation took %s (> 100ms)", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not observe cancellation")
	}
	// the engine stays consistent: the same catalog answers fresh
	// queries normally after the aborted one
	r := mustExec(t, e, `select count(*) from nums`)
	if got := r.Rows[0][0].(jsondom.Number); got != "3000" {
		t.Fatalf("post-cancel count = %s", got)
	}
}

func TestQueryContextTimeout(t *testing.T) {
	e := newNumEngine(t, 3000)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := e.QueryContext(ctx, `select count(*) from nums a, nums b where a.n * b.n = -1`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestDMLContextCancel(t *testing.T) {
	e := newNumEngine(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, `delete from nums where n >= 0`); !errors.Is(err, context.Canceled) {
		t.Fatalf("delete: want context.Canceled, got %v", err)
	}
	if _, err := e.ExecContext(ctx, `update nums set n = n + 1 where n >= 0`); !errors.Is(err, context.Canceled) {
		t.Fatalf("update: want context.Canceled, got %v", err)
	}
	// the aborted DML must not have touched any rows
	r := mustExec(t, e, `select count(*) from nums`)
	if got := r.Rows[0][0].(jsondom.Number); got != "2000" {
		t.Fatalf("post-cancel count = %s", got)
	}
}

func TestParallelScanEquivalence(t *testing.T) {
	e := newNumEngine(t, 5000)
	q := `select n, n * 2 from nums where n > 100 and n < 4900 order by n desc limit 1000`
	qs := []string{q, `select count(*), sum(n) from nums where n >= 2500`,
		`select n from nums where n < 64`}
	for _, sql := range qs {
		e.Planner.fanout = 1
		serial := mustExec(t, e, sql)
		e.Planner.fanout = 4
		par := mustExec(t, e, sql)
		if len(par.Rows) != len(serial.Rows) {
			t.Fatalf("%s: %d parallel rows vs %d serial", sql, len(par.Rows), len(serial.Rows))
		}
		for i := range serial.Rows {
			for j := range serial.Rows[i] {
				if !jsondom.Equal(serial.Rows[i][j], par.Rows[i][j]) {
					t.Fatalf("%s: row %d col %d: %v vs %v", sql, i, j, serial.Rows[i][j], par.Rows[i][j])
				}
			}
		}
	}
}

func TestParallelScanNoGoroutineLeak(t *testing.T) {
	e := newNumEngine(t, 5000)
	e.Planner.fanout = 4
	baseline := runtime.NumGoroutine()
	// full drain, early termination via LIMIT, and cancellation: all
	// three paths must stop every worker
	mustExec(t, e, `select count(*) from nums where n >= 0`)
	mustExec(t, e, `select n from nums where n >= 0 limit 3`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, `select n from nums where n >= 0`); err == nil {
		t.Fatal("cancelled parallel query should fail")
	}
	waitGoroutines(t, baseline)
}

// cancelAtPoll is a context whose Err turns into context.Canceled at
// its k-th poll and stays there. The engine only ever polls Err (every
// cancelCheckInterval ticks, per operator and per scan worker), so this
// lands the cancellation at a chosen depth of a running query without
// depending on wall-clock timing.
type cancelAtPoll struct {
	context.Context
	k     int64
	polls atomic.Int64
}

func (c *cancelAtPoll) Err() error {
	if c.polls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestBreakersOverParallelScanFaults: on a multi-core machine the
// serial group-by, hash join and sort sit directly on the scan fleet.
// A budget denial or a cancellation that strikes while the workers are
// mid-partition (some parked on full channels, some still scanning)
// must surface as the typed error, never a panic, with every worker
// joined by the time the statement returns. The last case puts a
// filter and a projection above the join: all three pull batches, so
// the cancellation has to travel through their NextBatch loops too.
func TestBreakersOverParallelScanFaults(t *testing.T) {
	e := newNumEngine(t, 5000)
	e.Planner.fanout = 4
	queries := []struct {
		op, sql string
		rows    int
	}{
		{"GroupAgg", `select n, count(*) from nums where n >= 0 group by n`, 5000},
		// both join inputs are fleets, open at the same time
		{"HashJoin", `select a.n from (select n from nums where n >= 0) a
			join (select n from nums where n < 5000) b on a.n = b.n`, 5000},
		{"Sort", `select n from nums where n >= 0 order by n desc`, 5000},
		{"Filter", `select a.n + 1 from (select n from nums where n >= 0) a
			join (select n from nums where n < 5000) b on a.n = b.n where mod(b.n, 3) = 0`, 1667},
	}
	for _, q := range queries {
		plan := explainPlan(t, e, "explain "+q.sql)
		if !strings.Contains(plan, q.op) || !strings.Contains(plan, "ParallelScan(nums degree=4") {
			t.Fatalf("%s does not run over a parallel scan:\n%s", q.op, plan)
		}
	}
	baseline := runtime.NumGoroutine()
	for _, q := range queries {
		// 5000 rows over 4 workers poll the context at least 16 times
		// before the scan can finish, so every k here fires mid-query
		for k := int64(1); k <= 12; k++ {
			ctx := &cancelAtPoll{Context: context.Background(), k: k}
			if _, err := e.QueryContext(ctx, q.sql); !errors.Is(err, ErrQueryCancelled) {
				t.Errorf("%s cancelled at poll %d: want ErrQueryCancelled, got %v", q.op, k, err)
			}
		}
		// from "the first charge is denied" up to "denied after a few
		// thousand buffered rows, with the fleet well under way"
		for _, budget := range []int64{1, 1 << 10, 1 << 14, 1 << 16} {
			e.Planner.MemoryBudget = budget
			if _, err := e.Exec(q.sql); !errors.Is(err, ErrMemoryBudget) {
				t.Errorf("%s under a %d-byte budget: want ErrMemoryBudget, got %v", q.op, budget, err)
			}
		}
		e.Planner.MemoryBudget = 0
		if r := mustExec(t, e, q.sql); len(r.Rows) != q.rows {
			t.Errorf("%s after the faults: %d rows, want %d", q.op, len(r.Rows), q.rows)
		}
	}
	waitGoroutines(t, baseline)
}

func TestLimitClosesUpstreamEarly(t *testing.T) {
	e := newNumEngine(t, 2000)
	// LIMIT over a cross join: correctness of early close (double
	// close must be safe, results exact)
	r := mustExec(t, e, `select a.n from nums a, nums b limit 5`)
	if len(r.Rows) != 5 {
		t.Fatalf("limit rows = %d", len(r.Rows))
	}
	// LIMIT over ORDER BY: sortOp closes its input after materializing
	r = mustExec(t, e, `select n from nums order by n desc limit 2`)
	if len(r.Rows) != 2 || r.Rows[0][0].(jsondom.Number) != "1999" {
		t.Fatalf("order/limit rows = %v", r.Rows)
	}
}

func TestMemoryBudget(t *testing.T) {
	e := newNumEngine(t, 1000)
	e.Planner.MemoryBudget = 1024 // far below 1000 buffered rows
	_, err := e.Exec(`select n from nums order by n`)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("sort: want ErrMemoryBudget, got %v", err)
	}
	_, err = e.Exec(`select count(*) from nums group by n`)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("group by: want ErrMemoryBudget, got %v", err)
	}
	// streaming plans stay under any budget
	e.Planner.MemoryBudget = 64
	r := mustExec(t, e, `select count(*) from nums where n >= 0`)
	if got := r.Rows[0][0].(jsondom.Number); got != "1000" {
		t.Fatalf("count under budget = %s", got)
	}
}

func TestExplain(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `explain select did from po where did > 1 order by did`)
	plan := ""
	for _, row := range r.Rows {
		plan += string(row[0].(jsondom.String)) + "\n"
	}
	for _, want := range []string{"Project", "Sort", "Filter", "TableScan(po"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "(rows=") {
		t.Fatalf("plain EXPLAIN should not carry runtime stats:\n%s", plan)
	}
	if !strings.Contains(plan, "est-rows=") {
		t.Fatalf("plain EXPLAIN should carry cardinality estimates:\n%s", plan)
	}
}

func TestExplainAnalyze(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `explain analyze select did, json_value(jdoc, '$.purchaseOrder.id') from po`)
	sawRows := false
	for _, row := range r.Rows {
		line := string(row[0].(jsondom.String))
		if strings.HasPrefix(line, "plan cache:") {
			continue // cache-status annotation, not an operator line
		}
		if !strings.Contains(line, "(rows=") || !strings.Contains(line, "time=") {
			t.Fatalf("analyze line missing stats: %q", line)
		}
		if strings.Contains(line, "(rows=3") {
			sawRows = true
		}
	}
	if !sawRows {
		t.Fatalf("no operator reported 3 rows: %v", r.Rows)
	}
}

func TestExplainAnalyzeParallel(t *testing.T) {
	e := newNumEngine(t, 4000)
	e.Planner.fanout = 4
	r := mustExec(t, e, `explain analyze select count(*) from nums where n >= 2000`)
	plan := ""
	for _, row := range r.Rows {
		plan += string(row[0].(jsondom.String)) + "\n"
	}
	if !strings.Contains(plan, "ParallelScan(nums degree=4 ordered filtered)") {
		t.Fatalf("plan missing parallel scan:\n%s", plan)
	}
	if !strings.Contains(plan, "rows=2000") {
		t.Fatalf("parallel scan rows-out missing:\n%s", plan)
	}
}

func TestQueryIDsAdvance(t *testing.T) {
	a := newExecCtx(context.Background(), 0)
	b := newExecCtx(nil, 0)
	if a.QueryID() == b.QueryID() {
		t.Fatal("query ids must be unique")
	}
	if b.Context() == nil || b.Err() != nil {
		t.Fatal("nil ctx must default to Background")
	}
}

func TestTickErrInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := newExecCtx(ctx, 0)
	ticks := 0
	var err error
	n := 0
	for ; err == nil && n < 10*cancelCheckInterval; n++ {
		err = ec.tickErr(&ticks)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("tickErr never surfaced cancellation: %v", err)
	}
	if n > cancelCheckInterval {
		t.Fatalf("cancellation after %d ticks (interval %d)", n, cancelCheckInterval)
	}
}

// TestParallelScanDerivedThreshold pins the planner's own choice: at
// GOMAXPROCS >= 2 a table of fanoutMinRows rows fans out over
// GOMAXPROCS workers and one row fewer stays serial; at GOMAXPROCS 1
// nothing fans out. Each case plans on a fresh engine, because a cached
// plan keeps the degree it was planned with.
func TestParallelScanDerivedThreshold(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, rows := range []int{fanoutMinRows - 1, fanoutMinRows} {
			e := newNumEngine(t, rows)
			prev := runtime.GOMAXPROCS(procs)
			plan := explainPlan(t, e, `explain select count(*) from nums where n >= 0`)
			runtime.GOMAXPROCS(prev)
			want := procs >= 2 && rows >= fanoutMinRows
			fleet := strings.Contains(plan, fmt.Sprintf("ParallelScan(nums degree=%d ordered filtered)", procs))
			if fleet != want || strings.Contains(plan, "TableScan(nums)") == want {
				t.Errorf("GOMAXPROCS %d, %d rows: want fan-out %v:\n%s", procs, rows, want, plan)
			}
		}
	}
}

func TestParallelScanDegreeRespectsPartitionCount(t *testing.T) {
	e := newNumEngine(t, 10)
	e.Planner.fanout = 64
	// 64-way split of 10 rows yields 10 single-row partitions; results
	// must still be exact and ordered
	r := mustExec(t, e, `select n from nums where n != 5`)
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, want := range []string{"0", "1", "2", "3", "4", "6", "7", "8", "9"} {
		if got := r.Rows[i][0].(jsondom.Number); string(got) != want {
			t.Fatalf("row %d = %s, want %s", i, got, want)
		}
	}
}

func TestParallelScanSkipsDeletedRows(t *testing.T) {
	e := newNumEngine(t, 2000)
	mustExec(t, e, `delete from nums where n >= 500 and n < 1500`)
	e.Planner.fanout = 4
	r := mustExec(t, e, `select count(*) from nums where n >= 0`)
	if got := r.Rows[0][0].(jsondom.Number); got != "1000" {
		t.Fatalf("count after delete = %s", got)
	}
}

func TestParallelScanConcurrentQueries(t *testing.T) {
	e := newNumEngine(t, 5000)
	e.Planner.fanout = 4
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(k int) {
			r, err := e.Query(fmt.Sprintf(`select count(*) from nums where n >= %d`, k*100))
			if err == nil && string(r.Rows[0][0].(jsondom.Number)) != fmt.Sprint(5000-k*100) {
				err = fmt.Errorf("count = %s", r.Rows[0][0].(jsondom.Number))
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
