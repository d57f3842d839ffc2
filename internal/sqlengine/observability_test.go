// End-to-end tests for the observability layer: SHOW METRICS over a
// live workload, the slow-query log, and the ErrQueryCancelled
// wrapper. Metrics land in the process-wide registry, so tests assert
// on deltas, never absolutes.

package sqlengine

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/jsondom"
)

// metricValue reads one counter/gauge row out of a SHOW METRICS result.
func metricValue(t *testing.T, r *Result, name string) (int64, bool) {
	t.Helper()
	for _, row := range r.Rows {
		if string(row[0].(jsondom.String)) != name {
			continue
		}
		n, ok := row[1].(jsondom.Number).Int64()
		if !ok {
			t.Fatalf("metric %s: non-integer value %v", name, row[1])
		}
		return n, true
	}
	return 0, false
}

func TestShowMetricsReflectsWorkload(t *testing.T) {
	e := newPOEngine(t)
	before := mustExec(t, e, `show metrics`)
	finished0, _ := metricValue(t, before, "sql.query.started")
	scan0, _ := metricValue(t, before, "sql.scan.rows")
	lat0, _ := metricValue(t, before, "sql.query.latency_ns.count")

	// the Fig. 3 running example: JSON_VALUE projection over the
	// purchase-order table
	r := mustExec(t, e, `select did, json_value(jdoc, '$.purchaseOrder.id')
		from po where json_exists(jdoc, '$.purchaseOrder.items')`)
	if len(r.Rows) != 3 {
		t.Fatalf("fig3 rows = %d", len(r.Rows))
	}

	after := mustExec(t, e, `show metrics`)
	finished1, ok := metricValue(t, after, "sql.query.started")
	if !ok || finished1 <= finished0 {
		t.Fatalf("sql.query.started did not advance: %d -> %d", finished0, finished1)
	}
	if done, ok := metricValue(t, after, "sql.query.finished"); !ok || done == 0 {
		t.Fatalf("sql.query.finished = %d, ok=%v", done, ok)
	}
	scan1, _ := metricValue(t, after, "sql.scan.rows")
	if scan1 < scan0+3 {
		t.Fatalf("sql.scan.rows advanced only %d -> %d, want +3 or more", scan0, scan1)
	}
	lat1, _ := metricValue(t, after, "sql.query.latency_ns.count")
	if lat1 <= lat0 {
		t.Fatalf("latency histogram count did not advance: %d -> %d", lat0, lat1)
	}

	// the bare STATS shorthand (SHOW STATS) is a superset of SHOW
	// METRICS: the metrics rows come first
	alias := mustExec(t, e, `stats`)
	if _, ok := metricValue(t, alias, "sql.query.started"); !ok {
		t.Fatal("STATS alias returned no sql.query.started row")
	}
}

func TestShowMetricsParallelScanCounters(t *testing.T) {
	e := newNumEngine(t, 4000)
	e.Planner.fanout = 4
	before := mustExec(t, e, `show metrics`)
	fan0, _ := metricValue(t, before, "sql.scan.parallel.fanout")
	rows0, _ := metricValue(t, before, "sql.scan.parallel.rows")

	mustExec(t, e, `select count(*) from nums where n >= 0`)

	after := mustExec(t, e, `show metrics`)
	fan1, ok := metricValue(t, after, "sql.scan.parallel.fanout")
	if !ok || fan1 != fan0+1 {
		t.Fatalf("parallel fanout %d -> %d, want +1", fan0, fan1)
	}
	rows1, _ := metricValue(t, after, "sql.scan.parallel.rows")
	if rows1 < rows0+4000 {
		t.Fatalf("parallel rows %d -> %d, want +4000", rows0, rows1)
	}
}

func TestSlowQueryLogAboveThreshold(t *testing.T) {
	e := newPOEngine(t)
	var buf bytes.Buffer
	e.SetSlowQueryLog(&buf, 0) // threshold 0: everything is slow
	mustExec(t, e, `select did from po where did > 1 order by did`)
	e.SetSlowQueryLog(nil, 0)

	out := buf.String()
	for _, want := range []string{
		"SLOW QUERY", "threshold=0s",
		"sql: select did from po where did > 1 order by did",
		"execute=", "rows=2",
		"Sort", "TableScan(po", "rows=", // EXPLAIN ANALYZE operator tree
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow log missing %q:\n%s", want, out)
		}
	}
}

func TestSlowQueryLogBelowThreshold(t *testing.T) {
	e := newPOEngine(t)
	var buf bytes.Buffer
	e.SetSlowQueryLog(&buf, time.Hour)
	mustExec(t, e, `select did from po`)
	mustExec(t, e, `insert into po values (77, '{}')`)
	e.SetSlowQueryLog(nil, 0)
	if buf.Len() != 0 {
		t.Fatalf("fast queries must not hit the slow log:\n%s", buf.String())
	}
}

func TestSlowQueryLogDML(t *testing.T) {
	e := newPOEngine(t)
	var buf bytes.Buffer
	e.SetSlowQueryLog(&buf, 0)
	mustExec(t, e, `update po set did = did where did = 1`)
	e.SetSlowQueryLog(nil, 0)
	out := buf.String()
	if !strings.Contains(out, "SLOW QUERY") || !strings.Contains(out, "update po set did") {
		t.Fatalf("DML slow-log entry malformed:\n%s", out)
	}
}

func TestErrQueryCancelledWrapping(t *testing.T) {
	e := newNumEngine(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, `select count(*) from nums a, nums b`)
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("want ErrQueryCancelled, got %v", err)
	}
	// the underlying context sentinel stays reachable through the wrap
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context.Canceled lost in wrapping: %v", err)
	}

	tctx, tcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer tcancel()
	time.Sleep(time.Millisecond)
	_, err = e.QueryContext(tctx, `select count(*) from nums`)
	if !errors.Is(err, ErrQueryCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: want ErrQueryCancelled wrapping DeadlineExceeded, got %v", err)
	}

	// plain failures are not tagged as cancellation
	_, err = e.Query(`select nope from nums`)
	if err == nil || errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("plain error mis-tagged: %v", err)
	}
}

func TestCancelledQueriesCounted(t *testing.T) {
	e := newNumEngine(t, 2000)
	before := mustExec(t, e, `show metrics`)
	c0, _ := metricValue(t, before, "sql.query.cancelled")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, `select count(*) from nums a, nums b`); err == nil {
		t.Fatal("cancelled query should fail")
	}
	after := mustExec(t, e, `show metrics`)
	c1, _ := metricValue(t, after, "sql.query.cancelled")
	if c1 != c0+1 {
		t.Fatalf("sql.query.cancelled %d -> %d, want +1", c0, c1)
	}
}
