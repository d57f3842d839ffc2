package sqlengine

// End-to-end tests for the planner's pushdown machinery: vectorized
// scans over in-memory vectors, JSON_EXISTS prefilters in all
// translatable shapes, and view predicate pushdown.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/imc"
	"repro/internal/jsondom"
)

// newVCEngine loads numbered docs with a number VC and a string VC,
// populated as in-memory vectors.
func newVCEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table t (did number, jdoc varchar2(0) check (jdoc is json))`)
	words := []string{"apple", "banana", "cherry", "date", "elder"}
	for i := 0; i < 50; i++ {
		doc := `{"n":` + string(jsondom.NumberFromInt(int64(i))) + `,"s":"` + words[i%5] + `"}`
		mustExec(t, e, `insert into t values (?, ?)`,
			jsondom.NumberFromInt(int64(i)), jsondom.String(doc))
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

func TestVectorPushdownShapes(t *testing.T) {
	e := newVCEngine(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`select did from t where vn = 7`, 1},
		{`select did from t where 7 = vn`, 1},
		{`select did from t where vn < 3`, 3},
		{`select did from t where 3 > vn`, 3},
		{`select did from t where vn between 10 and 19`, 10},
		{`select did from t where vn >= 48`, 2},
		{`select did from t where vs = 'banana'`, 10},
		{`select did from t where vn between ? and ?`, 5},
		// JSON_VALUE is rewritten onto the VC, then vector-pushed
		{`select did from t where json_value(jdoc, '$.n' returning number) = 7`, 1},
		// mixed: one pushable conjunct + one residual
		{`select did from t where vn < 10 and mod(did, 2) = 0`, 5},
	}
	for _, c := range cases {
		var params []jsondom.Value
		if c.sql == `select did from t where vn between ? and ?` {
			params = []jsondom.Value{jsondom.Number("10"), jsondom.Number("14")}
		}
		r := mustExec(t, e, c.sql, params...)
		if len(r.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
	// agreement with the unoptimized plan on every shape
	e.Planner.DisableVectorFilter = true
	e.Planner.DisableVCRewrite = true
	for _, c := range cases {
		var params []jsondom.Value
		if c.sql == `select did from t where vn between ? and ?` {
			params = []jsondom.Value{jsondom.Number("10"), jsondom.Number("14")}
		}
		r := mustExec(t, e, c.sql, params...)
		if len(r.Rows) != c.want {
			t.Errorf("unoptimized %s: got %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

const pushdownView = `create view items_v as
	select po.did, jt.* from po, json_table(jdoc, '$' columns (
		reference varchar2(40) path '$.purchaseOrder.podate',
		nested path '$.purchaseOrder.items[*]' columns (
			name varchar2(16) path '$.name',
			price number path '$.price',
			quantity number path '$.quantity'
		)
	)) jt`

func TestPrefilterShapesThroughView(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, pushdownView)
	cases := []struct {
		sql  string
		want int
	}{
		// equality on a nested column
		{`select name from items_v where name = 'phone'`, 1},
		// flipped comparison
		{`select name from items_v where 300 < price`, 2},
		// IN list
		{`select name from items_v where name in ('phone', 'chair')`, 2},
		// BETWEEN
		{`select name from items_v where price between 50 and 110`, 2},
		// master-level column
		{`select count(*) from items_v where reference = '2015-03-04'`, 1},
		// parameterized
		{`select name from items_v where name = ?`, 1},
		// no prefilterable shape (function call) still works
		{`select name from items_v where length(name) = 5`, 3},
	}
	runAll := func(label string) {
		t.Helper()
		for _, c := range cases {
			var params []jsondom.Value
			if c.sql == `select name from items_v where name = ?` {
				params = []jsondom.Value{jsondom.String("ipad")}
			}
			r := mustExec(t, e, c.sql, params...)
			if len(r.Rows) != c.want {
				t.Errorf("%s %s: got %d rows, want %d", label, c.sql, len(r.Rows), c.want)
			}
		}
	}
	runAll("optimized")
	e.Planner.DisablePrefilter = true
	runAll("no-prefilter")
}

func TestMustExec(t *testing.T) {
	e := New()
	e.MustExec(`create table m (v number)`)
	defer func() {
		if recover() == nil {
			t.Fatal("MustExec should panic on error")
		}
	}()
	e.MustExec(`select * from nope`)
}

func TestHasAggregateAndWindowHelpers(t *testing.T) {
	parse := func(sql string) *SelectStmt {
		t.Helper()
		stmt, err := ParseStatement(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*SelectStmt)
	}
	agg := parse(`select sum(v) + count(*) from t where abs(v) in (1, max(v)) or v between 1 and min(v)`)
	for _, it := range agg.Items {
		if !hasAggregate(it.Expr) {
			t.Error("aggregate not detected in select item")
		}
	}
	if !hasAggregate(agg.Where) {
		t.Error("aggregate not detected in where")
	}
	plain := parse(`select v, upper(s) from t where v is null and s like 'a%'`)
	for _, it := range plain.Items {
		if hasAggregate(it.Expr) || hasWindow(it.Expr) {
			t.Error("false positive")
		}
	}
	win := parse(`select 1 + lag(v) over (order by v), nvl(row_number() over (order by v), 0) from t`)
	for _, it := range win.Items {
		if !hasWindow(it.Expr) {
			t.Error("window not detected")
		}
	}
}

// newMasterDetailEngine loads a small master/detail pair — master 3
// has no detail rows — and the master ⨝ detail view over it.
func newMasterDetailEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table m (did number primary key, req varchar2(20), total number, note varchar2(8))`)
	mustExec(t, e, `create table l (po_did number, itemno number, partno varchar2(10), qty number, note varchar2(8))`)
	for i := 0; i < 4; i++ {
		mustExec(t, e, `insert into m values (?, ?, ?, 'm')`, jsondom.NumberFromInt(int64(i)),
			jsondom.String([]string{"alice", "bob"}[i%2]), jsondom.NumberFromInt(int64(4*i)))
	}
	for i := 0; i < 9; i++ {
		mustExec(t, e, `insert into l values (?, ?, ?, ?, 'l')`, jsondom.NumberFromInt(int64(i%3)),
			jsondom.NumberFromInt(int64(i/3)), jsondom.String(fmt.Sprintf("p%d", i%4)), jsondom.NumberFromInt(int64(i)))
	}
	mustExec(t, e, `create view dmdv as select m.did, m.req, l.itemno, l.partno, l.qty
		from m join l on m.did = l.po_did`)
	return e
}

// planLines renders a statement's EXPLAIN as one string per line.
func planLines(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	var lines []string
	for _, row := range mustExec(t, e, `explain `+sql).Rows {
		lines = append(lines, string(row[0].(jsondom.String)))
	}
	return lines
}

// under reports whether a line starting (after indentation) with op
// lies in the subtree of the first line starting with parent.
func under(lines []string, op, parent string) bool {
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	p := -1
	for i, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		switch {
		case p < 0:
			if strings.HasPrefix(trimmed, parent) {
				p = i
			}
		case indent(l) <= indent(lines[p]):
			return false
		case strings.HasPrefix(trimmed, op):
			return true
		}
	}
	return false
}

// TestJoinSidePushdown pins where step 5 puts each WHERE conjunct of a
// join, and that moving it changes no result: each case's rows equal
// those of the same query with the conjunct kept above the join (an
// upper() or nvl() wrapper is not pushableShape).
func TestJoinSidePushdown(t *testing.T) {
	e := newMasterDetailEngine(t)
	same := func(sql, kept string) {
		t.Helper()
		got, want := fmt.Sprint(mustExec(t, e, sql).Rows), fmt.Sprint(mustExec(t, e, kept).Rows)
		if got != want {
			t.Errorf("%s\n  got  %s\n  want %s", sql, got, want)
		}
	}

	// a detail-only predicate on the view reaches the detail scan,
	// below the view's join
	q := `select did, itemno from dmdv where partno = 'p1'`
	if lines := planLines(t, e, q); !under(lines, "Filter", "HashJoin") || !under(lines, "TableScan(l)", "Filter") {
		t.Errorf("detail predicate not below the join:\n%s", strings.Join(lines, "\n"))
	}
	same(q, `select did, itemno from dmdv where upper(partno) = 'P1'`)

	// LEFT join: a test of the null-supplying side stays above the join
	q = `select m.did from m left join l on m.did = l.po_did where l.itemno is null`
	if lines := planLines(t, e, q); !under(lines, "HashJoin", "Filter") {
		t.Errorf("null-supplying-side predicate moved below the LEFT join:\n%s", strings.Join(lines, "\n"))
	}
	if got := fmt.Sprint(mustExec(t, e, q).Rows); got != "[[3]]" {
		t.Errorf("anti-join rows = %s, want [[3]]", got)
	}
	// ... while one on the preserved side moves below it
	q = `select m.did, l.itemno from m left join l on m.did = l.po_did where m.req = 'bob'`
	if lines := planLines(t, e, q); !under(lines, "Filter", "HashJoin") {
		t.Errorf("preserved-side predicate not below the LEFT join:\n%s", strings.Join(lines, "\n"))
	}
	same(q, `select m.did, l.itemno from m left join l on m.did = l.po_did where upper(m.req) = 'BOB'`)

	// a conjunct over both sides stays above the join
	q = `select m.did, l.qty from m join l on m.did = l.po_did where m.total > l.qty`
	if lines := planLines(t, e, q); !under(lines, "HashJoin", "Filter") {
		t.Errorf("two-sided conjunct moved below the join:\n%s", strings.Join(lines, "\n"))
	}

	// LIKE raises over a non-string, so it stays above the join: here
	// the join yields nothing and the predicate never runs
	if r, err := e.Exec(`select m.did from m join l on m.did = l.po_did and l.qty < 0 where m.total like '1%'`); err != nil || len(r.Rows) != 0 {
		t.Errorf("LIKE over a number moved below an empty join: rows %v, err %v", r, err)
	}

	// an unqualified column of both sides is still a compile-time error
	if _, err := e.Exec(`select m.did from m join l on m.did = l.po_did where note = 'm'`); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous unqualified column: err = %v", err)
	}

	// three-way join: the conjunct reaches the innermost leaf
	q = `select m.did, l.itemno, m2.req from m join l on m.did = l.po_did
		join m m2 on m2.did = l.po_did where m.req = 'alice' and l.qty > 2`
	lines := planLines(t, e, q)
	inner := 0
	for i, l := range lines {
		if strings.Contains(l, "HashJoin") {
			inner = i
		}
	}
	if !under(lines[inner:], "Filter", "HashJoin") || under(lines, "HashJoin", "Filter") {
		t.Errorf("conjuncts did not reach the innermost join's leaves:\n%s", strings.Join(lines, "\n"))
	}
	same(q, `select m.did, l.itemno, m2.req from m join l on m.did = l.po_did
		join m m2 on m2.did = l.po_did where upper(m.req) = 'ALICE' and nvl(l.qty, 0) > 2`)
}

// TestJoinSidePushdownKernel is NOBENCH Q11's shape over an IMC table:
// the range over a vector-backed column becomes a kernel on a's scan,
// whose filtered estimate puts the hash build on a; the join's rows are
// those of the plan that joins first and filters after.
func TestJoinSidePushdownKernel(t *testing.T) {
	e := New()
	mustExec(t, e, `create table nb (did number, jdoc varchar2(0) check (jdoc is json))`)
	const n = 600
	for i := 0; i < n; i++ {
		mustExec(t, e, `insert into nb values (?, ?)`, jsondom.NumberFromInt(int64(i)),
			jsondom.String(fmt.Sprintf(`{"num":%d,"nested_obj":{"num":%d}}`, i, (i*7)%n)))
	}
	mustExec(t, e, `alter table nb add virtual column jdoc$num as json_value(jdoc, '$.num' returning number)`)
	attachIMC(t, e, "nb", "jdoc$num")
	q := `select count(*) from nb a join nb b
		on json_value(a.jdoc, '$.nested_obj.num' returning number) = json_value(b.jdoc, '$.num' returning number)
		where json_value(a.jdoc, '$.num' returning number) between 100 and 129`
	before, _ := metricValue(t, mustExec(t, e, `show metrics`), "sql.planner.join_side_conjuncts")
	plan := strings.Join(planLines(t, e, q), "\n")
	after, _ := metricValue(t, mustExec(t, e, `show metrics`), "sql.planner.join_side_conjuncts")
	if after != before+1 {
		t.Errorf("sql.planner.join_side_conjuncts advanced %d -> %d, want +1", before, after)
	}
	if !strings.Contains(plan, "HashJoin build=left") || !strings.Contains(plan, "vec-filters=1") {
		t.Errorf("want a kernel on a and the build on its side:\n%s", plan)
	}
	// the estimates EXPLAIN ANALYZE prints are the filtered ones
	analyzed := explainPlan(t, e, `explain analyze `+q)
	if !strings.Contains(analyzed, fmt.Sprintf("(est-rows=%d)", n)) || strings.Count(analyzed, fmt.Sprintf("(est-rows=%d)", n)) != 1 {
		t.Errorf("only b's scan should estimate the whole table:\n%s", analyzed)
	}
	got := mustExec(t, e, q).Rows
	e.Planner.DisableVectorFilter = true
	want := mustExec(t, e, `select count(*) from nb a join nb b
		on json_value(a.jdoc, '$.nested_obj.num' returning number) = json_value(b.jdoc, '$.num' returning number)
		where nvl(json_value(a.jdoc, '$.num' returning number), 0) between 100 and 129`).Rows
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != "[[30]]" {
		t.Errorf("rows = %v, want %v = [[30]]", got, want)
	}
}
