package sqlengine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/store"
)

// newPOEngine builds an engine with the paper's purchase-order table
// loaded with the three documents of Tables 1 and 3.
var poDocs = []string{
	`{"purchaseOrder":{"id":1,"podate":"2014-09-08",
		"items":[{"name":"phone","price":100,"quantity":2},
		         {"name":"ipad","price":350.86,"quantity":3}]}}`,
	`{"purchaseOrder":{"id":2,"podate":"2015-03-04",
		"items":[{"name":"table","price":52.78,"quantity":2},
		         {"name":"chair","price":35.24,"quantity":4}]}}`,
	`{"purchaseOrder":{"id":3,"podate":"2015-06-03","foreign_id":"CDEG35",
		"items":[{"name":"TV","price":345.55,"quantity":1,
		          "parts":[{"partName":"remoteCon","partQuantity":"1"}]}]}}`,
}

func newPOEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table po (did number primary key, jdoc varchar2(4000) check (jdoc is json))`)
	for i, d := range poDocs {
		compact := jsontext.SerializeString(jsontext.MustParse(d))
		mustExec(t, e, `insert into po values (?, ?)`,
			jsondom.NumberFromInt(int64(i+1)), jsondom.String(compact))
	}
	return e
}

func mustExec(t *testing.T, e *Engine, sql string, params ...jsondom.Value) *Result {
	t.Helper()
	r, err := e.Exec(sql, params...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return r
}

func TestCreateInsertSelect(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `select did from po order by did desc`)
	if len(r.Rows) != 3 || r.Rows[0][0].(jsondom.Number) != "3" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Columns[0] != "did" {
		t.Fatalf("cols = %v", r.Columns)
	}
	// star projection
	r = mustExec(t, e, `select * from po`)
	if len(r.Columns) != 2 || len(r.Rows) != 3 {
		t.Fatalf("star: %v / %d rows", r.Columns, len(r.Rows))
	}
}

func TestConstraintViolations(t *testing.T) {
	e := newPOEngine(t)
	if _, err := e.Exec(`insert into po values (9, 'not json')`); err == nil {
		t.Fatal("IS JSON violation should fail")
	}
	if _, err := e.Exec(`insert into po values (1, '{}')`); err == nil {
		t.Fatal("duplicate PK should fail")
	}
	if _, err := e.Exec(`insert into missing values (1)`); err == nil {
		t.Fatal("missing table")
	}
	if _, err := e.Exec(`insert into po values (1)`); err == nil {
		t.Fatal("arity mismatch")
	}
}

func TestWhereAndExpressions(t *testing.T) {
	e := newPOEngine(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`select did from po where did > 1`, 2},
		{`select did from po where did >= 1 and did < 3`, 2},
		{`select did from po where did = 1 or did = 3`, 2},
		{`select did from po where not (did = 2)`, 2},
		{`select did from po where did in (1, 3, 99)`, 2},
		{`select did from po where did not in (1, 3)`, 1},
		{`select did from po where did between 2 and 3`, 2},
		{`select did from po where did not between 2 and 3`, 1},
		{`select did from po where jdoc like '%CDEG35%'`, 1},
		{`select did from po where jdoc not like '%CDEG35%'`, 2},
		{`select did from po where did is null`, 0},
		{`select did from po where did is not null`, 3},
		{`select did from po where did + 1 = 3`, 1},
		{`select did from po where did * 2 = 4`, 1},
		{`select did from po where -did = -3`, 1},
		{`select did from po where did / 2 = 1`, 1},
		{`select did from po where substr(jdoc, 2, 15) = '"purchaseOrder"'`, 3},
		{`select did from po where instr(jdoc, 'foreign_id') > 0`, 1},
		{`select did from po where length(jdoc) > 10`, 3},
		{`select did from po where mod(did, 2) = 1`, 2},
		{`select did from po where upper('ab') = 'AB' and lower('AB') = 'ab'`, 3},
		{`select did from po where nvl(null, did) = 1`, 1},
		{`select did from po where abs(-did) = 2`, 1},
		{`select did from po where round(2.5) = 3 and trunc(2.9) = 2`, 3},
		{`select did from po where 'a' || 'b' = 'ab'`, 3},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if len(r.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

func TestJSONOperators(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `select json_value(jdoc, '$.purchaseOrder.id' returning number) from po order by 1`)
	if len(r.Rows) != 3 || r.Rows[2][0].(jsondom.Number) != "3" {
		t.Fatalf("json_value rows = %v", r.Rows)
	}
	r = mustExec(t, e, `select did from po where json_exists(jdoc, '$.purchaseOrder.foreign_id')`)
	if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "3" {
		t.Fatalf("json_exists = %v", r.Rows)
	}
	r = mustExec(t, e, `select did from po where json_textcontains(jdoc, '$.purchaseOrder', 'remotecon')`)
	if len(r.Rows) != 1 {
		t.Fatalf("json_textcontains = %v", r.Rows)
	}
	r = mustExec(t, e, `select json_query(jdoc, '$.purchaseOrder.items[0].name') from po where did = 1`)
	if r.Rows[0][0].(jsondom.String) != `"phone"` {
		t.Fatalf("json_query = %v", r.Rows)
	}
	// filter predicate inside a path
	r = mustExec(t, e, `select did from po where json_exists(jdoc, '$.purchaseOrder.items[*]?(@.price > 300)')`)
	if len(r.Rows) != 2 {
		t.Fatalf("filter path = %v", r.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "3" {
		t.Fatalf("count = %v", r.Rows)
	}
	r = mustExec(t, e, `select sum(did), avg(did), min(did), max(did) from po`)
	row := r.Rows[0]
	if row[0].(jsondom.Number) != "6" || row[1].(jsondom.Number) != "2" ||
		row[2].(jsondom.Number) != "1" || row[3].(jsondom.Number) != "3" {
		t.Fatalf("aggs = %v", row)
	}
	// aggregates over empty input still produce one row
	r = mustExec(t, e, `select count(*), sum(did) from po where did > 100`)
	if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "0" || !isNull(r.Rows[0][1]) {
		t.Fatalf("empty aggs = %v", r.Rows)
	}
	// group by with having and order
	r = mustExec(t, e, `select mod(did, 2) m, count(*) c from po group by mod(did, 2) having count(*) > 1 order by 1`)
	if len(r.Rows) != 1 || r.Rows[0][1].(jsondom.Number) != "2" {
		t.Fatalf("group/having = %v", r.Rows)
	}
	// count(expr) skips nulls
	mustExec(t, e, `create table nt (v number)`)
	mustExec(t, e, `insert into nt values (1), (null), (3)`)
	r = mustExec(t, e, `select count(v), count(*) from nt`)
	if r.Rows[0][0].(jsondom.Number) != "2" || r.Rows[0][1].(jsondom.Number) != "3" {
		t.Fatalf("count null handling = %v", r.Rows)
	}
}

// TestDistinctIsRejected: neither DISTINCT form is implemented, so both
// are refused at parse time with an error naming the feature, instead
// of a quantifier silently dropped (count(distinct n) answering 6 over
// {1,1,1,2,2,2}) or a bogus "unknown column distinct".
func TestDistinctIsRejected(t *testing.T) {
	e := New()
	mustExec(t, e, `create table d (n number)`)
	mustExec(t, e, `insert into d values (1), (1), (1), (2), (2), (2)`)
	for sql, want := range map[string]string{
		`select count(distinct n) from d`:                     "COUNT(DISTINCT ...) is not supported",
		`select sum(DISTINCT n) from d`:                       "SUM(DISTINCT ...) is not supported",
		`select distinct n from d`:                            "SELECT DISTINCT is not supported",
		`select DISTINCT n, n + 1 from d`:                     "SELECT DISTINCT is not supported",
		`explain select distinct n from d`:                    "SELECT DISTINCT is not supported",
		`select c from (select count(distinct n) c from d) s`: "COUNT(DISTINCT ...) is not supported",
	} {
		_, err := e.Exec(sql)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a syntax error containing %q", sql, err, want)
		}
	}
	// the plain forms still answer
	if got := fmt.Sprint(mustExec(t, e, `select count(n), sum(n) from d`).Rows); got != "[[6 9]]" {
		t.Fatalf("count/sum = %s", got)
	}
}

func TestOrderBySemantics(t *testing.T) {
	e := newPOEngine(t)
	// order by expression not in the select list
	r := mustExec(t, e, `select did from po order by 3 - did`)
	if r.Rows[0][0].(jsondom.Number) != "3" {
		t.Fatalf("expr order = %v", r.Rows)
	}
	// nulls sort last ascending
	mustExec(t, e, `create table nt (v number)`)
	mustExec(t, e, `insert into nt values (2), (null), (1)`)
	r = mustExec(t, e, `select v from nt order by v`)
	if !isNull(r.Rows[2][0]) || r.Rows[0][0].(jsondom.Number) != "1" {
		t.Fatalf("null order = %v", r.Rows)
	}
	r = mustExec(t, e, `select v from nt order by v desc`)
	if !isNull(r.Rows[0][0]) {
		t.Fatalf("null desc order = %v", r.Rows)
	}
	// limit
	r = mustExec(t, e, `select did from po order by did limit 2`)
	if len(r.Rows) != 2 {
		t.Fatalf("limit = %v", r.Rows)
	}
}

const poDMDV = `create view po_dmdv as
	select po.did, jt.* from po, json_table(jdoc, '$' columns (
		"jcol$id" number path '$.purchaseOrder.id',
		"jcol$podate" varchar2(16) path '$.purchaseOrder.podate',
		nested path '$.purchaseOrder.items[*]' columns (
			"jcol$name" varchar2(16) path '$.name',
			"jcol$price" number path '$.price',
			"jcol$quantity" number path '$.quantity',
			nested path '$.parts[*]' columns (
				"jcol$partname" varchar2(16) path '$.partName'
			)
		)
	)) jt`

func TestJSONTableAndDMDVView(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, poDMDV)
	r := mustExec(t, e, `select * from po_dmdv order by did, "jcol$name"`)
	// doc1: 2 items, doc2: 2 items, doc3: 1 item with 1 part => 5 rows
	if len(r.Rows) != 5 {
		t.Fatalf("dmdv rows = %d: %v", len(r.Rows), r.Rows)
	}
	if len(r.Columns) != 7 {
		t.Fatalf("dmdv cols = %v", r.Columns)
	}
	// master fields are repeated per detail row
	r = mustExec(t, e, `select count(*) from po_dmdv where "jcol$id" = 1`)
	if r.Rows[0][0].(jsondom.Number) != "2" {
		t.Fatalf("master repeat = %v", r.Rows)
	}
	// outer join: items without parts keep NULL partname
	r = mustExec(t, e, `select count(*) from po_dmdv where "jcol$partname" is null`)
	if r.Rows[0][0].(jsondom.Number) != "4" {
		t.Fatalf("outer join nulls = %v", r.Rows)
	}
	// aggregate over the view
	r = mustExec(t, e, `select sum("jcol$price" * "jcol$quantity") from po_dmdv`)
	want := 100.0*2 + 350.86*3 + 52.78*2 + 35.24*4 + 345.55*1
	got := r.Rows[0][0].(jsondom.Number).Float64()
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestJSONTableOverBinaryFormats(t *testing.T) {
	// the same JSON_TABLE works over BSON and OSON columns
	e := New()
	mustExec(t, e, `create table po_bin (did number, bdoc raw(8000), odoc raw(8000))`)
	for i, d := range poDocs {
		dom := jsontext.MustParse(d)
		mustExec(t, e, `insert into po_bin values (?, ?, ?)`,
			jsondom.NumberFromInt(int64(i+1)),
			jsondom.Binary(bson.MustEncode(dom)),
			jsondom.Binary(oson.MustEncode(dom)))
	}
	for _, col := range []string{"bdoc", "odoc"} {
		r := mustExec(t, e, `select jt.n from po_bin, json_table(`+col+`, '$.purchaseOrder.items[*]'
			columns (n varchar2(16) path '$.name')) jt`)
		if len(r.Rows) != 5 {
			t.Fatalf("%s rows = %d", col, len(r.Rows))
		}
	}
	// json_value over binary columns
	r := mustExec(t, e, `select json_value(odoc, '$.purchaseOrder.id' returning number) from po_bin where did = 2`)
	if r.Rows[0][0].(jsondom.Number) != "2" {
		t.Fatalf("json_value over oson = %v", r.Rows)
	}
}

func TestHashJoinMasterDetail(t *testing.T) {
	// the REL storage layout of §6.3
	e := New()
	mustExec(t, e, `create table master (id number primary key, ref varchar2(20))`)
	mustExec(t, e, `create table detail (po_id number, part varchar2(20), qty number)`)
	mustExec(t, e, `insert into master values (1, 'a'), (2, 'b'), (3, 'empty')`)
	mustExec(t, e, `insert into detail values (1, 'p1', 5), (1, 'p2', 6), (2, 'p3', 7), (99, 'orphan', 0)`)
	r := mustExec(t, e, `select m.ref, d.part from master m join detail d on m.id = d.po_id order by d.part`)
	if len(r.Rows) != 3 || r.Rows[0][0].(jsondom.String) != "a" {
		t.Fatalf("join rows = %v", r.Rows)
	}
	// left outer join keeps master 3
	r = mustExec(t, e, `select m.ref, d.part from master m left join detail d on m.id = d.po_id order by m.id`)
	if len(r.Rows) != 4 {
		t.Fatalf("left join rows = %v", r.Rows)
	}
	last := r.Rows[3]
	if last[0].(jsondom.String) != "empty" || !isNull(last[1]) {
		t.Fatalf("outer row = %v", last)
	}
	// join with residual condition
	r = mustExec(t, e, `select m.ref from master m join detail d on m.id = d.po_id and d.qty > 5`)
	if len(r.Rows) != 2 {
		t.Fatalf("residual join = %v", r.Rows)
	}
	// cross join via comma
	r = mustExec(t, e, `select m.id from master m, detail d where m.id = 1`)
	if len(r.Rows) != 4 {
		t.Fatalf("cross join = %v", r.Rows)
	}
}

func TestWindowLag(t *testing.T) {
	e := New()
	mustExec(t, e, `create table seq_t (k number, v number)`)
	mustExec(t, e, `insert into seq_t values (1, 10), (2, 30), (3, 25)`)
	r := mustExec(t, e, `select k, v - lag(v, 1, v) over (order by k) as diff from seq_t order by k`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// first row: lag default = v itself, so diff = 0
	if r.Rows[0][1].(jsondom.Number) != "0" {
		t.Fatalf("first diff = %v", r.Rows[0])
	}
	if r.Rows[1][1].(jsondom.Number) != "20" || r.Rows[2][1].(jsondom.Number) != "-5" {
		t.Fatalf("diffs = %v", r.Rows)
	}
	// lag without default yields NULL on the first row
	r = mustExec(t, e, `select lag(v) over (order by k) from seq_t order by k`)
	if !isNull(r.Rows[0][0]) || r.Rows[1][0].(jsondom.Number) != "10" {
		t.Fatalf("lag nulls = %v", r.Rows)
	}
	// row_number and lead
	r = mustExec(t, e, `select row_number() over (order by v desc), lead(v) over (order by k) from seq_t order by k`)
	if r.Rows[0][0].(jsondom.Number) != "3" || r.Rows[0][1].(jsondom.Number) != "30" {
		t.Fatalf("row_number/lead = %v", r.Rows)
	}
}

func TestTransientDataGuideAgg(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `select json_dataguideagg(jdoc) from po`)
	flat := string(r.Rows[0][0].(jsondom.String))
	if !strings.Contains(flat, `"$.purchaseOrder.items.parts.partName"`) {
		t.Fatalf("dataguide missing deep path: %s", flat)
	}
	// filtered subset (Q3 of Table 9)
	r = mustExec(t, e, `select json_dataguideagg(jdoc) from po where json_exists(jdoc, '$.purchaseOrder.foreign_id')`)
	flat = string(r.Rows[0][0].(jsondom.String))
	if !strings.Contains(flat, "foreign_id") || strings.Contains(flat, `"$.purchaseOrder.items.name","type":"array of string","o:length":8`) {
		// the filtered guide must cover only doc 3
		_ = flat
	}
	if !strings.Contains(flat, "partName") {
		t.Fatalf("filtered guide wrong: %s", flat)
	}
	// group by (Q2 of Table 9)
	r = mustExec(t, e, `select mod(did, 2), json_dataguideagg(jdoc) from po group by mod(did, 2)`)
	if len(r.Rows) != 2 {
		t.Fatalf("grouped guides = %d", len(r.Rows))
	}
	// sampling (Q1 of Table 9) parses and runs
	r = mustExec(t, e, `select json_dataguideagg(jdoc) from po sample (50)`)
	if len(r.Rows) != 1 {
		t.Fatalf("sampled = %v", r.Rows)
	}
}

func TestSearchIndexDDLAndMaintenance(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, `create search index po_sx on po (jdoc) parameters ('DATAGUIDE ON')`)
	ix, ok := e.SearchIndex("po_sx")
	if !ok {
		t.Fatal("index not registered")
	}
	if ix.DocCount() != 3 {
		t.Fatalf("pre-existing rows indexed: %d", ix.DocCount())
	}
	dg := ix.DGTable()
	if len(dg) == 0 {
		t.Fatal("no $DG rows")
	}
	// inserting a doc with new structure adds $DG rows
	before := len(ix.DGTable())
	mustExec(t, e, `insert into po values (4, '{"purchaseOrder":{"id":4,"extra_field":true}}')`)
	after := len(ix.DGTable())
	if after != before+1 {
		t.Fatalf("dg rows %d -> %d, want +1", before, after)
	}
	if ix.DocCount() != 4 {
		t.Fatalf("doc count = %d", ix.DocCount())
	}
	// postings queries
	if ids := ix.DocsWithPath("$.purchaseOrder.foreign_id"); len(ids) != 1 {
		t.Fatalf("path postings = %v", ids)
	}
	if ids := ix.DocsWithKeyword("remotecon"); len(ids) != 1 {
		t.Fatalf("keyword postings = %v", ids)
	}
	if ids := ix.DocsWithValue("$.purchaseOrder.id", jsondom.Number("2")); len(ids) != 1 {
		t.Fatalf("value postings = %v", ids)
	}
	// duplicate index name rejected
	if _, err := e.Exec(`create search index po_sx on po (jdoc)`); err == nil {
		t.Fatal("dup index should fail")
	}
	mustExec(t, e, `drop index po_sx`)
	if _, ok := e.SearchIndex("po_sx"); ok {
		t.Fatal("index survived drop")
	}
	// a dropped index no longer hears of the table's writes
	mustExec(t, e, `insert into po values (5, '{"purchaseOrder":{"id":5}}')`)
	if ix.DocCount() != 4 {
		t.Fatalf("a dropped index indexed an insert: doc count %d", ix.DocCount())
	}
}

func TestVirtualColumnsAndAddVC(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, `alter table po add virtual column jdoc$id as json_value(jdoc, '$.purchaseOrder.id' returning number)`)
	r := mustExec(t, e, `select jdoc$id from po where jdoc$id > 1 order by 1`)
	if len(r.Rows) != 2 || r.Rows[0][0].(jsondom.Number) != "2" {
		t.Fatalf("vc rows = %v", r.Rows)
	}
	// VC appears in star expansion (not hidden)
	r = mustExec(t, e, `select * from po limit 1`)
	if len(r.Columns) != 3 {
		t.Fatalf("star cols = %v", r.Columns)
	}
	// hidden VC stays out of star expansion
	mustExec(t, e, `alter table po add hidden virtual column jdoc$oson as oson(jdoc)`)
	r = mustExec(t, e, `select * from po limit 1`)
	if len(r.Columns) != 3 {
		t.Fatalf("hidden vc leaked into star: %v", r.Columns)
	}
	// but is selectable explicitly, and holds OSON bytes
	r = mustExec(t, e, `select jdoc$oson from po where did = 1`)
	b := r.Rows[0][0].(jsondom.Binary)
	if len(b) < 4 || string(b[:4]) != oson.Magic {
		t.Fatal("hidden OSON vc content wrong")
	}
}

func TestVCRewrite(t *testing.T) {
	// JSON_VALUE in a query is rewritten to a matching VC reference
	e := newPOEngine(t)
	mustExec(t, e, `alter table po add virtual column jdoc$id as json_value(jdoc, '$.purchaseOrder.id' returning number)`)
	// matching JSON_VALUE text
	r := mustExec(t, e, `select did from po where json_value(jdoc, '$.purchaseOrder.id' returning number) = 2`)
	if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "2" {
		t.Fatalf("rewrite result = %v", r.Rows)
	}
}

func TestSubqueryAndSample(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `select s.d2 from (select did * 2 as d2 from po) s where s.d2 > 2 order by 1`)
	if len(r.Rows) != 2 || r.Rows[0][0].(jsondom.Number) != "4" {
		t.Fatalf("subquery = %v", r.Rows)
	}
	// deterministic sample returns a subset
	r = mustExec(t, e, `select count(*) from po sample (50)`)
	n, _ := r.Rows[0][0].(jsondom.Number).Int64()
	if n < 0 || n > 3 {
		t.Fatalf("sample count = %d", n)
	}
}

func TestParamBinding(t *testing.T) {
	e := newPOEngine(t)
	r := mustExec(t, e, `select did from po where did = ? or did = ?`,
		jsondom.Number("1"), jsondom.Number("3"))
	if len(r.Rows) != 2 {
		t.Fatalf("params = %v", r.Rows)
	}
	if _, err := e.Exec(`select did from po where did = ?`); err == nil {
		t.Fatal("missing param should fail")
	}
}

func TestViews(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, `create view v1 as select did d from po where did > 1`)
	r := mustExec(t, e, `select d from v1 order by d`)
	if len(r.Rows) != 2 {
		t.Fatalf("view rows = %v", r.Rows)
	}
	// view over view
	mustExec(t, e, `create view v2 as select d * 10 as dd from v1`)
	r = mustExec(t, e, `select dd from v2 order by 1 desc`)
	if r.Rows[0][0].(jsondom.Number) != "30" {
		t.Fatalf("nested view = %v", r.Rows)
	}
	if _, err := e.Exec(`create view v1 as select did from po`); err == nil {
		t.Fatal("dup view should fail")
	}
	mustExec(t, e, `create or replace view v1 as select did from po where did = 1`)
	r = mustExec(t, e, `select * from v1`)
	if len(r.Rows) != 1 {
		t.Fatalf("replaced view = %v", r.Rows)
	}
	mustExec(t, e, `drop view v2`)
	if _, err := e.Exec(`select * from v2`); err == nil {
		t.Fatal("dropped view should be gone")
	}
	// invalid view rejected at creation
	if _, err := e.Exec(`create view bad as select nocol from po`); err == nil {
		t.Fatal("invalid view should fail")
	}
}

func TestErrorCases(t *testing.T) {
	e := newPOEngine(t)
	bad := []string{
		`selec did from po`,
		`select did from`,
		`select did from nosuch`,
		`select nocol from po`,
		`select did from po where`,
		`select did from po where did ==`,
		`select p.did from po q`,
		`select did from po order by 99`,
		`select sum(did), did from po group by nothere`,
		`select count(*) from po having did > 1 order by`,
		`select unknown_func(did) from po`,
		`select did from po where did / 0 = 1`,
		`create table po (x number)`, // duplicate
		`drop table nosuch`,
		`drop view nosuch`,
		`drop index nosuch`,
		`alter table nosuch add virtual column v as did`,
		`create search index sx on nosuch (c)`,
		`create search index sx on po (nocol)`,
		`create search index sx on po (did)`, // no IS JSON check
	}
	for _, sql := range bad {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("%s: expected error", sql)
		}
	}
}

type fakeIMC struct {
	col  string
	vals map[int]jsondom.Value
}

func (f *fakeIMC) Substitute(rowID int, col string) (jsondom.Value, bool) {
	if col != f.col {
		return nil, false
	}
	v, ok := f.vals[rowID]
	return v, ok
}

func TestIMCSubstitution(t *testing.T) {
	e := newPOEngine(t)
	// substitute the jdoc column with pre-encoded OSON (OSON-IMC mode)
	sub := &fakeIMC{col: "jdoc", vals: map[int]jsondom.Value{}}
	tab, _ := e.Catalog().Table("po")
	tab.Scan(func(rid int, row store.Row) bool {
		b, err := oson.FromJSONText([]byte(row[1].(jsondom.String)))
		if err != nil {
			t.Fatal(err)
		}
		sub.vals[rid] = jsondom.Binary(b)
		return true
	})
	e.AttachIMC("po", sub)
	r := mustExec(t, e, `select json_value(jdoc, '$.purchaseOrder.id' returning number) from po order by 1`)
	if len(r.Rows) != 3 || r.Rows[2][0].(jsondom.Number) != "3" {
		t.Fatalf("imc rows = %v", r.Rows)
	}
	e.DetachIMC("po")
	r = mustExec(t, e, `select json_value(jdoc, '$.purchaseOrder.id' returning number) from po order by 1`)
	if len(r.Rows) != 3 {
		t.Fatalf("post-detach rows = %v", r.Rows)
	}
}

func TestInsertRowFastPath(t *testing.T) {
	e := newPOEngine(t)
	err := e.InsertRow("po", store.Row{jsondom.Number("10"), jsondom.String(`{"a":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRow("nosuch", store.Row{}); err == nil {
		t.Fatal("missing table should fail")
	}
	r := mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "4" {
		t.Fatalf("count = %v", r.Rows)
	}
}

func TestIndexAcceleratedJSONExists(t *testing.T) {
	e := newPOEngine(t)
	// without an index the query works via document evaluation
	q := `select did from po where json_exists(jdoc, '$.purchaseOrder.foreign_id')`
	base := mustExec(t, e, q)
	if len(base.Rows) != 1 {
		t.Fatalf("base = %v", base.Rows)
	}
	mustExec(t, e, `create search index po_sx on po (jdoc)`)
	got := mustExec(t, e, q)
	if len(got.Rows) != 1 || !jsondom.Equal(got.Rows[0][0], base.Rows[0][0]) {
		t.Fatalf("indexed = %v", got.Rows)
	}
	// residual conjuncts still apply on the reduced row set
	got = mustExec(t, e, q+` and did > 100`)
	if len(got.Rows) != 0 {
		t.Fatalf("residual filter ignored: %v", got.Rows)
	}
	// documents inserted after index creation are found
	mustExec(t, e, `insert into po values (50, '{"purchaseOrder":{"foreign_id":"ZZ"}}')`)
	got = mustExec(t, e, q)
	if len(got.Rows) != 2 {
		t.Fatalf("post-insert = %v", got.Rows)
	}
	// paths absent from every document yield zero rows without scanning
	got = mustExec(t, e, `select did from po where json_exists(jdoc, '$.nothing.here')`)
	if len(got.Rows) != 0 {
		t.Fatalf("phantom path = %v", got.Rows)
	}
	// filter paths are NOT index-eligible and must still work
	got = mustExec(t, e, `select did from po where json_exists(jdoc, '$.purchaseOrder.items[*]?(@.price > 300)')`)
	if len(got.Rows) != 2 {
		t.Fatalf("filter path = %v", got.Rows)
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	e := newPOEngine(t)
	// delete with predicate
	r := mustExec(t, e, `delete from po where did = 2`)
	if r.Rows[0][0].(jsondom.Number) != "1" {
		t.Fatalf("affected = %v", r.Rows)
	}
	r = mustExec(t, e, `select did from po order by did`)
	if len(r.Rows) != 2 || r.Rows[1][0].(jsondom.Number) != "3" {
		t.Fatalf("after delete = %v", r.Rows)
	}
	// deleted PK can be reused
	mustExec(t, e, `insert into po values (2, '{"purchaseOrder":{"id":2}}')`)
	r = mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "3" {
		t.Fatalf("after reinsert = %v", r.Rows)
	}
	// update with JSON predicate and expression over old row
	r = mustExec(t, e, `update po set did = did + 100 where json_exists(jdoc, '$.purchaseOrder.foreign_id')`)
	if r.Rows[0][0].(jsondom.Number) != "1" {
		t.Fatalf("update affected = %v", r.Rows)
	}
	r = mustExec(t, e, `select did from po where did > 100`)
	if len(r.Rows) != 1 || r.Rows[0][0].(jsondom.Number) != "103" {
		t.Fatalf("after update = %v", r.Rows)
	}
	// update replacing the document re-validates IS JSON
	if _, err := e.Exec(`update po set jdoc = 'not json' where did = 1`); err == nil {
		t.Fatal("invalid document update should fail")
	}
	mustExec(t, e, `update po set jdoc = '{"purchaseOrder":{"id":1,"patched":true}}' where did = 1`)
	r = mustExec(t, e, `select did from po where json_exists(jdoc, '$.purchaseOrder.patched')`)
	if len(r.Rows) != 1 {
		t.Fatalf("patched doc = %v", r.Rows)
	}
	// PK uniqueness enforced on update
	if _, err := e.Exec(`update po set did = 1 where did = 103`); err == nil {
		t.Fatal("duplicate PK update should fail")
	}
	// delete everything
	r = mustExec(t, e, `delete from po`)
	if n, _ := r.Rows[0][0].(jsondom.Number).Int64(); n != 3 {
		t.Fatalf("delete all = %v", r.Rows)
	}
	r = mustExec(t, e, `select count(*) from po`)
	if r.Rows[0][0].(jsondom.Number) != "0" {
		t.Fatalf("post truncate = %v", r.Rows)
	}
	// errors
	if _, err := e.Exec(`delete from nosuch`); err == nil {
		t.Fatal("missing table delete")
	}
	if _, err := e.Exec(`update po set nocol = 1`); err == nil {
		t.Fatal("missing column update")
	}
	if _, err := e.Exec(`update nosuch set a = 1`); err == nil {
		t.Fatal("missing table update")
	}
}

func TestDeleteVisibilityInViewsAndIndexes(t *testing.T) {
	e := newPOEngine(t)
	mustExec(t, e, poDMDV)
	mustExec(t, e, `create search index po_sx on po (jdoc)`)
	before := mustExec(t, e, `select count(*) from po_dmdv`)
	mustExec(t, e, `delete from po where did = 1`)
	after := mustExec(t, e, `select count(*) from po_dmdv`)
	b, _ := before.Rows[0][0].(jsondom.Number).Int64()
	a, _ := after.Rows[0][0].(jsondom.Number).Int64()
	if a != b-2 { // doc 1 contributed 2 item rows
		t.Fatalf("view rows %d -> %d", b, a)
	}
	// index-driven scans skip tombstoned postings
	r := mustExec(t, e, `select did from po where json_exists(jdoc, '$.purchaseOrder.items')`)
	if len(r.Rows) != 2 {
		t.Fatalf("indexed scan after delete = %v", r.Rows)
	}
}

func TestIndexAcceleratedTextContains(t *testing.T) {
	e := newPOEngine(t)
	q := `select did from po where json_textcontains(jdoc, '$.purchaseOrder.items', 'remotecon')`
	base := mustExec(t, e, q)
	mustExec(t, e, `create search index po_sx on po (jdoc)`)
	got := mustExec(t, e, q)
	if len(got.Rows) != len(base.Rows) || len(got.Rows) != 1 {
		t.Fatalf("indexed textcontains = %v vs %v", got.Rows, base.Rows)
	}
	// path scoping still applies via the residual predicate: the word
	// exists in the doc but not under $.purchaseOrder.podate
	r := mustExec(t, e, `select did from po where json_textcontains(jdoc, '$.purchaseOrder.podate', 'remotecon')`)
	if len(r.Rows) != 0 {
		t.Fatalf("path scoping lost: %v", r.Rows)
	}
	// combining exists + textcontains intersects candidates
	r = mustExec(t, e, `select did from po
		where json_exists(jdoc, '$.purchaseOrder.foreign_id')
		  and json_textcontains(jdoc, '$.purchaseOrder', 'remotecon')`)
	if len(r.Rows) != 1 {
		t.Fatalf("combined = %v", r.Rows)
	}
	r = mustExec(t, e, `select did from po
		where json_exists(jdoc, '$.purchaseOrder.foreign_id')
		  and json_textcontains(jdoc, '$.purchaseOrder', 'phone')`)
	if len(r.Rows) != 0 {
		t.Fatalf("disjoint combined = %v", r.Rows)
	}
}
