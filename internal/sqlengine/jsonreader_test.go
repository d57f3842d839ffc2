package sqlengine

// The scalar SQL/JSON operators read OSON datums through one reused
// sqljson.Reader per operator context: their allocations must not grow
// with the row count, a corrupt document must surface as an error on
// any row, and rebinding the reader must never change an answer.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/oson"
)

// readerDoc is row i's document; every fifth one holds "x" in $.arr.
func readerDoc(i int) string {
	mark := "y"
	if i%5 == 0 {
		mark = "x"
	}
	return fmt.Sprintf(`{"k":%d,"tag":"t%02d","arr":["a%d","%s"],"nested":{"v":%d}}`,
		i%7, i%40, i%3, mark, i%11)
}

// newReaderEngine builds r (id, jdoc) with n rows and, when withIMC,
// an attached in-memory store holding the documents as OSON.
func newReaderEngine(t testing.TB, n int, withIMC bool) *Engine {
	t.Helper()
	e := New()
	if _, err := e.Exec(`create table r (id number primary key, jdoc varchar2(4000) check (jdoc is json))`); err != nil {
		t.Fatal(err)
	}
	ins, err := e.Prepare(`insert into r values (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ins.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(readerDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if withIMC {
		tab, _ := e.Catalog().Table("r")
		mem := imc.NewStore(tab)
		if err := mem.PopulateOSON("jdoc"); err != nil {
			t.Fatal(err)
		}
		e.AttachIMC("r", mem)
	}
	return e
}

// TestJSONOperatorAllocsFlatInRows: over an OSON store, a json_exists
// residual and a select list of two json_value calls allocate per
// statement, not per row — the operator's reader is bound once per row
// and allocated once per context.
func TestJSONOperatorAllocsFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	queries := []string{
		`select count(*) from r where json_exists(jdoc, '$.arr[*]?(@ == "x")')`,
		`select max(json_value(jdoc, '$.k' returning number)), min(json_value(jdoc, '$.nested.v' returning number)) from r`,
	}
	const small, large = 64, 2048
	for _, q := range queries {
		per := map[int]float64{}
		for _, n := range []int{small, large} {
			e := newReaderEngine(t, n, true)
			// a scan fleet costs per worker, and the worker count
			// follows the machine; this test is about rows
			e.Planner.DisableParallelScan = true
			mustExec(t, e, q) // warm the plan cache and the pools
			per[n] = testing.AllocsPerRun(5, func() {
				if _, err := e.Exec(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		if d := per[large] - per[small]; d >= large/16 {
			t.Errorf("%s\n  allocs: %v at %d rows, %v at %d rows: +%v, want < %d",
				q, per[small], small, per[large], large, d, large/16)
		}
	}
}

// osonRawEngine builds o (id, odoc raw) holding OSON bytes directly, so
// a test can store a corrupt document between good ones.
func osonRawEngine(t *testing.T, docs []jsondom.Value) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table o (id number, odoc raw(8000))`)
	for i, d := range docs {
		mustExec(t, e, `insert into o values (?, ?)`, jsondom.NumberFromInt(int64(i)), d)
	}
	return e
}

func goodOSON(t *testing.T, i int) jsondom.Value {
	t.Helper()
	b, err := oson.FromJSONText([]byte(readerDoc(i)))
	if err != nil {
		t.Fatal(err)
	}
	return jsondom.Binary(b)
}

// corruptOSON keeps a valid header over a tree segment of 0xff bytes:
// Bind succeeds and navigation fails.
func corruptOSON(t *testing.T) jsondom.Value {
	t.Helper()
	b := append([]byte(nil), goodOSON(t, 1).(jsondom.Binary)...)
	treeOff, valOff := binary.LittleEndian.Uint32(b[9:]), binary.LittleEndian.Uint32(b[13:])
	for i := treeOff; i < valOff; i++ {
		b[i] = 0xff
	}
	return jsondom.Binary(b)
}

// TestJSONReaderCorruptRow: a corrupt OSON row between good rows is an
// ErrCorrupt for every operator, never a panic; the tree's sticky error
// does not outlive the statement that met it.
func TestJSONReaderCorruptRow(t *testing.T) {
	queries := []string{
		`select count(*) from o where json_exists(odoc, '$.arr[*]?(@ == "x")')`,
		`select json_value(odoc, '$.nested.v' returning number) from o`,
		`select json_value(odoc, '$.arr[1]') from o`,
		`select json_query(odoc, '$.arr') from o`,
		`select id from o where json_textcontains(odoc, '$.tag', 't01')`,
	}
	var good []jsondom.Value
	for i := 0; i < 6; i++ {
		good = append(good, goodOSON(t, i))
	}
	clean := osonRawEngine(t, append(append([]jsondom.Value{}, good[:3]...), good[4:]...))
	badHeader := append([]byte(oson.Magic), 0, 1, 2, 3)
	for name, bad := range map[string]jsondom.Value{
		"tree":   corruptOSON(t),
		"header": jsondom.Binary(badHeader),
	} {
		docs := append([]jsondom.Value{}, good...)
		docs[3] = bad
		e := osonRawEngine(t, docs)
		for _, q := range queries {
			if _, err := e.Exec(q); !errors.Is(err, oson.ErrCorrupt) {
				t.Errorf("%s: %s: err = %v, want ErrCorrupt", name, q, err)
			}
		}
		// the same statements, from the plan cache, over the good rows
		mustExec(t, e, `delete from o where id = 3`)
		for _, q := range queries {
			got := fmt.Sprint(mustExec(t, e, q).Rows)
			if want := fmt.Sprint(mustExec(t, clean, q).Rows); got != want {
				t.Errorf("%s: after the corrupt row: %s = %s, want %s", name, q, got, want)
			}
		}
	}
}

// TestJSONReaderJoinResidual: a join residual compares json_value over
// both inputs in one context, so the reader rebinds between the two
// operands; the first operand's value must survive the second bind.
func TestJSONReaderJoinResidual(t *testing.T) {
	q := `select a.id, b.id from r a join r b on a.id = b.id + 1
		where json_value(a.jdoc, '$.tag') > json_value(b.jdoc, '$.tag')
		and json_value(a.jdoc, '$.k' returning number) <> json_value(b.jdoc, '$.nested.v' returning number)
		order by a.id`
	e := newReaderEngine(t, 300, true)
	e.Planner.DisableParallelScan = true
	got := fmt.Sprint(mustExec(t, e, q).Rows)
	e.DetachIMC("r")
	want := fmt.Sprint(mustExec(t, e, q).Rows)
	if got != want {
		t.Fatalf("with the store: %s\nwithout:        %s", clip(got), clip(want))
	}
	if got == "[]" {
		t.Fatal("the residual selected nothing")
	}
}

// TestParallelScanJSONReader: each scan worker binds its own reader.
// JSON residuals above the parallel threshold return what the serial
// scan and the text path return.
func TestParallelScanJSONReader(t *testing.T) {
	qs := []string{
		`select id from r where json_exists(jdoc, '$.arr[*]?(@ == "x")') and json_value(jdoc, '$.k' returning number) > 2 order by id`,
		`select id, json_value(jdoc, '$.tag'), json_query(jdoc, '$.arr') from r where json_textcontains(jdoc, '$.tag', 't07') order by id`,
	}
	e := newReaderEngine(t, 2048, true)
	e.Planner.ParallelMinRows = 1
	e.Planner.ParallelDegree = 4
	run := func() []string {
		var out []string
		for _, q := range qs {
			out = append(out, fmt.Sprint(mustExec(t, e, q).Rows))
		}
		return out
	}
	for _, q := range qs {
		if plan := fmt.Sprint(mustExec(t, e, `explain `+q).Rows); !strings.Contains(plan, "ParallelScan") {
			t.Fatalf("no parallel scan: %s", plan)
		}
	}
	parallel := run()
	e.Planner.DisableParallelScan = true
	serial := run()
	e.DetachIMC("r")
	text := run()
	for i, q := range qs {
		if parallel[i] != serial[i] || parallel[i] != text[i] {
			t.Errorf("%s\nparallel: %s\nserial:   %s\ntext:     %s", q, clip(parallel[i]), clip(serial[i]), clip(text[i]))
		}
		if parallel[i] == "[]" {
			t.Errorf("%s selected nothing", q)
		}
	}
}
