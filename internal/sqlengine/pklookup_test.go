package sqlengine

// Tests for ISSUE 19's fixed per-query cost: the regression gate (a
// one-row query allocates for one row and, by key, examines one), the
// arena's growth properties, and the primary-key access path against
// the scan it replaces on keys that DML has moved around.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/jsondom"
)

// TestPointQueryCostsOneRow is the gate the 128 KB first slab would
// have failed (264 KB per query, two arenas for one output row): a
// prepared point query, through vector kernels or through the key, stays
// under 8 KB per execution, and the keyed one examines exactly its row.
func TestPointQueryCostsOneRow(t *testing.T) {
	e := newCorpusEngine(t, "oson-imc")
	e.Planner.fanout = 1
	for _, q := range []struct {
		sql, want, scan string
		param           jsondom.Value
	}{
		{`select count(*) from d where vn = ?`, "[[1]]", "TableScan(d batch vec-filters=1)", jsondom.NumberFromInt(700)},
		{`select did, vs from d where did = ?`, "[[700 s10]]", "TableScan(d via-pk)", jsondom.NumberFromInt(700)},
	} {
		ps, err := e.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := ps.Query(q.param); err != nil || fmt.Sprint(r.Rows) != q.want {
			t.Fatalf("%s: rows %v, err %v, want %s", q.sql, r, err, q.want)
		}
		plan := explainPlan(t, e, "explain analyze "+q.sql, q.param)
		if !strings.Contains(plan, q.scan+"  (est-rows=1)  (rows=1 ") {
			t.Errorf("%s: the scan does not examine exactly one row:\n%s", q.sql, plan)
		}
		if raceEnabled {
			continue // the byte bound is about the plain build
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ps.Query(q.param); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got > 8<<10 {
			t.Errorf("%s: %d bytes allocated per execution, want at most 8 KB", q.sql, got)
		}
	}
}

// TestRowArenaGrowsFromDemand checks the arena's contract over random
// row widths and counts: carved rows never alias, an append to a row
// cannot reach its neighbour, no slab exceeds max(arenaSlabValues, n),
// and all slabs together stay within twice the values consumed plus the
// first slab. Consumed means carved or left behind at the tail of a
// slab the next row did not fit — without the tails the bound is false
// for any doubling policy (width 3: slabs 32+64+128+256 = 480 hold 222
// carved values when the fourth is allocated, and 2*222+32 = 476).
func TestRowArenaGrowsFromDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 120; trial++ {
		maxWidth := []int{1, 3, 8, 40, 300, 3 * arenaSlabValues}[trial%6]
		var a rowArena
		var rows [][]jsondom.Value
		carved, tails, slabs := 0, 0, 0
		for i, n := 0, rng.Intn(min(4000, 1+200000/maxWidth)); i < n; i++ {
			w := rng.Intn(maxWidth + 1)
			left := len(a.slab)
			row := a.alloc(w)
			if len(a.slab) != left-w { // a new slab
				size := len(a.slab) + w
				if size > arenaSlabValues && size > w {
					t.Fatalf("trial %d: a slab of %d values for a row of %d", trial, size, w)
				}
				slabs, tails = slabs+size, tails+left
			}
			if len(row) != w || cap(row) != w {
				t.Fatalf("trial %d: row of width %d has len %d cap %d", trial, w, len(row), cap(row))
			}
			mark := jsondom.Value(jsondom.NumberFromInt(int64(i)))
			for j := range row {
				row[j] = mark
			}
			rows = append(rows, row)
			carved += w
			if slabs > 2*(carved+tails)+arenaFirstSlab {
				t.Fatalf("trial %d, row %d: %d slab values for %d carved and %d left in tails", trial, i, slabs, carved, tails)
			}
		}
		for _, row := range rows {
			_ = append(row, jsondom.String("spill"))
		}
		for i, row := range rows {
			for _, v := range row {
				if v != jsondom.Value(jsondom.NumberFromInt(int64(i))) {
					t.Fatalf("trial %d: row %d was overwritten with %v", trial, i, v)
				}
			}
		}
	}
	var a rowArena
	a.alloc(3)
	if got := len(a.slab) + 3; got != arenaFirstSlab {
		t.Fatalf("a one-row result pins a slab of %d values, want %d", got, arenaFirstSlab)
	}
}

// TestPKLookupMatchesScan runs every key predicate against k, which has
// a primary key, and nk, the same rows without one, after each step of
// a history that deletes, re-inserts and re-keys rows, attaches an
// in-memory store and inserts past it. The rows must be equal whichever
// path answers, and the path must be the lookup exactly where the
// planner can prove one.
func TestPKLookupMatchesScan(t *testing.T) {
	num := func(i int64) jsondom.Value { return jsondom.NumberFromInt(i) }
	for _, cfg := range corpusConfigs() {
		e := New()
		cfg.set(&e.Planner)
		both := func(sql string, params ...jsondom.Value) {
			t.Helper()
			for _, tab := range []string{"k", "nk"} {
				mustExec(t, e, strings.ReplaceAll(sql, "$T", tab), params...)
			}
		}
		mustExec(t, e, `create table k (id number primary key, jdoc varchar2(4000) check (jdoc is json))`)
		mustExec(t, e, `create table nk (id number, jdoc varchar2(4000) check (jdoc is json))`)
		for i := 0; i < 40; i++ {
			both(`insert into $T values (?, ?)`, num(int64(i)), jsondom.String(fmt.Sprintf(`{"a":%d}`, i)))
		}
		both(`alter table $T add virtual column va as json_value(jdoc, '$.a' returning number)`)

		preds := []struct {
			where  string
			params []jsondom.Value
			lookup bool // the planner picks the lookup
		}{
			{`id = 5`, nil, true},
			{`5 = id`, nil, true},
			{`x.id = 7`, nil, true},
			{`id = ?`, []jsondom.Value{num(5)}, true},
			{`? = id`, []jsondom.Value{num(39)}, true},
			{`id = 5 and va = 5`, nil, true},
			{`va = 6 and id = 5`, nil, true},
			{`id = 5 or id = 6`, nil, false},
			{`id = 5 and id = 6`, nil, true},
			{`id = 4000`, nil, true},
			{`id = 41`, nil, true},
			{`id = 50`, nil, true},
			{`id = 5.0`, nil, true},
			{`id = 5e0`, nil, true},
			// the probe declines these at Open and the scan answers
			{`id = '5'`, nil, true},
			{`id = 5.5`, nil, true},
			{`id = 5.00000000000000000001`, nil, true},
			{`id = null`, nil, true},
			{`id = ?`, []jsondom.Value{jsondom.String("5")}, true},
			{`id = ?`, []jsondom.Value{jsondom.Number("5.0")}, true},
			{`id = ?`, []jsondom.Value{jsondom.Number("-0")}, true},
			{`id = ?`, []jsondom.Value{jsondom.Double(5)}, true},
			{`id = ?`, []jsondom.Value{jsondom.Null{}}, true},
			{`id = ?`, []jsondom.Value{jsondom.Bool(true)}, true},
			{`id + 0 = 5`, nil, false},
			{`id >= 5 and id <= 5`, nil, false},
		}
		check := func(step string) {
			t.Helper()
			for _, p := range preds {
				q := `select id, va, jdoc from $T x where ` + p.where + ` order by id`
				want := fmt.Sprint(mustExec(t, e, strings.ReplaceAll(q, "$T", "nk"), p.params...).Rows)
				kq := strings.ReplaceAll(q, "$T", "k")
				if got := fmt.Sprint(mustExec(t, e, kq, p.params...).Rows); got != want {
					t.Errorf("%s, after %s: %s\n  with the key %s\n  without   %s", cfg.label, step, p.where, got, want)
				}
				plan := explainPlan(t, e, "explain "+kq, p.params...)
				if strings.Contains(plan, "TableScan(k via-pk)") != p.lookup {
					t.Errorf("%s, after %s: %s: lookup chosen = %v, want %v:\n%s", cfg.label, step, p.where, !p.lookup, p.lookup, plan)
				}
			}
		}
		check("the load")
		both(`delete from $T where id = 5`)
		check("deleting key 5")
		both(`insert into $T values (5, '{"a":-5}')`)
		check("re-inserting key 5")
		both(`update $T set id = 41 where id = 7`)
		check("re-keying 7 as 41")
		both(`update $T set id = 7 where id = 39`)
		check("re-keying 39 as 7")
		attachIMC(t, e, "k", "va")
		attachIMC(t, e, "nk", "va")
		check("attaching a store")
		both(`insert into $T values (50, '{"a":50}')`)
		check("inserting past the store")
		both(`update $T set jdoc = '{"a":500}' where id = 50`)
		check("an update that detaches the store")
		// a key outside the exact class turns every probe of the table off
		both(`insert into $T values (5.00000000000000000001, '{"a":0}')`)
		check("a key that only float64 calls 5")
		plan := explainPlan(t, e, `explain analyze select id from k where id = 5`)
		if !strings.Contains(plan, "via-pk declined: scanned") {
			t.Errorf("%s: EXPLAIN ANALYZE hides that the probe declined:\n%s", cfg.label, plan)
		}
	}
}
