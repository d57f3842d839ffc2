package sqlengine

// Safety net for UPDATE / DELETE reading through the SELECT planner
// (dmlRead): a seeded interleaving against a map model over every
// access path the planner can pick for a DML predicate, faults landed
// in the read and in the write half of a large UPDATE, and the
// plan-time checks a DML WHERE now gets.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/store"
)

// modelRow is the map model's copy of one row of m.
type modelRow struct {
	k, n int
	opt  bool
}

const dmlModelRows = 1300 // two IMC chunks

// newDMLModelEngine builds m (id, jdoc, n) with a number virtual column
// vk over $.k (0..6), "opt" present in every third document, and a
// postings-enabled search index, and returns the matching model.
func newDMLModelEngine(t *testing.T) (*Engine, map[int]*modelRow) {
	t.Helper()
	e := New()
	mustExec(t, e, `create table m (id number primary key, jdoc varchar2(4000) check (jdoc is json), n number)`)
	mustExec(t, e, `create search index mix on m (jdoc)`)
	model := map[int]*modelRow{}
	for i := 0; i < dmlModelRows; i++ {
		doc := fmt.Sprintf(`{"k":%d,"tag":"t%d"}`, i%7, i%5)
		if i%3 == 0 {
			doc = fmt.Sprintf(`{"k":%d,"tag":"t%d","opt":%d}`, i%7, i%5, i)
		}
		row := store.Row{jsondom.NumberFromInt(int64(i)), jsondom.String(doc), jsondom.NumberFromInt(int64(i % 11))}
		if err := e.InsertRow("m", row); err != nil {
			t.Fatal(err)
		}
		model[i] = &modelRow{k: i % 7, n: i % 11, opt: i%3 == 0}
	}
	mustExec(t, e, `alter table m add virtual column vk as json_value(jdoc, '$.k' returning number)`)
	return e, model
}

// checkModel compares the whole table with the model.
func checkModel(t *testing.T, e *Engine, model map[int]*modelRow, step int, last string) {
	t.Helper()
	ids := make([]int, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	want := make([]string, len(ids))
	for i, id := range ids {
		want[i] = fmt.Sprintf("[%d %d %d]", id, model[id].n, model[id].k)
	}
	got := fmt.Sprint(mustExec(t, e, `select id, n, vk from m order by id`).Rows)
	if got != "["+strings.Join(want, " ")+"]" {
		t.Fatalf("step %d, after %q: table diverges from the model:\n  got  %s\n  want [%s]", step, last, clip(got), clip(strings.Join(want, " ")))
	}
}

const optSQL = `select id from m where json_exists(jdoc, '$.opt') order by id`

// checkOpt compares the rows holding $.opt read through the search
// index, read with index scans disabled, and kept by the model.
func checkOpt(t *testing.T, e *Engine, model map[int]*modelRow, when string) {
	t.Helper()
	var ids []int
	for id, r := range model {
		if r.opt {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	want := make([]string, len(ids))
	for i, id := range ids {
		want[i] = fmt.Sprintf("[%d]", id)
	}
	viaIndex := fmt.Sprint(mustExec(t, e, optSQL).Rows)
	e.Planner.DisableIndexScan = true
	scanned := fmt.Sprint(mustExec(t, e, optSQL).Rows)
	e.Planner.DisableIndexScan = false
	if w := "[" + strings.Join(want, " ") + "]"; viaIndex != w || scanned != w {
		t.Fatalf("%s: rows with $.opt via the index %s, with index scans disabled %s, in the model %s", when, clip(viaIndex), clip(scanned), clip(w))
	}
}

// TestDMLInterleavingAgainstModel runs a seeded mix of INSERT, UPDATE,
// DELETE and SELECT whose predicates cover a primary-key equality
// (literal and bind), a virtual-column comparison, the JSON_VALUE
// spelling the VC rewrite turns into one, JSON_EXISTS over the search
// index with a residual, and no WHERE at all, under both scan configs.
// Some UPDATEs rewrite jdoc, adding or removing $.opt (and moving $.k),
// through each kind of predicate; after every step JSON_EXISTS over
// $.opt answers the same through the search index as with index scans
// disabled, and as the model says.
// With a store, it is populated and attached at random steps — after
// deletes too — and stays attached, and subscribed to the table, for all
// the statements that follow: the reads of UPDATE and DELETE go through
// it like the SELECTs do, and meet a fresh store, one with rows pending
// in its delta, one that has folded them and one populated over
// tombstones. The key-equality UPDATE and DELETE arms go through the
// primary-key lookup in every one of those states and under both
// configs (a row-id scan never fans out): their scan selects the one
// row, or none when the key is gone.
func TestDMLInterleavingAgainstModel(t *testing.T) {
	num := func(v int) jsondom.Value { return jsondom.NumberFromInt(int64(v)) }
	for _, withIMC := range []bool{false, true} {
		for _, cfg := range corpusConfigs() {
			e, model := newDMLModelEngine(t)
			cfg.set(&e.Planner)
			rng := rand.New(rand.NewSource(17))
			label := fmt.Sprintf("imc=%v %s", withIMC, cfg.label)
			nextID := dmlModelRows
			if plan := explainPlan(t, e, `explain `+optSQL); !strings.Contains(plan, "via-index") {
				t.Fatalf("%s: %s does not read the search index:\n%s", label, optSQL, plan)
			}
			for _, q := range []string{`id = 5`, `id = ?`, `? = id and n > 0`} {
				plan := explainPlan(t, e, `explain select id from m where `+q, num(5))
				if !strings.Contains(plan, "TableScan(m via-pk)") || strings.Contains(plan, "ParallelScan") {
					t.Fatalf("%s: where %s does not plan a serial key lookup:\n%s", label, q, plan)
				}
			}
			const steps = 160
			for step := 0; step < steps; step++ {
				checkOpt(t, e, model, fmt.Sprintf("%s before step %d", label, step))
				if withIMC && rng.Intn(3) == 0 {
					attachIMC(t, e, "m", "vk")
				}
				var sql string
				var params []jsondom.Value
				var hit func(id int, r *modelRow) bool
				var apply func(r *modelRow) // nil deletes the row
				byKey := false              // the predicate is `id = ...` alone
				id, c := rng.Intn(nextID), rng.Intn(8)
				rewrite := func(opt bool) func(r *modelRow) {
					doc := fmt.Sprintf(`{"k":%d,"tag":"w"}`, c%7)
					if opt {
						doc = fmt.Sprintf(`{"k":%d,"tag":"w","opt":%d}`, c%7, id)
					}
					params = append([]jsondom.Value{jsondom.String(doc)}, params...)
					return func(r *modelRow) { r.k, r.opt = c%7, opt }
				}
				switch op := rng.Intn(15); op {
				case 0:
					sql, byKey = fmt.Sprintf(`update m set n = n + 1 where id = %d`, id), true
					hit = func(i int, _ *modelRow) bool { return i == id }
					apply = func(r *modelRow) { r.n++ }
				case 1:
					sql, params, byKey = `update m set n = ? where id = ?`, []jsondom.Value{num(c), num(id)}, true
					hit = func(i int, _ *modelRow) bool { return i == id }
					apply = func(r *modelRow) { r.n = c }
				case 2:
					sql, params = `update m set n = n + 10 where vk >= ?`, []jsondom.Value{num(c)}
					hit = func(_ int, r *modelRow) bool { return r.k >= c }
					apply = func(r *modelRow) { r.n += 10 }
				case 3:
					sql = fmt.Sprintf(`update m set n = n + 100 where json_value(jdoc, '$.k' returning number) = %d`, c)
					hit = func(_ int, r *modelRow) bool { return r.k == c }
					apply = func(r *modelRow) { r.n += 100 }
				case 4:
					sql, params = `update m set n = 0 - n where json_exists(jdoc, '$.opt') and id < ?`, []jsondom.Value{num(id)}
					hit = func(i int, r *modelRow) bool { return r.opt && i < id }
					apply = func(r *modelRow) { r.n = -r.n }
				case 5:
					sql = `update m set n = n + 1`
					hit = func(int, *modelRow) bool { return true }
					apply = func(r *modelRow) { r.n++ }
				case 6:
					sql, params = `select count(*) from m where vk = ? and n >= 0`, []jsondom.Value{num(c)}
					want := 0
					for _, r := range model {
						if r.k == c && r.n >= 0 {
							want++
						}
					}
					if got := fmt.Sprint(mustExec(t, e, sql, params...).Rows); got != fmt.Sprintf("[[%d]]", want) {
						t.Fatalf("%s step %d: %s = %s, want %d", label, step, sql, got, want)
					}
					continue
				case 7:
					sql, params, byKey = `delete from m where id = ?`, []jsondom.Value{num(id)}, true
					hit = func(i int, _ *modelRow) bool { return i == id }
				case 8:
					sql, params = `delete from m where vk = ? and n > ?`, []jsondom.Value{num(c), num(100 + c)}
					hit = func(_ int, r *modelRow) bool { return r.k == c && r.n > 100+c }
				case 9:
					sql, params = `delete from m where json_exists(jdoc, '$.opt') and id >= ? and id < ?`, []jsondom.Value{num(id), num(id + 40)}
					hit = func(i int, r *modelRow) bool { return r.opt && i >= id && i < id+40 }
				case 10:
					sql, params, byKey = `update m set jdoc = ? where id = ?`, []jsondom.Value{num(id)}, true
					hit = func(i int, _ *modelRow) bool { return i == id }
					apply = rewrite(c%2 == 0)
				case 11:
					sql, params = `update m set jdoc = ? where id >= ? and id < ?`, []jsondom.Value{num(id), num(id + 20)}
					hit = func(i int, _ *modelRow) bool { return i >= id && i < id+20 }
					apply = rewrite(c%2 == 0)
				case 12:
					sql, params = `update m set jdoc = ? where json_exists(jdoc, '$.opt') and n > ?`, []jsondom.Value{num(c * 4)}
					hit = func(_ int, r *modelRow) bool { return r.opt && r.n > c*4 }
					apply = rewrite(false)
				default:
					doc := fmt.Sprintf(`{"k":%d,"tag":"new","opt":1}`, c%7)
					mustExec(t, e, `insert into m values (?, ?, ?)`, num(nextID), jsondom.String(doc), num(c))
					model[nextID] = &modelRow{k: c % 7, n: c, opt: true}
					nextID++
					continue
				}
				want := 0
				for i, r := range model {
					if hit(i, r) {
						want++
						if apply == nil {
							delete(model, i)
						} else {
							apply(r)
						}
					}
				}
				scanned := mScanRows.Value()
				if got := fmt.Sprint(mustExec(t, e, sql, params...).Rows); got != fmt.Sprintf("[[%d]]", want) {
					t.Fatalf("%s step %d: %s affected %s rows, want %d", label, step, sql, got, want)
				}
				if scanned = mScanRows.Value() - scanned; byKey && scanned != int64(want) {
					t.Fatalf("%s step %d: %s scanned %d rows to write %d", label, step, sql, scanned, want)
				}
				if step%10 == 9 {
					checkModel(t, e, model, step, sql)
				}
			}
			checkModel(t, e, model, steps, "the last step")
			checkOpt(t, e, model, label+" after the last step")
			if withIMC {
				if plan := explainPlan(t, e, `explain select id from m where vk >= 1`); !strings.Contains(plan, "vec-filters=1") {
					t.Fatalf("%s: the store did not survive %d steps of DML:\n%s", label, steps, plan)
				}
				// and the read of an UPDATE gets its kernels
				chunks := mIMCScanChunks.Value()
				mustExec(t, e, `update m set n = n where vk >= ?`, num(6))
				if mIMCScanChunks.Value() == chunks {
					t.Fatalf("%s: update ... where vk >= ? ran no vector kernel", label)
				}
			}
			if got := fmt.Sprint(mustExec(t, e, `delete from m`).Rows); got != fmt.Sprintf("[[%d]]", len(model)) {
				t.Fatalf("%s: delete without WHERE affected %s rows, want %d", label, got, len(model))
			}
			if n := len(mustExec(t, e, `select id from m`).Rows); n != 0 {
				t.Fatalf("%s: %d rows survive delete without WHERE", label, n)
			}
		}
	}
}

// TestSearchIndexFollowsUpdates: an UPDATE that adds a path to one
// document and removes it from another moves the path's postings, so
// JSON_EXISTS answers the same through the index as without it.
func TestSearchIndexFollowsUpdates(t *testing.T) {
	e := New()
	mustExec(t, e, `create table m (id number primary key, jdoc varchar2(4000) check (jdoc is json))`)
	mustExec(t, e, `create search index mix on m (jdoc)`)
	for i := 0; i < 50; i++ {
		doc := fmt.Sprintf(`{"k":%d}`, i)
		if i == 3 {
			doc = `{"k":3,"opt":1}`
		}
		mustExec(t, e, `insert into m values (?, ?)`, jsondom.NumberFromInt(int64(i)), jsondom.String(doc))
	}
	mustExec(t, e, `update m set jdoc = '{"k":7,"opt":2}' where id = 7`)
	mustExec(t, e, `update m set jdoc = '{"k":3}' where id = 3`)
	const q = `select id from m where json_exists(jdoc, '$.opt')`
	if plan := explainPlan(t, e, `explain `+q); !strings.Contains(plan, "TableScan(m via-index)") {
		t.Fatalf("the query does not read the index:\n%s", plan)
	}
	for _, disable := range []bool{false, true} {
		e.Planner.DisableIndexScan = disable
		if got := fmt.Sprint(mustExec(t, e, q).Rows); got != "[[7]]" {
			t.Fatalf("DisableIndexScan=%v: %s = %s, want [[7]]", disable, q, got)
		}
	}
}

// TestDMLOverMaintainedStore pins the two states in which an attached
// store used to disagree with its table, each reached through the public
// API alone: a row inserted after the population, and a population over
// a tombstone. The store now agrees with the table in both — the insert
// reaches it through its subscription, the population leaves a null slot
// under the tombstone — so UPDATE and DELETE read through it, kernels
// and all, and write exactly the rows the predicate names.
func TestDMLOverMaintainedStore(t *testing.T) {
	e, model := newDMLModelEngine(t)
	e.Planner.fanout = 1
	attachIMC(t, e, "m", "vk")
	mustExec(t, e, `insert into m values (9001, '{"k":3,"tag":"new"}', 1)`)
	model[9001] = &modelRow{k: 3, n: 99}
	if plan := explainPlan(t, e, `explain select id from m where vk = 3 and id > 9000`); !strings.Contains(plan, "imc: delta=1 stale=0") {
		t.Fatalf("EXPLAIN does not report the pending insert:\n%s", plan)
	}
	if got := fmt.Sprint(mustExec(t, e, `select id from m where vk = 3 and id > 9000`).Rows); got != "[[9001]]" {
		t.Fatalf("select of the row inserted after the population = %s", got)
	}
	selected := mIMCScanSelRows.Value()
	if got := fmt.Sprint(mustExec(t, e, `update m set n = 99 where vk = 3 and id > 9000`).Rows); got != "[[1]]" {
		t.Fatalf("update of the row inserted after the population affected %s rows, want 1", got)
	}
	if mIMCScanSelRows.Value() == selected {
		t.Fatal("the update's read ran no vector kernel")
	}
	checkModel(t, e, model, 1, "update of a row inserted after the population")
	if plan := explainPlan(t, e, `explain select id from m where vk = 3`); !strings.Contains(plan, "vec-filters=1") || !strings.Contains(plan, "imc: delta=1 stale=0") {
		t.Fatalf("after the update the store is not attached with one row pending:\n%s", plan)
	}

	mustExec(t, e, `delete from m where id = 0`)
	delete(model, 0)
	attachIMC(t, e, "m", "vk") // over the tombstone of row 0
	want := 0
	for _, r := range model {
		if r.k == 3 {
			r.n, want = 99, want+1
		}
	}
	if got := fmt.Sprint(mustExec(t, e, `update m set n = 99 where vk = 3`).Rows); got != fmt.Sprintf("[[%d]]", want) {
		t.Fatalf("update over a store populated over a tombstone affected %s rows, want %d", got, want)
	}
	checkModel(t, e, model, 2, "update over a store populated over a tombstone")

	for id, r := range model {
		if r.k == 5 {
			delete(model, id)
		}
	}
	mustExec(t, e, `delete from m where vk = 5`)
	checkModel(t, e, model, 3, "delete over a store populated over a tombstone")
	if got := fmt.Sprint(mustExec(t, e, `select count(*) from m where vk = 5`).Rows); got != "[[0]]" {
		t.Fatalf("rows with vk = 5 after their delete: %s", got)
	}
}

// TestDMLFaults lands a cancellation at the k-th context poll of a
// 5,000-row UPDATE — k = 1..12 strike its read, the larger ones its
// write loop — and runs it under four memory budgets, serial and over
// a scan fleet. Every outcome is the full update or a typed error, no
// row carries one new column without the other, and no scan worker
// outlives the statement.
func TestDMLFaults(t *testing.T) {
	const rows = 5000
	for _, cfg := range corpusConfigs() {
		e := New()
		cfg.set(&e.Planner)
		mustExec(t, e, `create table w (id number primary key, a number, b number)`)
		state := make([]int, rows) // a and b of row id, always equal
		for i := 0; i < rows; i++ {
			if err := e.InsertRow("w", store.Row{jsondom.NumberFromInt(int64(i)), jsondom.NumberFromInt(0), jsondom.NumberFromInt(0)}); err != nil {
				t.Fatal(err)
			}
		}
		// verify reads the table back: each row holds its old pair or the
		// new one, all of them the new one when the update reported success
		verify := func(what string, v int, err error) {
			t.Helper()
			res := mustExec(t, e, `select id, a, b from w order by id`)
			if len(res.Rows) != rows {
				t.Fatalf("%s %s: %d rows, want %d", cfg.label, what, len(res.Rows), rows)
			}
			for i, r := range res.Rows {
				a, _ := r[1].(jsondom.Number).Int64()
				b, _ := r[2].(jsondom.Number).Int64()
				if a != b || int(a) != v && (err == nil || int(a) != state[i]) {
					t.Fatalf("%s %s (err %v): row %d is (a=%d, b=%d), had %d, update sets %d", cfg.label, what, err, i, a, b, state[i], v)
				}
				state[i] = int(a)
			}
		}
		update := func(ctx context.Context, v int) error {
			_, err := e.ExecContext(ctx, `update w set a = ?, b = ? where id >= 0`,
				jsondom.NumberFromInt(int64(v)), jsondom.NumberFromInt(int64(v)))
			return err
		}
		baseline := runtime.NumGoroutine()
		v := 0
		for k := int64(1); ; k++ {
			if k > 12 {
				k += 6 // past the read's polls, into the write loop's
			}
			v++
			err := update(&cancelAtPoll{Context: context.Background(), k: k}, v)
			verify(fmt.Sprintf("cancelled at poll %d", k), v, err)
			if err == nil {
				if k <= 12 {
					t.Fatalf("%s: the update finished within %d polls; the sweep strikes nothing", cfg.label, k)
				}
				break // k outran every poll of the statement
			}
			if !errors.Is(err, ErrQueryCancelled) {
				t.Fatalf("%s cancelled at poll %d: want ErrQueryCancelled, got %v", cfg.label, k, err)
			}
		}
		for _, budget := range []int64{1, 1 << 10, 1 << 14, 1 << 16} {
			e.Planner.MemoryBudget = budget
			v++
			err := update(context.Background(), v)
			e.Planner.MemoryBudget = 0 // verify sorts
			if err != nil && !errors.Is(err, ErrMemoryBudget) {
				t.Fatalf("%s under a %d-byte budget: want success or ErrMemoryBudget, got %v", cfg.label, budget, err)
			}
			verify(fmt.Sprintf("under a %d-byte budget", budget), v, err)
		}
		waitGoroutines(t, baseline)
	}
}

// TestDMLWhereIsCheckedAtPlanTime: the WHERE of an UPDATE or DELETE
// goes through the SELECT planner's compile-time schema check, so an
// unknown column is rejected even when the table has no row to evaluate
// it on (the old private scan only failed once a row reached it).
func TestDMLWhereIsCheckedAtPlanTime(t *testing.T) {
	e := New()
	mustExec(t, e, `create table w (id number primary key, a number)`)
	mustExec(t, e, `create view wv as select id from w`)
	for sql, want := range map[string]string{
		`update w set a = 1 where nope = 2`: "unknown column nope",
		`delete from w where nope = 2`:      "unknown column nope",
		`update w set a = nope`:             "unknown column nope",
		`update w set nope = 1`:             `no such stored column "nope"`,
		`update wv set id = 1`:              `no such table "wv"`,
		`delete from wv`:                    `no such table "wv"`,
	} {
		if _, err := e.Exec(sql); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s on an empty table: err = %v, want %q", sql, err, want)
		}
	}
	// the hidden row id is not SQL surface: no spelling reaches it
	mustExec(t, e, `insert into w values (1, 1)`)
	for _, sql := range []string{`select rowid from w`, `select "ROWID" from w`, `select * from w where ROWID = 0`} {
		if _, err := e.Query(sql); err == nil || !strings.Contains(err.Error(), "unknown column rowid") {
			t.Errorf("%s: err = %v, want unknown column rowid", sql, err)
		}
	}
	if got := fmt.Sprint(mustExec(t, e, `select * from w`).Rows); got != "[[1 1]]" {
		t.Errorf("select * = %s, want [[1 1]]", got)
	}
}

// TestPreparedDMLSharesNoAST: a prepared UPDATE re-dispatches one
// parsed statement on every run; planning its read rewrites the WHERE
// onto the virtual column, which must happen on a copy (the race
// detector sees the shared AST otherwise). The concurrent runs match
// no row: store.Table.Snapshot shares its backing array with Update,
// so a scan racing a write is a data race of the store's own, at the
// parent commit as well, and not what this test is about.
func TestPreparedDMLSharesNoAST(t *testing.T) {
	e, model := newDMLModelEngine(t)
	ps, err := e.Prepare(`update m set n = n + 1 where json_value(jdoc, '$.k' returning number) = ?`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if r, err := ps.Exec(jsondom.NumberFromInt(int64(100 + g))); err != nil || fmt.Sprint(r.Rows) != "[[0]]" {
					t.Errorf("update matching nothing: %v, %v", r, err)
				}
			}
		}(g)
	}
	wg.Wait()
	// the shared statement still means what it said
	if r, err := ps.Exec(jsondom.NumberFromInt(3)); err != nil || fmt.Sprint(r.Rows) != "[[186]]" {
		t.Fatalf("update of k = 3: %v, %v, want 186 rows", r, err)
	}
	for _, r := range model {
		if r.k == 3 {
			r.n++
		}
	}
	checkModel(t, e, model, 0, ps.SQL())
}
