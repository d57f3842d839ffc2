package core

// The in-memory store under DML, through the public API: what a SELECT
// returns must not depend on whether a store is attached, however the
// rows it reads came to be written — before the population, after it,
// or after the store has folded them into fresh vectors.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
)

const maintDocs = 2048

func maintDoc(i int, str1 string) string {
	return fmt.Sprintf(`{"str1":"%s","num":%d,"grp":"g%d","pad":"p%d"}`, str1, i%97, i%6, i)
}

var maintVCs = []string{"jdoc$str1", "jdoc$num", "jdoc$grp"}

// newMaintDB loads maintDocs small documents (str1 = s00000 …) and adds
// the three virtual columns; withStore populates OSON and the vectors
// and attaches the store.
func newMaintDB(t testing.TB, withStore bool) (*DB, *Collection) {
	t.Helper()
	db := Open()
	col, err := db.CreateCollection("docs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maintDocs; i++ {
		if _, err := col.PutText(maintDoc(i, fmt.Sprintf("s%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		`alter table docs add virtual column jdoc$str1 as json_value(jdoc, '$.str1')`,
		`alter table docs add virtual column jdoc$num as json_value(jdoc, '$.num' returning number)`,
		`alter table docs add virtual column jdoc$grp as json_value(jdoc, '$.grp')`,
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if withStore {
		if err := col.PopulateInMemory(true, maintVCs...); err != nil {
			t.Fatal(err)
		}
	}
	return db, col
}

const maintCountSQL = `select count(*) from docs where json_value(jdoc, '$.str1') = `

func planOf(t testing.TB, db *DB, sql string) string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(string(row[0].(jsondom.String)) + "\n")
	}
	return b.String()
}

// TestSelectSeesRowsWrittenAfterPopulation walks the four steps that
// used to end in a wrong answer — a row put after the population was
// invisible to a vector-filtered SELECT until some other write detached
// the store — and then every write path of core and of SQL, comparing
// an engine with the store attached against one without after each
// write: the vector-filtered count, a projection out of the substituted
// OSON document, a group-by the code-space aggregation answers and a
// self-join the code-space probe answers, with rows pending and after
// the fold that enough of them force.
func TestSelectSeesRowsWrittenAfterPopulation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, mode := range []struct {
		label string
		procs int
	}{
		{"serial", 1},
		// maintDocs is above the planner's fan-out threshold, so every
		// scan of docs runs as one fleet over one bound image
		{"fan-out", 3},
	} {
		runtime.GOMAXPROCS(mode.procs)
		db, col := newMaintDB(t, true)
		plainDB, plainCol := newMaintDB(t, false)

		count := func(d *DB, str1 string) string {
			res, err := d.Query(maintCountSQL + "'" + str1 + "'")
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(res.Rows)
		}
		attached := func(when string) (pending bool) {
			t.Helper()
			plan := planOf(t, db, `explain `+maintCountSQL+`'s00005'`)
			if !strings.Contains(plan, "vec-filters=1") || strings.Contains(plan, "no-imc") {
				t.Fatalf("%s %s: the point read is not planned onto the vectors:\n%s", mode.label, when, plan)
			}
			if fleet := strings.Contains(plan, "ParallelScan(docs degree=3"); fleet != (mode.procs > 1) {
				t.Fatalf("%s %s: the point read fans out: %v\n%s", mode.label, when, fleet, plan)
			}
			return strings.Contains(plan, "imc: delta=")
		}
		queries := []string{
			maintCountSQL + `'s00005'`,
			maintCountSQL + `'fresh'`,
			maintCountSQL + `'replaced'`,
			`select did, json_value(jdoc, '$.pad') from docs where jdoc$str1 >= 's02040' or jdoc$str1 < 's00003'`,
			`select json_value(jdoc, '$.pad'), json_value(jdoc, '$.str1') from docs where did = 8`,
			`select jdoc$grp, count(*), sum(jdoc$num), max(jdoc$str1) from docs group by jdoc$grp`,
			`select a.did, b.did from docs a join docs b on a.jdoc$str1 = b.jdoc$str1 where b.jdoc$num = 3`,
			`select count(*) from docs where jdoc$num between 10 and 12 and jdoc$grp != 'g1'`,
		}
		same := func(when string) {
			t.Helper()
			for _, q := range queries {
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s %s: %s: %v", mode.label, when, q, err)
				}
				want, err := plainDB.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
					t.Fatalf("%s %s: %s\n  with the store: %.300s\n  without:        %.300s", mode.label, when, q, g, w)
				}
			}
			attached(when)
		}
		// on runs one write on both databases
		on := func(when string, write func(*DB, *Collection) error) {
			t.Helper()
			for _, side := range []struct {
				db  *DB
				col *Collection
			}{{db, col}, {plainDB, plainCol}} {
				if err := write(side.db, side.col); err != nil {
					t.Fatalf("%s %s: %v", mode.label, when, err)
				}
			}
			same(when)
		}

		// the four steps
		if got := count(db, "s00005"); got != "[[1]]" {
			t.Fatalf("%s: count of s00005 over the fresh store = %s", mode.label, got)
		}
		same("over the fresh store")
		on("after PutText", func(_ *DB, c *Collection) error {
			_, err := c.PutText(maintDoc(9000, "fresh"))
			return err
		})
		if got := count(db, "fresh"); got != "[[1]]" {
			t.Fatalf("%s: the row put after the population is counted %s times", mode.label, got)
		}
		on("after Replace", func(_ *DB, c *Collection) error {
			return c.Replace(8, jsontext.MustParse(maintDoc(9001, "replaced")))
		})
		if got := count(db, "fresh") + count(db, "replaced") + count(db, "s00007"); got != "[[1]][[1]][[0]]" {
			t.Fatalf("%s: after Replace, fresh / replaced / s00007 are counted %s", mode.label, got)
		}
		if !attached("after Replace") {
			t.Fatalf("%s: EXPLAIN does not report the two pending rows", mode.label)
		}
		if err := col.PopulateInMemory(true, maintVCs...); err != nil {
			t.Fatal(err)
		}
		if attached("after the second population") {
			t.Fatalf("%s: rows are pending right after a population", mode.label)
		}
		same("after the second population")

		// every write path, with rows pending
		on("after Put", func(_ *DB, c *Collection) error {
			_, err := c.Put(jsontext.MustParse(maintDoc(9002, "fresh")))
			return err
		})
		on("after Delete", func(_ *DB, c *Collection) error { return c.Delete(6) })
		on("after SQL insert", func(d *DB, _ *Collection) error {
			_, err := d.Exec(`insert into docs values (?, ?)`, jsondom.NumberFromInt(70001), jsondom.String(maintDoc(9003, "s00005")))
			return err
		})
		on("after SQL update by key", func(d *DB, _ *Collection) error {
			_, err := d.Exec(`update docs set jdoc = ? where did = ?`, jsondom.String(maintDoc(3, "replaced")), jsondom.NumberFromInt(12))
			return err
		})
		on("after SQL update by vector predicate", func(d *DB, _ *Collection) error {
			_, err := d.Exec(`update docs set jdoc = '` + maintDoc(11, "fresh") + `' where jdoc$num = 96 and jdoc$grp = 'g2'`)
			return err
		})
		on("after SQL delete by vector predicate", func(d *DB, _ *Collection) error {
			_, err := d.Exec(`delete from docs where jdoc$str1 between 's01000' and 's01009'`)
			return err
		})
		if !attached("before the fold") {
			t.Fatalf("%s: no rows pending before the fold", mode.label)
		}
		// enough writes to force a fold, and then the same checks over it
		for i := 0; i < 300; i++ {
			for _, c := range []*Collection{col, plainCol} {
				if err := c.Replace(int64(100+i), jsontext.MustParse(maintDoc(i, fmt.Sprintf("r%05d", i)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		same("after a fold")
		plan := planOf(t, db, `explain analyze select jdoc$grp, count(*) from docs group by jdoc$grp`)
		if !strings.Contains(plan, "imc: delta=") {
			// the 300 writes ended right on a fold: the code-space
			// aggregation is back
			if mode.label == "serial" && !strings.Contains(plan, "agg-fast:") {
				t.Fatalf("%s: a folded store does not aggregate in code space:\n%s", mode.label, plan)
			}
		}
		on("after a write over the folded store", func(_ *DB, c *Collection) error {
			return c.Replace(9, jsontext.MustParse(maintDoc(9, "fresh")))
		})

		// eviction ends the subscription; the answers stay
		col.EvictInMemory()
		if plan := planOf(t, db, `explain `+maintCountSQL+`'fresh'`); strings.Contains(plan, "vec-filters") {
			t.Fatalf("%s: vector predicates planned after EvictInMemory:\n%s", mode.label, plan)
		}
		for _, q := range queries {
			got, _ := db.Query(q)
			want, _ := plainDB.Query(q)
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s after EvictInMemory: %s differs", mode.label, q)
			}
		}
	}
}

// TestStoreMaintenanceConcurrent: readers run the vector-filtered count
// and a projection out of the OSON documents while one goroutine puts
// documents across several folds. Every read sees one consistent image:
// a count never goes back, never passes what has been put, and a
// document is either absent or whole. One more reader counts the
// documents through the search index, which hears of each put under the
// same table lock as the store: that count never goes back either, nor
// passes what has been put. Under -race this is also the check that a
// writer never touches what a running scan holds.
func TestStoreMaintenanceConcurrent(t *testing.T) {
	db, col := newMaintDB(t, true)
	if err := col.EnableSearchIndex(false); err != nil {
		t.Fatal(err)
	}
	const indexedSQL = `select count(*) from docs where json_exists(jdoc, '$.pad')`
	if plan := planOf(t, db, `explain `+indexedSQL); !strings.Contains(plan, "via-index") {
		t.Fatalf("the count does not read the search index:\n%s", plan)
	}
	const puts, readers = 900, 4 // the fold threshold is 256 pending rows
	var put atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(0)
		for put.Load() < puts {
			res, err := db.Query(indexedSQL)
			if err != nil {
				errs <- err
				return
			}
			ceiling := put.Load() + 1
			n, _ := res.Rows[0][0].(jsondom.Number).Int64()
			if n -= maintDocs; n < last || n > ceiling {
				errs <- fmt.Errorf("the search index counted %d put documents after %d, with at most %d put", n, last, ceiling)
				return
			}
			last = n
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			if _, err := col.PutText(maintDoc(7, "hot")); err != nil {
				errs <- err
				return
			}
			put.Add(1)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := int64(0)
			for put.Load() < puts {
				res, err := db.Query(maintCountSQL + `'hot'`)
				if err != nil {
					errs <- err
					return
				}
				ceiling := put.Load() + 1 // the put in flight may be visible already
				n, _ := res.Rows[0][0].(jsondom.Number).Int64()
				if n < last || n > ceiling {
					errs <- fmt.Errorf("reader %d counted %d hot documents after %d, with at most %d put", r, n, last, ceiling)
					return
				}
				last = n
				res, err = db.Query(`select json_value(jdoc, '$.pad'), jdoc$num from docs where jdoc$str1 = 'hot' and did > ?`, jsondom.NumberFromInt(maintDocs+int64(r)))
				if err != nil {
					errs <- err
					return
				}
				for _, row := range res.Rows {
					if fmt.Sprint(row) != "[p7 7]" {
						errs <- fmt.Errorf("reader %d read a torn document: %v", r, row)
						return
					}
				}
				if got := fmt.Sprint(mustRows(db, maintCountSQL+`'s00042'`)); got != "[[1]]" {
					errs <- fmt.Errorf("reader %d: a document no one writes is counted %s", r, got)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fmt.Sprint(mustRows(db, maintCountSQL+`'hot'`)); got != fmt.Sprintf("[[%d]]", puts) {
		t.Fatalf("after %d puts the store counts %s", puts, got)
	}
	if got := fmt.Sprint(mustRows(db, indexedSQL)); got != fmt.Sprintf("[[%d]]", maintDocs+puts) {
		t.Fatalf("after %d puts the search index counts %s", puts, got)
	}
	if plan := planOf(t, db, `explain `+maintCountSQL+`'hot'`); !strings.Contains(plan, "vec-filters=1") || strings.Contains(plan, "no-imc") {
		t.Fatalf("the store did not survive the concurrent puts:\n%s", plan)
	}
}

func mustRows(db *DB, sql string) [][]jsondom.Value {
	res, err := db.Query(sql)
	if err != nil {
		return [][]jsondom.Value{{jsondom.String(err.Error())}}
	}
	return res.Rows
}
