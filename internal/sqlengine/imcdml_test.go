package sqlengine

// The read half of ROADMAP item 2's safety net: a seeded INSERT /
// UPDATE / DELETE / SELECT interleaving run on two engines, one with an
// in-memory store (OSON documents and two vectors) attached from the
// start, one plain, whose query results must be equal — bit for bit —
// at every step: with rows pending in the store's delta, and after the
// folds the volume of writes forces.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/imc"
	"repro/internal/jsondom"
)

const imcDMLRows = 1200 // two chunks; the fold threshold is 256 pending rows

func imcDMLDoc(k, tag, opt int) string {
	if opt%4 == 0 {
		return fmt.Sprintf(`{"k":%d,"tag":"t%02d"}`, k%7, tag%40)
	}
	return fmt.Sprintf(`{"k":%d,"tag":"t%02d","opt":%d}`, k%7, tag%40, opt)
}

// newIMCDMLEngine builds w (id, jdoc, n) with a number and a string
// virtual column; withIMC attaches a store holding the documents as OSON
// and both columns as vectors.
func newIMCDMLEngine(t *testing.T, withIMC bool) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, `create table w (id number primary key, jdoc varchar2(4000) check (jdoc is json), n number)`)
	ins, err := e.Prepare(`insert into w values (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < imcDMLRows; i++ {
		if _, err := ins.Exec(jsondom.NumberFromInt(int64(i)), jsondom.String(imcDMLDoc(i, i, i)), jsondom.NumberFromInt(int64(i%11))); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, e, `alter table w add virtual column vk as json_value(jdoc, '$.k' returning number)`)
	mustExec(t, e, `alter table w add virtual column vtag as json_value(jdoc, '$.tag')`)
	if withIMC {
		tab, _ := e.Catalog().Table("w")
		mem := imc.NewStore(tab)
		if err := mem.PopulateOSON("jdoc"); err != nil {
			t.Fatal(err)
		}
		for _, vc := range []string{"vk", "vtag"} {
			if err := mem.PopulateVC(vc); err != nil {
				t.Fatal(err)
			}
		}
		e.AttachIMC("w", mem)
	}
	return e
}

func TestDMLInterleavingIMCAgainstPlain(t *testing.T) {
	num := func(v int) jsondom.Value { return jsondom.NumberFromInt(int64(v)) }
	for _, cfg := range corpusConfigs() {
		withStore, plain := newIMCDMLEngine(t, true), newIMCDMLEngine(t, false)
		cfg.set(&withStore.Planner)
		cfg.set(&plain.Planner)
		rng := rand.New(rand.NewSource(29))
		nextID := imcDMLRows
		folds0 := metricOf(t, withStore, "imc.folds")
		sawPending, sawClean, sawFastAgg, sawDictProbe := false, false, false, false

		// both runs the statement on both engines and compares the results
		both := func(step int, sql string, params ...jsondom.Value) {
			t.Helper()
			got := fmt.Sprint(mustExec(t, withStore, sql, params...).Rows)
			want := fmt.Sprint(mustExec(t, plain, sql, params...).Rows)
			if got != want {
				t.Fatalf("%s step %d: %s %v\n  with the store: %s\n  plain:          %s", cfg.label, step, sql, params, clip(got), clip(want))
			}
		}
		queries := []func(step int){
			func(step int) { both(step, `select count(*) from w where vk = ?`, num(rng.Intn(8))) },
			func(step int) { both(step, `select id, n from w where vk >= ? and n < 4 order by id`, num(5)) },
			func(step int) {
				both(step, fmt.Sprintf(`select id from w where json_value(jdoc, '$.k' returning number) = %d order by id`, rng.Intn(7)))
			},
			func(step int) {
				both(step, `select id, json_value(jdoc, '$.opt' returning number), vtag from w where vtag = ?`, jsondom.String(fmt.Sprintf("t%02d", rng.Intn(41))))
			},
			func(step int) {
				both(step, `select json_value(jdoc, '$.opt' returning number) from w where id = ?`, num(rng.Intn(nextID)))
			},
			func(step int) { both(step, `select vtag, count(*), sum(vk), min(vk), max(vtag) from w group by vtag`) },
			func(step int) { both(step, `select vk, count(*) from w where vtag >= 't20' group by vk`) },
			func(step int) {
				both(step, `select a.id, b.id from w a join w b on a.vtag = b.vtag where a.vk = 1 and b.vk = 2`)
			},
		}
		const steps = 400
		for step := 0; step < steps; step++ {
			id, c := rng.Intn(nextID), rng.Intn(8)
			switch op := rng.Intn(10); op {
			case 0, 1:
				both(step, `insert into w values (?, ?, ?)`, num(nextID), jsondom.String(imcDMLDoc(c, rng.Intn(45), nextID)), num(c))
				nextID++
			case 2, 3:
				both(step, `update w set jdoc = ? where id = ?`, jsondom.String(imcDMLDoc(c, rng.Intn(45), step)), num(id))
			case 4:
				both(step, `update w set n = n + 1 where vk = ? and n < 3`, num(c))
			case 5:
				both(step, fmt.Sprintf(`update w set jdoc = '%s' where json_value(jdoc, '$.tag') = 't%02d' and id < %d`, imcDMLDoc(c, c, step), rng.Intn(40), id))
			case 6:
				both(step, `delete from w where id = ?`, num(id))
			case 7:
				both(step, `delete from w where vtag = ? and vk = ?`, jsondom.String(fmt.Sprintf("t%02d", rng.Intn(40))), num(c))
			}
			queries[step%len(queries)](step)
			if step%20 == 19 {
				for _, q := range queries {
					q(step)
				}
				both(step, `select id, n, vk, vtag, json_value(jdoc, '$.opt' returning number) from w order by id`)
			}
			plan := explainPlan(t, withStore, `explain analyze select vtag, count(*) from w where vk >= 0 group by vtag`)
			if !strings.Contains(plan, "vec-filters=1") || strings.Contains(plan, "no-imc") {
				t.Fatalf("%s step %d: the store no longer answers:\n%s", cfg.label, step, plan)
			}
			pending := strings.Contains(plan, "imc: delta=")
			fast := strings.Contains(plan, "agg-fast:")
			if pending && fast {
				t.Fatalf("%s step %d: code-space aggregation over a store with rows pending:\n%s", cfg.label, step, plan)
			}
			sawPending, sawClean, sawFastAgg = sawPending || pending, sawClean || !pending, sawFastAgg || fast
			if !pending && cfg.label == "serial" {
				join := explainPlan(t, withStore, `explain analyze select count(*) from w a join w b on a.vtag = b.vtag where a.vk = 1`)
				sawDictProbe = sawDictProbe || strings.Contains(join, "dictprobe:")
			}
		}
		folds := metricOf(t, withStore, "imc.folds") - folds0
		if folds < 2 || !sawPending || !sawClean {
			t.Fatalf("%s: %d folds, pending seen %v, clean seen %v: the run did not cross a fold", cfg.label, folds, sawPending, sawClean)
		}
		if cfg.label == "serial" && (!sawFastAgg || !sawDictProbe) {
			t.Fatalf("serial: code-space paths never ran over a folded store (agg-fast %v, dictprobe %v)", sawFastAgg, sawDictProbe)
		}
	}
}

// metricOf reads one counter through SHOW METRICS.
func metricOf(t *testing.T, e *Engine, name string) int64 {
	t.Helper()
	v, ok := metricValue(t, mustExec(t, e, `show metrics`), name)
	if !ok {
		t.Fatalf("no metric %s", name)
	}
	return v
}
