// Layer replay: after the traced operations, the benchmark calls each
// layer's public functions directly with the workload's own documents,
// paths, predicates and statements, and times them. A layer that the
// workload does not exercise is not replayed and reports 0.

package main

import (
	"fmt"
	"time"

	"repro/internal/dataguide"
	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/jsonpath"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/pathengine"
	"repro/internal/searchindex"
	"repro/internal/sqlengine"
	"repro/internal/sqljson"
	"repro/internal/store"
)

// vecFilter is one vector predicate of a workload's queries.
type vecFilter struct {
	col, op  string
	operands []jsondom.Value
}

// replaySet is what a workload hands the replayer: its own inputs,
// grouped by the layer they exercise. Empty fields switch a layer off.
type replaySet struct {
	eng   *sqlengine.Engine
	stmts []string // parse / plan
	// hit is a statement run both prepared (with hitBind) and as
	// hitLiteral through the plan cache: the difference is what a
	// plan-cache hit costs over a prepared execution
	hit        string
	hitBind    jsondom.Value
	hitLiteral string

	doms      []jsondom.Value // documents, for OSON encode and DataGuide
	texts     []string        // their JSON text
	osonEval  bool            // the workload navigates OSON (stored or in-memory)
	textParse bool            // the workload parses stored text into DOMs
	textEval  bool            // the workload evaluates paths over stored text
	paths     []string        // the suite's paths
	tableSQL  string          // a statement whose FROM holds the JSON_TABLE to expand
	value     string          // path of a JSON_VALUE the suite evaluates per document

	tab     *store.Table // scan, PK lookup, insert, update
	vcs     []string     // virtual columns the workload populates in memory
	filters []vecFilter  // vector predicates of its queries

	ingest   bool            // validation, search-index and DataGuide maintenance
	novelDom []jsondom.Value // documents that each add a new path
}

// replayer times layer calls under one "replay" root span.
type replayer struct {
	tr   *tracer
	root int32
	slot time.Duration // time given to each measurement
	out  map[string]float64
}

// measure calls fn (which does units of work) once to warm up and then
// until the slot is used, at least five times, and returns the median
// nanoseconds per unit.
func (r *replayer) measure(name string, units int, fn func() error) (float64, error) {
	return r.measureWith(name, units, func() {}, fn)
}

// measureWith is measure with untimed work before every call of fn.
func (r *replayer) measureWith(name string, units int, before func(), fn func() error) (float64, error) {
	if units == 0 {
		return 0, nil
	}
	before()
	if err := fn(); err != nil {
		return 0, fmt.Errorf("replay %s: %w", name, err)
	}
	var calls []int64
	deadline := time.Now().Add(r.slot)
	for len(calls) < 5 || (time.Now().Before(deadline) && len(calls) < 4096) {
		before()
		d, err := r.timed(name, fn)
		if err != nil {
			return 0, err
		}
		calls = append(calls, d)
	}
	return medianNs(calls) / float64(units), nil
}

// timed runs fn once inside a span and returns how long it took.
func (r *replayer) timed(name string, fn func() error) (int64, error) {
	id := r.tr.begin(r.root, -1, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("replay %s: %w", name, err)
	}
	return int64(d), nil
}

// paired measures two calls that are to be compared, alternating them
// so that drift (GC, frequency, a noisy neighbour) hits both alike.
func (r *replayer) paired(nameA, nameB string, units int, fnA, fnB func() error) (a, b float64, err error) {
	var as, bs []int64
	deadline := time.Now().Add(2 * r.slot)
	for i := 0; len(as) < 6 || (time.Now().Before(deadline) && len(as) < 4096); i++ {
		da, err := r.timed(nameA, fnA)
		if err != nil {
			return 0, 0, err
		}
		db, err := r.timed(nameB, fnB)
		if err != nil {
			return 0, 0, err
		}
		if i > 0 { // the first pair warms up
			as, bs = append(as, da), append(bs, db)
		}
	}
	return medianNs(as) / float64(units), medianNs(bs) / float64(units), nil
}

// set measures and stores one metric.
func (r *replayer) set(metric, span string, units int, fn func() error) error {
	v, err := r.measure(span, units, fn)
	r.out[metric] = v
	return err
}

func mbPerSec(bytes int, nsPerCall float64) float64 {
	return ratio(float64(bytes)*1e3, nsPerCall) // bytes/ns * 1e9 / 1e6
}

func totalLen(texts []string) int {
	n := 0
	for _, t := range texts {
		n += len(t)
	}
	return n
}

// replay runs every measurement rs has inputs for, within about budget.
func replay(rs *replaySet, tr *tracer, budget time.Duration) (map[string]float64, error) {
	r := &replayer{tr: tr, out: make(map[string]float64)}
	r.root = tr.begin(0, -1, "replay")
	defer tr.end(r.root)
	r.slot = budget / 24 // about as many measurements as the fullest workload has
	steps := []func(*replaySet) error{r.sql, r.json, r.expand, r.imc, r.store, r.write}
	for _, step := range steps {
		if err := step(rs); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// sql times the statement front end: parse, plan, and the plan-cache
// hit path against a prepared execution.
func (r *replayer) sql(rs *replaySet) error {
	if len(rs.stmts) == 0 {
		return nil
	}
	bytes := 0
	for _, s := range rs.stmts {
		bytes += len(s)
	}
	n := len(rs.stmts)
	err := r.set("sqlengine.parse_ns_per_stmt", "sqlengine.parse", n, func() error {
		for _, s := range rs.stmts {
			if _, err := sqlengine.ParseStatement(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	parse := r.out["sqlengine.parse_ns_per_stmt"]
	r.out["sqlengine.parse_mb_per_s"] = mbPerSec(bytes, parse*float64(n))
	prepare, err := r.measure("sqlengine.prepare", n, func() error {
		for _, s := range rs.stmts {
			if _, err := rs.eng.Prepare(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Prepare parses and plans; what is left after the parse is the plan
	r.out["sqlengine.plan_ns_per_stmt"] = prepare - parse
	if rs.hit == "" {
		return nil
	}
	ps, err := rs.eng.Prepare(rs.hit)
	if err != nil {
		return err
	}
	const reps = 8
	exec, cached, err := r.paired("sqlengine.execute", "sqlengine.query_cached", reps,
		func() error {
			for i := 0; i < reps; i++ {
				if _, err := ps.Query(rs.hitBind); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for i := 0; i < reps; i++ {
				if _, err := rs.eng.Query(rs.hitLiteral); err != nil {
					return err
				}
			}
			return nil
		})
	r.out["sqlengine.plancache_hit_overhead_ns"] = cached - exec
	return err
}

// json times the document layers: OSON encode and parse, path
// compilation and evaluation over OSON and over text, text parsing.
func (r *replayer) json(rs *replaySet) error {
	if len(rs.paths) > 0 {
		err := r.set("jsonpath.parse_ns_per_path", "jsonpath.parse", len(rs.paths), func() error {
			for _, p := range rs.paths {
				if _, err := jsonpath.Parse(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	compiled := make([]*pathengine.Compiled, len(rs.paths))
	for i, p := range rs.paths {
		c, err := pathengine.CompileText(p)
		if err != nil {
			return err
		}
		compiled[i] = c
	}
	if rs.osonEval && len(rs.doms) > 0 {
		encoded := make([][]byte, len(rs.doms))
		err := r.set("oson.encode_ns_per_doc", "oson.encode", len(rs.doms), func() error {
			for i, d := range rs.doms {
				b, err := oson.Encode(d)
				if err != nil {
					return err
				}
				encoded[i] = b
			}
			return nil
		})
		if err != nil {
			return err
		}
		var doc oson.Doc
		err = r.set("oson.parse_ns_per_doc", "oson.parse", len(encoded), func() error {
			for _, b := range encoded {
				if err := oson.ParseInto(&doc, b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(compiled) > 0 {
			// per document: parse once, evaluate every path of the suite
			err = r.set("pathengine.eval_oson_ns_per_doc", "pathengine.eval_oson", len(encoded), func() error {
				for _, b := range encoded {
					if err := oson.ParseInto(&doc, b); err != nil {
						return err
					}
					for _, c := range compiled {
						if _, err := pathengine.EvalOson(&doc, c); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// the parse is oson's, not pathengine's
			r.out["pathengine.eval_oson_ns_per_doc"] -= r.out["oson.parse_ns_per_doc"]
		}
	}
	if (rs.textParse || rs.textEval) && len(rs.texts) > 0 {
		raw := make([][]byte, len(rs.texts))
		for i, t := range rs.texts {
			raw[i] = []byte(t)
		}
		parse, err := r.measure("jsontext.parse", 1, func() error {
			for _, b := range raw {
				if _, err := jsontext.Parse(b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.out["jsontext.parse_mb_per_s"] = mbPerSec(totalLen(rs.texts), parse)
		if rs.textEval && len(compiled) > 0 {
			err = r.set("pathengine.eval_text_ns_per_doc", "pathengine.eval_text", len(raw), func() error {
				for _, b := range raw {
					for _, c := range compiled {
						if _, err := pathengine.EvalText(b, c, 0); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// expand times JSON_TABLE expansion and JSON_VALUE over the stored
// OSON documents, the way the scan operators call them.
func (r *replayer) expand(rs *replaySet) error {
	if rs.tableSQL == "" {
		return nil
	}
	stmt, err := sqlengine.ParseStatement(rs.tableSQL)
	if err != nil {
		return err
	}
	var def *sqljson.TableDef
	if sel, ok := stmt.(*sqlengine.SelectStmt); ok {
		for _, f := range sel.From {
			if jt, ok := f.(*sqlengine.JSONTableRef); ok {
				def = jt.Def
			}
		}
	}
	if def == nil {
		return fmt.Errorf("replay: no JSON_TABLE in %.40q", rs.tableSQL)
	}
	datums := make([]jsondom.Value, len(rs.doms))
	for i, d := range rs.doms {
		b, err := oson.Encode(d)
		if err != nil {
			return err
		}
		datums[i] = jsondom.Binary(b)
	}
	rows := 0
	emit := func([]jsondom.Value) error { rows++; return nil }
	err = r.set("sqljson.expand_ns_per_doc", "sqljson.expand", len(datums), func() error {
		rows = 0
		es := def.AcquireState()
		defer def.ReleaseState(es)
		for _, v := range datums {
			if err := es.Bind(v); err != nil {
				return err
			}
			if err := es.Expand(emit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.out["sqljson.expand_rows_per_doc"] = ratio(float64(rows), float64(len(datums)))
	if rs.value == "" {
		return nil
	}
	c, err := pathengine.CompileText(rs.value)
	if err != nil {
		return err
	}
	return r.set("sqljson.value_ns_per_doc", "sqljson.value", len(datums), func() error {
		for _, v := range datums {
			doc, err := sqljson.FromDatum(v)
			if err != nil {
				return err
			}
			if _, err := doc.Value(c, sqljson.RetAny); err != nil {
				return err
			}
		}
		return nil
	})
}

// imc times the in-memory store on a copy of its own: population of
// the OSON documents and the vectors, compiling the suite's vector
// predicates, and running their kernels over every chunk.
func (r *replayer) imc(rs *replaySet) error {
	if len(rs.vcs) == 0 {
		return nil
	}
	rows := rs.tab.NumRows()
	err := r.set("imc.populate_oson_ns_per_doc", "imc.populate_oson", rows, func() error {
		return imc.NewStore(rs.tab).PopulateOSON("jdoc")
	})
	if err != nil {
		return err
	}
	var mem *imc.Store
	err = r.set("imc.populate_vc_ns_per_doc", "imc.populate_vc", rows*len(rs.vcs), func() error {
		mem = imc.NewStore(rs.tab)
		for _, vc := range rs.vcs {
			if err := mem.PopulateVC(vc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || len(rs.filters) == 0 {
		return err
	}
	err = r.set("imc.compile_filter_ns", "imc.compile_filter", len(rs.filters), func() error {
		for _, f := range rs.filters {
			if _, ok := mem.CompileBatchFilter(f.col, f.op, f.operands); !ok {
				return fmt.Errorf("no batch kernel for %s %s", f.col, f.op)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	vec, ok := mem.Vector(rs.filters[0].col)
	if !ok {
		return fmt.Errorf("no vector %s", rs.filters[0].col)
	}
	chunks, n := vec.NumChunks(), vec.Len()
	kernels := make([]imc.BatchKernel, len(rs.filters))
	for i, f := range rs.filters {
		kernels[i], _ = mem.CompileBatchFilter(f.col, f.op, f.operands)
	}
	sel := imc.NewBitmap(imc.ChunkSize)
	// every chunk is counted, pruned or not: pruning is what a kernel
	// does first
	return r.set("imc.kernel_ns_per_chunk", "imc.kernel", chunks*len(kernels), func() error {
		for _, k := range kernels {
			for c := 0; c < chunks; c++ {
				if k.Prune(c) {
					continue
				}
				rows := imc.ChunkSize
				if rest := n - c*imc.ChunkSize; rest < rows {
					rows = rest
				}
				sel.Reset(rows)
				k.And(c, sel)
			}
		}
		return nil
	})
}

// store times the heap table: full scan, primary-key lookup, and
// insert and update into a scratch table of the same stored columns.
func (r *replayer) store(rs *replaySet) error {
	if rs.tab == nil {
		return nil
	}
	var rows []store.Row
	rs.tab.Scan(func(_ int, row store.Row) bool {
		rows = append(rows, row)
		return true
	})
	n := 0
	err := r.set("store.scan_ns_per_row", "store.scan", len(rows), func() error {
		rs.tab.Scan(func(int, store.Row) bool { n++; return true })
		return nil
	})
	if err != nil {
		return err
	}
	var stored []store.Column
	for _, c := range rs.tab.Columns() {
		if !c.Virtual {
			stored = append(stored, c)
		}
	}
	hasPK := false
	if _, ok := rs.tab.LookupPK(rows[0][0]); ok {
		hasPK = true
		err = r.set("store.lookup_pk_ns", "store.lookup_pk", len(rows), func() error {
			for _, row := range rows {
				if _, ok := rs.tab.LookupPK(row[0]); !ok {
					return fmt.Errorf("key %v not found", row[0])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	var scratch *store.Table
	err = r.set("store.insert_ns_per_row", "store.insert", len(rows), func() error {
		var err error
		if scratch, err = store.NewTable("scratch", stored...); err != nil {
			return err
		}
		if hasPK {
			if err := scratch.SetPrimaryKey(stored[0].Name); err != nil {
				return err
			}
		}
		for _, row := range rows {
			if _, err := scratch.Insert(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return r.set("store.update_ns_per_row", "store.update", len(rows), func() error {
		for rid, row := range rows {
			if err := scratch.Update(rid, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// write times what an insert into an IS JSON collection with a search
// index pays beyond the heap insert: validation, postings, DataGuide.
func (r *replayer) write(rs *replaySet) error {
	if !rs.ingest {
		return nil
	}
	raw := make([][]byte, len(rs.texts))
	for i, t := range rs.texts {
		raw[i] = []byte(t)
	}
	valid, err := r.measure("jsontext.valid", 1, func() error {
		for _, b := range raw {
			if !jsontext.Valid(b) {
				return fmt.Errorf("generated text is not valid JSON")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.out["jsontext.valid_mb_per_s"] = mbPerSec(totalLen(rs.texts), valid)
	err = r.set("searchindex.add_doc_ns", "searchindex.add_doc", len(rs.doms), func() error {
		ix := searchindex.New("replay_sx", "docs", "jdoc", false)
		for i, d := range rs.doms {
			if err := ix.AddDocument(i, d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// a guide that has seen every repeating shape: Add then only bumps
	// statistics, which is the steady state of nine inserts in ten
	g := dataguide.New()
	for _, d := range rs.doms {
		g.Add(d)
	}
	err = r.set("dataguide.add_ns_per_doc", "dataguide.add", len(rs.doms), func() error {
		for _, d := range rs.doms {
			g.Add(d)
		}
		return nil
	})
	if err != nil || len(rs.novelDom) == 0 {
		return err
	}
	// a fresh copy of the warm guide each time, so that every novel
	// document really adds its path
	var fresh *dataguide.Guide
	v, err := r.measureWith("dataguide.add_new_path", len(rs.novelDom),
		func() { fresh = dataguide.New(); fresh.Merge(g) },
		func() error {
			for _, d := range rs.novelDom {
				fresh.Add(d)
			}
			return nil
		})
	r.out["dataguide.add_new_path_ns_per_doc"] = v
	return err
}
