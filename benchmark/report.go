// Metric definitions and the arithmetic that turns a run's raw
// measurements into them. The names and units here and in
// BENCHMARK.json must agree; a test compares the two.

package main

import "fmt"

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the engine would see, measured
// with tracing off. BENCHMARK.json carries their regression bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p95_us", "us"},
	{"alloc_bytes_per_op", "B/op"},
	{"allocs_per_op", "1/op"},
	{"heap_live_mb", "MB"},
	{"stored_bytes_per_user_byte", "B/B"},
}

// classMetric names the per-class latency metric of each op class.
var classMetric = [numClasses]string{
	clsPrepared: "sqlengine.prepared_p50_us",
	clsLiteral:  "sqlengine.plancache_p50_us",
	clsRead:     "sqlengine.read_p50_us",
	clsAdhoc:    "sqlengine.adhoc_p50_us",
	clsGet:      "core.get_p50_us",
	clsReplace:  "core.replace_p50_us",
	clsUpdate:   "sqlengine.update_p50_us",
	clsPut:      "core.put_p50_us",
}

// layers are the modules a share of an operation's time is attributed
// to, outermost first.
var layers = []string{"sqlengine", "sqljson", "pathengine", "oson", "imc", "store", "jsontext", "searchindex", "dataguide"}

// perLayer are the metrics of single layers, from the traced run.
// Every workload prints all of them; one whose layer the workload does
// not exercise is 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sqlengine.parse_ns_per_stmt", "ns"},
		{"sqlengine.parse_mb_per_s", "MB/s"},
		{"sqlengine.plan_ns_per_stmt", "ns"},
		{"sqlengine.plancache_hit_overhead_ns", "ns"},
		{"sqlengine.hard_parses_per_op", "1/op"},
		{"sqlengine.plancache_hit_ratio", "ratio"},
		{"sqlengine.plancache_invalidations_per_op", "1/op"},
		{"sqlengine.prepared_p50_us", "us"},
		{"sqlengine.plancache_p50_us", "us"},
		{"sqlengine.adhoc_p50_us", "us"},
		{"core.get_p50_us", "us"},
		{"sqlengine.read_p50_us", "us"},
		{"core.replace_p50_us", "us"},
		{"sqlengine.update_p50_us", "us"},
		{"core.put_p50_us", "us"},
	}
	for q := 1; q <= 9; q++ {
		defs = append(defs, metricDef{fmt.Sprintf("sqlengine.olap_q%d_p50_us", q), "us"})
	}
	for q := 1; q <= 11; q++ {
		defs = append(defs, metricDef{fmt.Sprintf("sqlengine.nobench_q%d_p50_us", q), "us"})
	}
	defs = append(defs,
		metricDef{"sqlengine.rows_examined_per_row_returned", "ratio"},
		metricDef{"sqlengine.adapted_rows_ratio", "ratio"},
		metricDef{"sqlengine.parallel_fanouts_per_op", "1/op"},
		metricDef{"sqlengine.parexec_ops_per_op", "1/op"},
		metricDef{"sqlengine.parexec_serial_fallbacks_per_op", "1/op"},
		metricDef{"sqlengine.merge_stalls_per_op", "1/op"},
		metricDef{"oson.parse_ns_per_doc", "ns"},
		metricDef{"oson.encode_ns_per_doc", "ns"},
		metricDef{"oson.decode_docs_per_op", "1/op"},
		metricDef{"oson.lookback_hit_ratio", "ratio"},
		metricDef{"pathengine.eval_oson_ns_per_doc", "ns"},
		metricDef{"pathengine.eval_text_ns_per_doc", "ns"},
		metricDef{"jsonpath.parse_ns_per_path", "ns"},
		metricDef{"sqljson.expand_ns_per_doc", "ns"},
		metricDef{"sqljson.expand_rows_per_doc", "ratio"},
		metricDef{"sqljson.value_ns_per_doc", "ns"},
		metricDef{"sqljson.docs_pruned_ratio", "ratio"},
		metricDef{"sqljson.arena_hit_ratio", "ratio"},
		metricDef{"sqljson.intern_hit_ratio", "ratio"},
		metricDef{"imc.kernel_ns_per_chunk", "ns"},
		metricDef{"imc.compile_filter_ns", "ns"},
		metricDef{"imc.chunks_pruned_ratio", "ratio"},
		metricDef{"imc.rows_selected_per_op", "1/op"},
		metricDef{"imc.dictprobe_rows_per_op", "1/op"},
		metricDef{"imc.populate_oson_ns_per_doc", "ns"},
		metricDef{"imc.populate_vc_ns_per_doc", "ns"},
		metricDef{"imc.attached_at_end", "count"},
		metricDef{"imc.bytes_per_user_byte", "B/B"},
		metricDef{"store.scan_ns_per_row", "ns"},
		metricDef{"store.insert_ns_per_row", "ns"},
		metricDef{"store.lookup_pk_ns", "ns"},
		metricDef{"store.update_ns_per_row", "ns"},
		metricDef{"jsontext.valid_mb_per_s", "MB/s"},
		metricDef{"jsontext.parse_mb_per_s", "MB/s"},
		metricDef{"searchindex.add_doc_ns", "ns"},
		metricDef{"dataguide.add_ns_per_doc", "ns"},
		metricDef{"dataguide.add_new_path_ns_per_doc", "ns"},
		metricDef{"dataguide.docs_merged_ratio", "ratio"},
		metricDef{"dataguide.paths_added_per_op", "1/op"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"bench.attributed_share." + l, "ratio"})
	}
	return append(defs,
		metricDef{"bench.unattributed_share", "ratio"},
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.lat_p99_us", "us"},
		metricDef{"bench.failed_ops_ratio", "ratio"},
		metricDef{"bench.samples", "count"},
	)
}()

// timingDependent are the count metrics that do not repeat exactly
// for a seed: merge stalls and look-back hits depend on how the
// goroutines of a fanned-out scan interleave, and the expansion's
// arena and interning hits on when a GC cycle empties the sync.Pool
// that keeps ExpandStates warm.
var timingDependent = map[string]bool{
	"sqlengine.merge_stalls_per_op": true,
	"oson.lookback_hit_ratio":       true,
	"sqljson.arena_hit_ratio":       true,
	"sqljson.intern_hit_ratio":      true,
}

// counterRatios derives the count-based layer metrics from the delta
// of the engine's public counters over ops operations that returned
// rows result rows.
func counterRatios(d counters, ops int, rows int64) map[string]float64 {
	c := func(name string) float64 { return float64(d[name]) }
	n := float64(ops)
	// sql.scan.rows alone: sql.batch.rows counts the same rows again
	// when a scan delivers them in batches, and sql.scan.parallel.rows
	// are the ones that survived the workers' filters
	examined := c("sql.scan.rows")
	return map[string]float64{
		"sqlengine.hard_parses_per_op":              ratio(c("sql.parse.hard"), n),
		"sqlengine.plancache_hit_ratio":             ratio(c("sql.plancache.hits"), c("sql.plancache.hits")+c("sql.plancache.misses")),
		"sqlengine.plancache_invalidations_per_op":  ratio(c("sql.plancache.invalidations"), n),
		"sqlengine.rows_examined_per_row_returned":  ratio(examined, float64(rows)),
		"sqlengine.adapted_rows_ratio":              ratio(c("sql.batch.adapted_rows"), c("sql.batch.adapted_rows")+c("sql.batch.rows")),
		"sqlengine.parallel_fanouts_per_op":         ratio(c("sql.scan.parallel.fanout"), n),
		"sqlengine.parexec_ops_per_op":              ratio(c("sql.parexec.ops"), n),
		"sqlengine.parexec_serial_fallbacks_per_op": ratio(c("sql.parexec.serial_fallbacks"), n),
		"sqlengine.merge_stalls_per_op":             ratio(c("sql.scan.parallel.merge_stalls")+c("sql.parexec.merge_stalls"), n),
		"oson.decode_docs_per_op":                   ratio(c("oson.decode.docs"), n),
		"oson.lookback_hit_ratio":                   ratio(c("oson.fieldref.lookback_hits"), c("oson.fieldref.lookback_hits")+c("oson.fieldref.lookback_misses")),
		"sqljson.docs_pruned_ratio":                 ratio(c("sql.jsontable.docs_pruned"), c("sql.jsontable.docs")),
		"sqljson.arena_hit_ratio":                   ratio(c("sql.jsontable.arena_hits"), c("sql.jsontable.docs")),
		"sqljson.intern_hit_ratio":                  ratio(c("sql.jsontable.intern_hits"), c("sql.jsontable.rows")),
		"imc.chunks_pruned_ratio":                   ratio(c("imc.scan.chunks_pruned"), c("imc.scan.chunks")),
		"imc.rows_selected_per_op":                  ratio(c("imc.scan.rows_selected"), n),
		"imc.dictprobe_rows_per_op":                 ratio(c("imc.dictprobe.rows"), n),
		"dataguide.docs_merged_ratio":               ratio(c("dataguide.docs_merged"), n),
		"dataguide.paths_added_per_op":              ratio(c("dataguide.paths_added"), n),
	}
}

// latencyByClass returns the median latency in microseconds of each
// class among the samples.
func latencyByClass(lat []int64, class []uint8) [numClasses]float64 {
	var by [numClasses][]int64
	for i, c := range class {
		by[c] = append(by[c], lat[i])
	}
	var out [numClasses]float64
	for c := range by {
		out[c] = medianNs(by[c]) / 1e3
	}
	return out
}

// attribute estimates, per layer, the share of the median operation's
// latency that the layer's replayed unit cost accounts for: unit time
// times calls per operation (from the engine's counters) over the
// median latency. Layers marked inner run inside another attributed
// layer (OSON parsing inside JSON_TABLE expansion), so only the outer
// ones are summed into what is left unattributed:
// operators, plan instantiation and result drain, which cannot be
// reached from outside the engine.
func attribute(workload string, m map[string]float64, d counters, ops int, docBytes, p50ns float64) {
	perOp := func(c string) float64 { return ratio(float64(d[c]), float64(ops)) }
	examined := perOp("sql.scan.rows")
	// when most operations fan their scan out, scan-side work runs on
	// several cores at once: its wall time is its CPU time over the
	// mean worker count
	degree := 1.0
	if perOp("sql.scan.parallel.fanout") >= 0.5 {
		degree = ratio(float64(d["sql.scan.parallel.workers"]), float64(d["sql.scan.parallel.fanout"]))
	}
	// nanoseconds to push one document's text through a layer running at mbps
	textNs := func(mbps float64) float64 { return ratio(docBytes*1e3, mbps) }
	ns := map[string]float64{
		"sqlengine": (m["sqlengine.parse_ns_per_stmt"]+m["sqlengine.plan_ns_per_stmt"])*m["sqlengine.hard_parses_per_op"] +
			m["sqlengine.plancache_hit_overhead_ns"]*perOp("sql.plancache.hits"),
		"store": m["store.scan_ns_per_row"] * examined,
	}
	inner := map[string]bool{}
	switch workload {
	case "olap_po_oson":
		// bound documents that a prefilter did not prune are expanded;
		// the expansion's own path navigation cannot be told apart from
		// outside, so pathengine gets no share of its own here
		ns["sqljson"] = m["sqljson.expand_ns_per_doc"] * (perOp("sql.jsontable.docs") - perOp("sql.jsontable.docs_pruned"))
		ns["oson"] = m["oson.parse_ns_per_doc"] * m["oson.decode_docs_per_op"]
		inner["oson"] = true
	case "nobench_imc", "oltp_point":
		ns["imc"] = m["imc.kernel_ns_per_chunk"] * perOp("imc.scan.chunks")
		ns["oson"] = m["oson.parse_ns_per_doc"] * m["oson.decode_docs_per_op"]
		// at least one of the suite's paths is evaluated per decoded document
		ns["pathengine"] = ratio(m["pathengine.eval_oson_ns_per_doc"], float64(len(nobenchPaths))) * m["oson.decode_docs_per_op"]
		if workload == "oltp_point" {
			// one operation in ten is a Get: a key lookup and a text parse
			ns["pathengine"] = m["pathengine.eval_oson_ns_per_doc"] * m["oson.decode_docs_per_op"]
			ns["jsontext"] = 0.1 * textNs(m["jsontext.parse_mb_per_s"])
			ns["store"] += 0.1 * m["store.lookup_pk_ns"]
		}
	case "ingest":
		ns["jsontext"] = textNs(m["jsontext.valid_mb_per_s"]) + textNs(m["jsontext.parse_mb_per_s"])
		ns["searchindex"] = m["searchindex.add_doc_ns"]
		ns["dataguide"] = 0.9*m["dataguide.add_ns_per_doc"] + 0.1*m["dataguide.add_new_path_ns_per_doc"]
		ns["store"] = m["store.insert_ns_per_row"]
	case "mixed_rw":
		// the median operation is a read that scans the text of every row
		ns["pathengine"] = m["pathengine.eval_text_ns_per_doc"] * examined
	}
	for _, l := range []string{"sqljson", "pathengine", "oson", "imc"} {
		ns[l] /= degree
	}
	left := 1.0
	for _, l := range layers {
		share := ratio(ns[l], p50ns)
		m["bench.attributed_share."+l] = share
		if !inner[l] {
			left -= share
		}
	}
	m["bench.unattributed_share"] = left
}
