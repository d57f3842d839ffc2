package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// digests folds each workload's generated inputs into a string.
func digests(seed int64) map[string]string {
	po, nb, ol, mx, in := genPO(seed), genDocs(seed, 0, 256), genOLTP(seed), genMixed(seed), genIngest(seed)
	opDigest := func(ops []opSpec) []string {
		var b strings.Builder
		for _, o := range ops {
			b.WriteByte('a' + o.class)
			b.WriteString(string(rune('0' + o.a%10)))
		}
		return []string{b.String()}
	}
	var params []string
	for _, ps := range po.params {
		for _, p := range ps {
			params = append(params, string(jsonOf(p)))
		}
	}
	return map[string]string{
		"po":      inputDigest(po.texts, params),
		"nobench": inputDigest(nb.texts),
		"oltp":    inputDigest(ol.texts[:64], ol.adhoc, opDigest(ol.ops)),
		"mixed":   inputDigest(mx.texts[:64], mx.pool.texts[:64], opDigest(mx.ops)),
		"ingest":  inputDigest(in.preload[:64], in.texts),
	}
}

// inputDigest folds generated inputs into one string for the
// determinism tests: same seed, same digest.
func inputDigest(parts ...[]string) string {
	var b strings.Builder
	h := rowHash{h: fnvOffset}
	for _, p := range parts {
		for _, s := range p {
			h.str(s)
		}
		fmt.Fprintf(&b, "%d:%016x;", len(p), h.sum())
	}
	return b.String()
}

func jsonOf(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

func TestInputsFollowSeed(t *testing.T) {
	a, again, b := digests(7), digests(7), digests(8)
	for k := range a {
		if a[k] != again[k] {
			t.Errorf("%s: same seed gave different inputs", k)
		}
		if a[k] == b[k] {
			t.Errorf("%s: different seeds gave the same inputs", k)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p      float64
		want   int64
		beyond int
	}{{0.50, 500, 500}, {0.95, 950, 50}, {0.99, 990, 10}, {0.999, 999, 1}} {
		v, beyond := percentile(sorted, tc.p)
		if v != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(1..1000, %v) = %d with %d beyond, want %d with %d", tc.p, v, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile(sorted[:1], 0.99); v != 1 || beyond != 0 {
		t.Errorf("percentile of one sample = %d with %d beyond", v, beyond)
	}
	// p99 needs ten samples beyond it: 1000 samples give exactly ten
	if !supported(1000, 0.99) || supported(999, 0.99) || !supported(200, 0.95) {
		t.Errorf("supported: p99 of 1000 %v, of 999 %v; p95 of 200 %v",
			supported(1000, 0.99), supported(999, 0.99), supported(200, 0.95))
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},   // runs past the parent's end
		{ID: 5, Parent: 2, Name: "leaf", Start: 20, End: 30}, // grandchild: a's business, not op's
	}
	got := selfTimes(spans)
	// op: 100 - ([10,70) = 60) - ([90,100) = 10) = 30
	if got["op"].SelfNs != 30 || got["op"].Total != 100 {
		t.Errorf("op self %d total %d, want 30 and 100", got["op"].SelfNs, got["op"].Total)
	}
	if got["a"].SelfNs != 30 {
		t.Errorf("a self %d, want 30", got["a"].SelfNs)
	}
	if got["b"].Count != 2 || got["b"].SelfNs != 60 {
		t.Errorf("b count %d self %d, want 2 and 60", got["b"].Count, got["b"].SelfNs)
	}
}

func TestCounterArithmetic(t *testing.T) {
	before := counters{"sql.parse.hard": 5, "sql.scan.rows": 100}
	after := counters{"sql.parse.hard": 15, "sql.scan.rows": 1100, "sql.plancache.hits": 30, "sql.plancache.misses": 10}
	d := before.delta(after)
	if d["sql.parse.hard"] != 10 || d["sql.scan.rows"] != 1000 || d["sql.plancache.hits"] != 30 {
		t.Fatalf("delta = %v", d)
	}
	// a prep's share comes out again
	d = counters{"sql.scan.rows": 400}.delta(d)
	r := counterRatios(d, 20, 6)
	if r["sqlengine.hard_parses_per_op"] != 0.5 || r["sqlengine.plancache_hit_ratio"] != 0.75 ||
		r["sqlengine.rows_examined_per_row_returned"] != 100 {
		t.Errorf("ratios = %v", r)
	}
	if r["oson.lookback_hit_ratio"] != 0 {
		t.Errorf("a layer that did not run must read 0, got %v", r["oson.lookback_hit_ratio"])
	}
	if s := (counters{"a": 1}).plus(counters{"a": 2, "b": 3}); s["a"] != 3 || s["b"] != 3 {
		t.Errorf("plus = %v", s)
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the program naming
// the same workloads and metrics with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, file []boundDef, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		for i, d := range prog {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
}

// TestQuickSmoke is the -quick run of every workload, untraced and
// traced: it keeps the harness from rotting, checks that every metric
// is reported, and that two traced runs of one seed count the same.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	start := time.Now()
	cfg := runConfig{seed: 3, seconds: 10, quick: true, outDir: t.TempDir()}
	for _, def := range workloads {
		rep, err := runWorkload(def, cfg)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !rep.Correct || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", def.name, rep.Correct, rep.Attempted, rep.Failed, rep.FirstErr)
		}
		for _, d := range endToEnd {
			if v, ok := rep.Metrics[d.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be reported and never 0", def.name, d.name, v)
			}
		}
		traced := cfg
		traced.traced = true
		a, err := runWorkload(def, traced)
		if err != nil {
			t.Fatalf("%s traced: %v", def.name, err)
		}
		b, err := runWorkload(def, traced)
		if err != nil {
			t.Fatalf("%s traced again: %v", def.name, err)
		}
		for _, d := range perLayer {
			va, ok := a.Metrics[d.name]
			if !ok {
				t.Errorf("%s: per-layer metric %s missing", def.name, d.name)
			}
			if isCountMetric(d.name) && va != b.Metrics[d.name] {
				t.Errorf("%s: %s = %v then %v for the same seed", def.name, d.name, va, b.Metrics[d.name])
			}
		}
		if !a.Correct {
			t.Errorf("%s traced: %s", def.name, a.FirstErr)
		}
		if _, err := os.Stat(traced.outDir + "/trace-" + def.name + ".json"); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// TestIngestRoundBoundary stops an ingest run right after the prep that
// opened a new round: the end-of-run check must look at that (empty)
// round, not at the one before it.
func TestIngestRoundBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("inserts a whole round")
	}
	inst, err := buildIngest(genIngest(5))
	if err != nil {
		t.Fatal(err)
	}
	res := newLoopResult()
	runLoop(inst, 0, forCount(ingestRound), nil, nil, res)
	if res.failed != 0 || res.ops != ingestRound {
		t.Fatalf("%d ops, %d failed: %v", res.ops, res.failed, res.firstErr)
	}
	if !inst.needsPrep(ingestRound) {
		t.Fatal("no prep due at the round boundary")
	}
	if err := inst.prep(ingestRound); err != nil {
		t.Fatal(err)
	}
	// a loop that stopped here hands the same operation number to the
	// next loop (the warm-up to the measured one)
	if inst.needsPrep(ingestRound) {
		t.Fatal("a second prep is due for the round the first one opened")
	}
	sz, err := inst.finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := totalLen(inst.in.preload); sz.user != want || len(sz.setups) != 1 {
		t.Errorf("user bytes %d, want %d (the preload alone); %d round set-ups, want 1", sz.user, want, len(sz.setups))
	}
}

func TestTraceOverhead(t *testing.T) {
	// half of the operations hit a GC cycle and take half as long again;
	// tracing costs 2% throughout; one operation in five is of a cheap
	// class that must not be what is compared
	res := &loopResult{}
	add := func(lat int64, class uint8, traced bool) {
		res.lat, res.class, res.traced = append(res.lat, lat), append(res.class, class), append(res.traced, traced)
	}
	for i := 0; i < 100; i++ {
		slow := int64(i%2) * 500
		add(1000+slow, clsRead, false)
		add(1020+slow+slow/50, clsRead, true)
		if i%5 == 0 {
			add(10, clsPut, false)
			add(13, clsPut, true)
		}
	}
	if got := traceOverhead(res); got < 0.0199 || got > 0.0201 {
		t.Errorf("traceOverhead = %v, want 0.02", got)
	}
}

// countingInst is an instance whose operations allocate one object each.
type countingInst struct {
	noPrep
	rowCount
	sink [][]byte
}

func (c *countingInst) op(int, *tracer, int32) (uint8, error) {
	c.sink = append(c.sink[:0], make([]byte, 4096))
	return clsRead, nil
}
func (c *countingInst) check(int) error                { return nil }
func (c *countingInst) verify() error                  { return nil }
func (c *countingInst) finish() (sizes, error)         { return sizes{}, nil }
func (c *countingInst) replaySet() (*replaySet, error) { return nil, nil }

// TestAllocWindowSeals checks that allocation is counted over the first
// allocOps operations however many the loop goes on to execute, and
// over all of them when the loop stops short of that.
func TestAllocWindowSeals(t *testing.T) {
	for _, c := range []struct{ ops, allocOps, want int }{{500, 100, 100}, {2000, 100, 100}, {60, 100, 60}, {60, 0, 60}} {
		res := &loopResult{allocOps: c.allocOps}
		runLoop(&countingInst{sink: make([][]byte, 0, 1)}, 0, forCount(c.ops), nil, nil, res)
		if res.ops != c.ops || res.win.ops != c.want {
			t.Fatalf("%+v: %d operations, %d in the window", c, res.ops, res.win.ops)
		}
		// one 4 KiB object per operation, and the loop's own slices
		if per := float64(res.win.bytes) / float64(res.win.ops); per < 4096 || per > 4096+512 {
			t.Errorf("%+v: %.0f bytes per operation in the window, want 4096 and a little", c, per)
		}
	}
}

// TestQuietSlices builds a run of eight equal stretches, two of them
// disturbed (every operation takes three times as long), cuts it into
// eight slices and asks for the quietest quarter: it must be made of
// undisturbed operations only, whichever stretches were hit.
func TestQuietSlices(t *testing.T) {
	var lat []int64
	for stretch := 0; stretch < 8; stretch++ {
		disturbed := stretch == 0 || stretch == 5
		n := 300
		if disturbed {
			n = 100 // the same busy time
		}
		for i := 0; i < n; i++ {
			d := int64(1000 + i%7)
			if disturbed {
				d *= 3
			}
			lat = append(lat, d)
		}
	}
	slices := cutSlices(lat, 8)
	if len(slices) != 8 {
		t.Fatalf("%d slices, want 8", len(slices))
	}
	total := 0
	for _, sl := range slices {
		total += len(sl)
	}
	if total != len(lat) {
		t.Fatalf("slices hold %d samples of %d", total, len(lat))
	}
	quiet := quietest(slices, 2)
	if len(quiet) < 500 || len(quiet) > 700 {
		t.Errorf("quiet quarter holds %d samples, want about 600", len(quiet))
	}
	for _, d := range quiet {
		if d > 1006 {
			t.Fatalf("a disturbed operation (%d ns) is in the quiet quarter", d)
		}
	}
	if got := quietest(slices, 99); len(got) != len(lat) {
		t.Errorf("asking for more slices than there are gives %d samples, want all %d", len(got), len(lat))
	}
}

func TestQuietDur(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{ms(7), 7 * time.Millisecond},
		{ms(9, 5, 8, 6, 7), 6 * time.Millisecond},             // five builds: the second fastest
		{ms(9, 1, 8, 2, 7, 3, 6, 4, 5), 3 * time.Millisecond}, // nine: the third
	} {
		if got := quietDur(c.in); got != c.want {
			t.Errorf("quietDur(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
