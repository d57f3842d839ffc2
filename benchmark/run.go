// One run of one workload: generate, set up, verify, warm up, measure.

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is what the command line chooses for a run.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	quick   bool   // smoke run: seconds / 20, one build
	outDir  string // where trace files go; "" writes none
}

// runReport is the outcome of one run.
type runReport struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Samples   int                `json:"samples"`
	Builds    int                `json:"builds"`
	Metrics   map[string]float64 `json:"metrics"`
}

const (
	minBuilds    = 5
	maxBuilds    = 200
	buildBudget  = 1500 * time.Millisecond
	warmupShare  = 0.15
	latencyCap   = 1 << 20 // samples preallocated so the timed loop does not grow slices
	traceBlocks  = 96      // untraced/traced block pairs in a traced run
	replayShare  = 0.45    // of -seconds, for the layer replay
	secondsAt    = 10.0    // the -seconds value traceOps is stated for
	bytesPerMB   = 1 << 20
	pctThreshold = 0.95
	timeSlices   = 40 // equal parts of the measured window, by busy time
	quietSlices  = 10 // of them, the fastest: the ones the timing metrics describe
)

// setUp builds the workload's database several times from the already
// generated inputs and returns the last one, every build's time and the
// live heap the last build added.
func setUp(build func() (instance, error), quick bool) (inst instance, times []time.Duration, heapLive uint64, err error) {
	var ms runtime.MemStats
	start := time.Now()
	for len(times) < minBuilds || (time.Since(start) < buildBudget && len(times) < maxBuilds) {
		if quick && len(times) == 1 {
			break
		}
		inst = nil // the previous database is garbage before the next is built
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		t0 := time.Now()
		inst, err = build()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heapLive = 0
		if ms.HeapAlloc > before {
			heapLive = ms.HeapAlloc - before
		}
	}
	return inst, times, heapLive, nil
}

func newLoopResult() *loopResult {
	return &loopResult{lat: make([]int64, 0, latencyCap), class: make([]uint8, 0, latencyCap)}
}

// runWorkload executes one run and computes its metrics: the
// end-to-end ones when cfg.traced is false, the per-layer ones when it
// is true.
func runWorkload(def workloadDef, cfg runConfig) (*runReport, error) {
	if cfg.quick {
		cfg.seconds /= 20
	}
	build := def.open(cfg.seed)
	inst, builds, heapLive, err := setUp(build, cfg.quick)
	if err != nil {
		return nil, err
	}
	if err := inst.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep := &runReport{Workload: def.name, Traced: cfg.traced, Builds: len(builds), Metrics: make(map[string]float64)}

	// warm-up fills the plan cache, the CompileText memo, the expansion
	// and batch pools and the look-back caches, and lasts until the heap
	// has reached the size the loop keeps it at: after the builds the
	// runtime has given memory back, and the first seconds of oltp_point
	// (240 KB allocated per operation) fault it in again and run a fifth
	// slower than the rest. A traced run warms up
	// for a fixed number of operations, so that the operations it then
	// counts are the same ones every time.
	perHalf := int(float64(def.traceOps) * cfg.seconds / secondsAt)
	warmStop := untilDeadline(time.Now().Add(time.Duration(warmupShare * cfg.seconds * float64(time.Second))))
	if cfg.traced {
		warmStop = forCount(perHalf/8 + 1)
	}
	warm := &loopResult{} // its samples are not kept, so it preallocates none
	runLoop(inst, 0, warmStop, nil, nil, warm)
	done := warm.ops

	var all []*loopResult
	if !cfg.traced {
		res := newLoopResult()
		// allocation is counted over as many operations as a traced run
		// executes untraced: a fixed number, well inside what the loop
		// completes in the time
		res.allocOps = perHalf
		runLoop(inst, done, untilDeadline(time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)))), nil, nil, res)
		done += res.ops
		all = []*loopResult{warm, res}
		endToEndMetrics(rep, res, heapLive)
	} else {
		res, err := tracedRun(def, cfg, inst, done, perHalf, rep)
		if err != nil {
			return nil, err
		}
		done += res.ops
		all = []*loopResult{warm, res}
	}

	sz, err := inst.finish()
	if err != nil {
		// a failed end-of-run check is one more failed operation
		all[0].fail(done, fmt.Errorf("finish: %w", err))
	}
	for _, r := range all {
		rep.Attempted += r.ops
		rep.Failed += r.failed
		if rep.FirstErr == "" && r.firstErr != nil {
			rep.FirstErr = r.firstErr.Error()
		}
	}
	rep.Correct = rep.Failed == 0
	if cfg.traced {
		rep.Metrics["imc.bytes_per_user_byte"] = ratio(float64(sz.imc), float64(sz.user))
		rep.Metrics["bench.failed_ops_ratio"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	} else {
		// every round of ingest set its collection up again: more samples
		rep.Metrics["setup_s"] = quietDur(append(sz.setups, builds...)).Seconds()
		rep.Metrics["stored_bytes_per_user_byte"] = ratio(float64(sz.stored), float64(sz.user))
	}
	return rep, nil
}

// endToEndMetrics fills the metrics of an untraced run.
func endToEndMetrics(rep *runReport, res *loopResult, heapLive uint64) {
	// the timing metrics describe the quiet quarter of the run: what a
	// shared host adds to an operation (a processor taken away for
	// milliseconds, a neighbour in the cache) it only ever adds, and for
	// seconds at a time, so the fastest slices are the ones that repeat
	quiet := quietest(cutSlices(res.lat, timeSlices), quietSlices)
	var busy int64
	for _, d := range quiet {
		busy += d
	}
	sorted := sortedCopy(quiet)
	v50, _ := percentile(sorted, 0.50)
	v95, _ := percentile(sorted, pctThreshold)
	m := rep.Metrics
	m["ops_per_s"] = ratio(float64(len(quiet))*1e9, float64(busy))
	m["lat_p50_us"] = float64(v50) / 1e3
	m["lat_p95_us"] = float64(v95) / 1e3
	m["alloc_bytes_per_op"] = ratio(float64(res.win.bytes), float64(res.win.ops))
	m["allocs_per_op"] = ratio(float64(res.win.mallocs), float64(res.win.ops))
	m["heap_live_mb"] = float64(heapLive) / bytesPerMB
	rep.Samples = len(quiet)
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	ByName   map[string]*nameTotals `json:"by_name"`
	Counters counters               `json:"counter_delta"`
	Spans    []span                 `json:"spans"`
}

// tracedRun runs a fixed number of operations, tracing every second
// block of them (same work on both sides, so their latencies compare),
// reads the engine's counters around them, replays the layers, and
// fills the per-layer metrics.
func tracedRun(def workloadDef, cfg runConfig, inst instance, first, perHalf int, rep *runReport) (*loopResult, error) {
	block := perHalf / traceBlocks
	if block < 1 {
		block = 1
	}
	// a coin decides which block of each pair is the traced one, so that
	// whatever favours the earlier or the later block (heap growth
	// within an ingest round, a GC period that beats with the block
	// length) favours neither side; a fixed order aliases with it
	coin := rand.New(rand.NewSource(cfg.seed))
	tracedFirst := make([]bool, traceBlocks)
	for i := range tracedFirst {
		tracedFirst[i] = coin.Intn(2) == 1
	}
	traceOp := func(done int) bool {
		pair, second := done/(2*block), done/block%2 == 1
		return tracedFirst[pair] != second
	}
	tr := newTracer()
	res := newLoopResult()
	rows0 := inst.resultRows()
	before := readCounters()
	runLoop(inst, first, forCount(2*block*traceBlocks), tr, traceOp, res)
	// what the operations themselves counted: the whole delta less the preps'
	delta := res.prepCounters.delta(before.delta(readCounters()))
	ops := res.ops
	m := rep.Metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range counterRatios(delta, ops, inst.resultRows()-rows0) {
		m[k] = v
	}
	m["bench.trace_overhead_pct"] = 100 * traceOverhead(res)

	lat, class := res.lat, res.class
	for c, v := range latencyByClass(lat, class) {
		if classMetric[c] != "" {
			m[classMetric[c]] = v
		}
	}
	if def.suite != "" {
		for q := 1; q <= 11; q++ {
			if ds := durationsOf(tr.spans, fmt.Sprintf("sqlengine.query_cached.q%d", q)); len(ds) > 0 {
				m[fmt.Sprintf("sqlengine.%s_q%d_p50_us", def.suite, q)] = medianNs(ds) / 1e3
			}
		}
	}
	sorted := sortedCopy(lat)
	if supported(len(sorted), 0.99) {
		p99, _ := percentile(sorted, 0.99)
		m["bench.lat_p99_us"] = float64(p99) / 1e3
	}
	m["bench.samples"] = float64(len(sorted))
	rep.Samples = len(sorted)

	rs, err := inst.replaySet()
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	layer, err := replay(rs, tr, time.Duration(replayShare*cfg.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	for k, v := range layer {
		m[k] = v
	}
	if rs.hitLiteral != "" {
		on, err := imcAttached(rs.eng, rs.hitLiteral)
		if err != nil {
			return nil, err
		}
		if on {
			m["imc.attached_at_end"] = 1
		}
	}
	p50, _ := percentile(sorted, 0.50)
	attribute(def.name, m, delta, ops, ratio(float64(totalLen(rs.texts)), float64(len(rs.texts))), float64(p50))

	if cfg.outDir != "" {
		tf := traceFile{Workload: def.name, Seed: cfg.seed, ByName: selfTimes(tr.spans), Counters: delta, Spans: tr.spans}
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+def.name+".json"), tf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceOverhead is the relative difference between the traced and the
// untraced operations' 5th-percentile latency. The fast tail, not the
// mean or the median: the noise on an operation's latency is additive
// (a GC cycle makes a NOBENCH pass 17 or 25 ms), so the fastest
// operations of each side are what repeats, and tracing slows them as
// much as any other. Where classes of operations mix, the workload's
// most frequent class is compared: a quantile of the mix would sit on
// the edge between two classes.
func traceOverhead(res *loopResult) float64 {
	var count [numClasses]int
	most := uint8(0)
	for _, c := range res.class {
		if count[c]++; count[c] > count[most] {
			most = c
		}
	}
	var sides [2][]int64 // untraced, traced
	for i, c := range res.class {
		if c != most {
			continue
		}
		side := 0
		if res.traced[i] {
			side = 1
		}
		sides[side] = append(sides[side], res.lat[i])
	}
	u, _ := percentile(sortedCopy(sides[0]), 0.05)
	t, _ := percentile(sortedCopy(sides[1]), 0.05)
	return ratio(float64(t-u), float64(u))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
