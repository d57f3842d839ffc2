// The measurement loop: a closed loop with one client goroutine. An
// embedded library's callers each wait for their reply, so the next
// operation starts when the previous one has returned and been checked.

package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p < 1) of sorted samples by
// the nearest-rank rule, and how many samples lie beyond it.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(float64(len(sorted))*p+0.999999) - 1 // ceil(n*p) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be more than a few outliers.
const minBeyond = 10

// supported reports whether the p-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, p float64) bool {
	return n-int(float64(n)*p+0.999999) >= minBeyond
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianNs(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return median(fs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cutSlices cuts the latency samples of a closed loop, in execution
// order, into k consecutive parts of equal busy time (the sum of the
// latencies), dropping none.
func cutSlices(lat []int64, k int) [][]int64 {
	var total int64
	for _, d := range lat {
		total += d
	}
	out := make([][]int64, 0, k)
	start, next := 0, 1
	var busy int64
	for i, d := range lat {
		busy += d
		if next < k && busy*int64(k) >= total*int64(next) {
			out = append(out, lat[start:i+1])
			start = i + 1
			next++
		}
	}
	if start < len(lat) {
		out = append(out, lat[start:])
	}
	return out
}

// quietest pools the samples of the n slices with the lowest mean
// latency, in execution order within each slice.
func quietest(slices [][]int64, n int) []int64 {
	type slice struct {
		samples []int64
		mean    float64
	}
	ranked := make([]slice, len(slices))
	for i, sl := range slices {
		var busy int64
		for _, d := range sl {
			busy += d
		}
		ranked[i] = slice{sl, ratio(float64(busy), float64(len(sl)))}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].mean < ranked[j].mean })
	if n > len(ranked) {
		n = len(ranked)
	}
	var out []int64
	for _, sl := range ranked[:n] {
		out = append(out, sl.samples...)
	}
	return out
}

// quietDur is the lower quartile of the durations (nearest rank): like
// the loop's metrics, set-up time is that of the undisturbed builds.
func quietDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/4]
}

// window accumulates allocation over the stretches of a run in which
// measured operations execute; prep work is kept out of it. (Time needs
// no window: every operation is timed on its own.)
type window struct {
	bytes   uint64
	mallocs uint64
	ops     int  // operations executed inside the window
	sealed  bool // it has seen the operations it was to see; open and close do nothing
	ms      runtime.MemStats
}

func (w *window) open() {
	if !w.sealed {
		runtime.ReadMemStats(&w.ms)
	}
}

func (w *window) close() {
	if w.sealed {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.bytes += ms.TotalAlloc - w.ms.TotalAlloc
	w.mallocs += ms.Mallocs - w.ms.Mallocs
}

// loopResult is what one closed-loop stretch measured.
type loopResult struct {
	ops      int
	failed   int
	firstErr error
	lat      []int64 // per operation, ns
	class    []uint8
	traced   []bool // per operation, filled only when the loop has a tracer
	win      window
	// allocOps, when positive, seals the allocation window after that
	// many operations: a loop that runs for a time executes more
	// operations on a faster box, and where the cost of an operation
	// grows with the operations before it (mixed_rw's table, an ingest
	// round's maps) allocation per operation would follow the box
	allocOps int
	// prepCounters is what the untimed preps added to the engine's
	// counters, to be taken out of a counter delta over the loop
	prepCounters counters
}

func (r *loopResult) fail(i int, err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf("op %d: %w", i, err)
	}
}

// runLoop executes operations first, first+1, ... until stop says so,
// timing each and checking each result. An operation that errors or
// returns a wrong result counts as failed, never as fast. With a tracer,
// traceOp says which operations (by their number in this loop) are
// traced; the others run exactly as in an untraced loop.
func runLoop(inst instance, first int, stop func(done int) bool, tr *tracer, traceOp func(done int) bool, res *loopResult) {
	res.win.open()
	for i := first; !stop(i - first); i++ {
		if inst.needsPrep(i) {
			res.win.close()
			c0 := readCounters()
			err := inst.prep(i)
			res.prepCounters = res.prepCounters.plus(c0.delta(readCounters()))
			res.win.open()
			if err != nil {
				res.fail(i, err)
				break
			}
			if stop(i - first) { // the prep may have used up the time
				break
			}
		}
		// the root span is inside the timed stretch, so that a traced
		// operation's latency carries all of the tracing it paid for
		opTr := tr
		if tr != nil {
			if !traceOp(i - first) {
				opTr = nil
			}
			res.traced = append(res.traced, opTr != nil)
		}
		t0 := time.Now()
		root := opTr.begin(0, int32(i), "op")
		cls, err := inst.op(i, opTr, root)
		opTr.end(root)
		t1 := time.Now()
		if err == nil {
			err = inst.check(i)
		}
		res.ops++
		if !res.win.sealed {
			if res.win.ops++; res.win.ops == res.allocOps {
				res.win.close()
				res.win.sealed = true
			}
		}
		res.lat = append(res.lat, int64(t1.Sub(t0)))
		res.class = append(res.class, cls)
		if err != nil {
			res.fail(i, err)
		}
	}
	res.win.close()
}

// untilDeadline stops a loop when the clock passes d.
func untilDeadline(d time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(d) }
}

// forCount stops a loop after n operations.
func forCount(n int) func(int) bool {
	return func(done int) bool { return done >= n }
}
