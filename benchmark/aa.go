// The A/A comparison: two sets of runs of the same code must agree
// within the bounds the benchmark itself fixes in BENCHMARK.json.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

// boundDef is one metric entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// worseBy is how much worse b is than a as a share of a, negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	d := ratio(b-a, math.Abs(a))
	if better == "higher" {
		return -d
	}
	return d
}

// compareSets prints, per workload and end-to-end metric, both values,
// their relative difference and PASS or FAIL against the bound, and
// checks that the count-based layer metrics are exactly equal.
func compareSets(w io.Writer, a, b []*runReport, benchFile string) (bool, error) {
	bj, err := readBenchmarkJSON(benchFile)
	if err != nil {
		return false, err
	}
	pass := true
	fmt.Fprintf(w, "\n%-13s %-30s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "A/A")
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Traced {
			for name, va := range ra.Metrics {
				if isCountMetric(name) && va != rb.Metrics[name] {
					pass = false
					fmt.Fprintf(w, "%-13s %-30s %14.6f %14.6f  count differs: FAIL\n", ra.Workload, name, va, rb.Metrics[name])
				}
			}
			continue
		}
		for _, d := range bj.EndToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			// either order: neither run is the baseline of the other
			diff := math.Max(worseBy(va, vb, d.Better), worseBy(vb, va, d.Better))
			verdict := "PASS"
			if diff > d.Bound {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "%-13s %-30s %14.4f %14.4f %7.2f%% %5.0f%%  %s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return pass, nil
}

// countMetrics are the per-layer metrics derived from counts alone (no
// clock): the counter ratios and a few the benchmark counts itself.
var countMetrics = func() map[string]bool {
	set := map[string]bool{"sqljson.expand_rows_per_doc": true, "imc.bytes_per_user_byte": true,
		"imc.attached_at_end": true, "bench.failed_ops_ratio": true, "bench.samples": true}
	for name := range counterRatios(nil, 1, 1) {
		set[name] = true
	}
	return set
}()

// isCountMetric reports whether a per-layer metric must repeat exactly
// for a seed.
func isCountMetric(name string) bool { return countMetrics[name] && !timingDependent[name] }
