// Command fsdmbench is the repository's benchmark: six named workloads,
// end-to-end metrics measured with tracing off, and per-layer metrics
// from a separate traced run. See README.md in this directory.
//
// With -workload it runs one workload once and prints, as the last line
// of standard output, one JSON object with the run's metrics (the form
// BENCHMARK.json's command is run in). Without it, it runs every
// workload untraced and traced and prints one table; -aa does that
// twice and compares the two sets against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultProcs is the GOMAXPROCS the benchmark measures at. One: the
// sandbox's processors are shares of a busy host that do not reliably
// run at the same moment, so whatever needs two of them at once (a
// parallel scan's workers, the concurrent half of the garbage
// collector) measures the host's scheduler. -procs raises it to look at
// the parallel operators; BENCHMARK.json's numbers are for the default.
const defaultProcs = 1

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print a JSON result line; empty runs all six")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", 16, "measured seconds per run; BENCHMARK.json's run_seconds")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		aa           = flag.Bool("aa", false, "run the whole set twice and compare against the bounds in BENCHMARK.json")
		quick        = flag.Bool("quick", false, "smoke run: 1/20 of -seconds, one build")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json and result.json")
		benchFile    = flag.String("benchmark-json", "BENCHMARK.json", "bounds file -aa compares against")
		procs        = flag.Int("procs", defaultProcs, "GOMAXPROCS; above 1 the engine's parallel operators engage and the numbers follow the host's scheduler")
	)
	flag.Parse()
	if err := checkEnvironment(); err != nil {
		fatal(err)
	}
	if *procs < 1 {
		fatal(fmt.Errorf("-procs %d: need at least 1", *procs))
	}
	runtime.GOMAXPROCS(*procs)
	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}

	if *workloadName != "" {
		def, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg.traced = *trace == 1
		rep, err := runWorkload(def, cfg)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, []*runReport{rep})
		if err := printResultLine(os.Stdout, rep); err != nil {
			fatal(err)
		}
		if !rep.Correct {
			fmt.Fprintln(os.Stderr, "fsdmbench: wrong results:", rep.FirstErr)
			os.Exit(1)
		}
		return
	}

	sets := 1
	if *aa {
		sets = 2
	}
	var all [][]*runReport
	ok := true
	for s := 0; s < sets; s++ {
		reps, err := runAll(cfg)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, reps)
		for _, r := range reps {
			if !r.Correct {
				ok = false
				fmt.Fprintf(os.Stderr, "fsdmbench: %s: wrong results: %s\n", r.Workload, r.FirstErr)
			}
		}
		all = append(all, reps)
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), resultFile{Env: environment(cfg), Sets: all}); err != nil {
		fatal(err)
	}
	if *aa {
		pass, err := compareSets(os.Stdout, all[0], all[1], *benchFile)
		if err != nil {
			fatal(err)
		}
		ok = ok && pass
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsdmbench:", err)
	os.Exit(1)
}

// checkEnvironment refuses to measure a tuned runtime: the numbers are
// for the defaults.
func checkEnvironment() error {
	for _, v := range []string{"GOGC", "GOMEMLIMIT"} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; the benchmark measures the runtime's defaults", v)
		}
	}
	return nil
}

// runAll runs every workload untraced, then traced.
func runAll(cfg runConfig) ([]*runReport, error) {
	var out []*runReport
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.traced = traced
			rep, err := runWorkload(def, c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", def.name, err)
			}
			out = append(out, rep)
		}
	}
	return out, nil
}

// envRecord says where and how a result was measured.
type envRecord struct {
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	TraceOps   map[string]int `json:"trace_ops_per_half_at_10s"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	GitCommit  string         `json:"git_commit"`
}

// resultFile is what result.json holds.
type resultFile struct {
	Env  envRecord      `json:"environment"`
	Sets [][]*runReport `json:"sets"`
}

func environment(cfg runConfig) envRecord {
	env := envRecord{Seed: cfg.seed, Seconds: cfg.seconds, TraceOps: map[string]int{},
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown"}
	for _, w := range workloads {
		env.TraceOps[w.name] = w.traceOps
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(b))
	}
	return env
}

// defsFor returns the metric list a report carries.
func defsFor(rep *runReport) []metricDef {
	if rep.Traced {
		return perLayer
	}
	return endToEnd
}

// printTable prints one "workload metric value unit" line per metric.
func printTable(w *os.File, reps []*runReport) {
	fmt.Fprintf(w, "%-13s %-44s %16s  %s\n", "workload", "metric", "value", "unit")
	for _, rep := range reps {
		for _, d := range defsFor(rep) {
			fmt.Fprintf(w, "%-13s %-44s %16.4f  %s\n", rep.Workload, d.name, rep.Metrics[d.name], d.unit)
		}
		fmt.Fprintf(w, "%-13s %-44s %16d  %s\n", rep.Workload, "samples", rep.Samples, "count")
	}
}

// printResultLine prints the one-line JSON object the driver reads.
func printResultLine(w *os.File, rep *runReport) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defsFor(rep) {
		out.Metrics[d.name] = value{rep.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
