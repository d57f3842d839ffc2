package bench

// Parallel-scan ablation: the correctness half proves every Fig3 and
// Fig5 query returns identical results from an engine planned at
// GOMAXPROCS 1 (every scan serial) and one planned at GOMAXPROCS 4
// (every scan above the threshold fans out), across all storage and
// in-memory modes; the benchmark half is the scaling curve behind the
// planner's threshold, read at -cpu 1,2.

import (
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/sqlengine"
)

// fanoutRows is twice the planner's fan-out threshold (one in-memory
// chunk, see sqlengine's fanoutMinRows), so every table scanned below
// is a fleet at GOMAXPROCS >= 2.
const fanoutRows = 2 * imc.ChunkSize

// atProcs runs fn with GOMAXPROCS set to procs. Plans take their
// degree from GOMAXPROCS when they are planned, and cached plans keep
// it, so each setting needs an engine of its own.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// sameRows fails the test unless par reproduces serial cell for cell,
// in order: the ordered merge must reproduce the serial row order.
func sameRows(t *testing.T, what string, serial, par *sqlengine.Result) {
	t.Helper()
	if len(par.Rows) != len(serial.Rows) {
		t.Fatalf("%s: %d fan-out rows vs %d serial", what, len(par.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if !jsondom.Equal(serial.Rows[i][j], par.Rows[i][j]) {
				t.Fatalf("%s row %d col %d: %v vs %v", what, i, j, serial.Rows[i][j], par.Rows[i][j])
			}
		}
	}
}

// fansOut reports whether eng plans sql as a parallel scan.
func fansOut(t *testing.T, eng *sqlengine.Engine, sql string, params ...jsondom.Value) bool {
	t.Helper()
	r, err := eng.Exec("explain "+sql, params...)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Contains(fmt.Sprint(r.Rows), "ParallelScan(")
}

// TestAblationParallelScanFig3Correctness runs the nine Table 13
// queries in every storage mode on a serial and a fan-out engine and
// requires cell-identical results.
func TestAblationParallelScanFig3Correctness(t *testing.T) {
	fleets := 0
	for _, mode := range AllModes {
		var serial, par *OLAPEnv
		var err error
		atProcs(1, func() { serial, err = SetupOLAP(mode, fanoutRows) })
		if err != nil {
			t.Fatal(err)
		}
		atProcs(4, func() { par, err = SetupOLAP(mode, fanoutRows) })
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < len(serial.Queries); qi++ {
			var want, got *sqlengine.Result
			atProcs(1, func() { want, err = serial.Eng.Exec(serial.Queries[qi], serial.Params[qi]...) })
			if err != nil {
				t.Fatalf("%s Q%d serial: %v", mode, qi+1, err)
			}
			atProcs(4, func() {
				if fansOut(t, par.Eng, par.Queries[qi], par.Params[qi]...) {
					fleets++
				}
				got, err = par.Eng.Exec(par.Queries[qi], par.Params[qi]...)
			})
			if err != nil {
				t.Fatalf("%s Q%d fan-out: %v", mode, qi+1, err)
			}
			sameRows(t, fmt.Sprintf("%s Q%d", mode, qi+1), want, got)
		}
	}
	// the JSON_TABLE views expand po row by row above a serial scan;
	// REL's master and detail scans are where the fleets run
	if fleets == 0 {
		t.Fatal("no query fanned out at GOMAXPROCS 4")
	}
}

// noBenchModes are the three §6.4 storage modes.
var noBenchModes = []struct {
	name   string
	enable func(*NoBenchEnv) error
}{
	{"TEXT", func(*NoBenchEnv) error { return nil }},
	{"OSON-IMC", (*NoBenchEnv).EnableOSONIMC},
	{"VC-IMC", func(e *NoBenchEnv) error {
		if err := e.EnableOSONIMC(); err != nil {
			return err
		}
		return e.EnableVCIMC()
	}},
}

// setupNoBenchMode loads n NOBENCH documents and enables one mode.
func setupNoBenchMode(n int, enable func(*NoBenchEnv) error) (*NoBenchEnv, error) {
	env, err := SetupNoBench(n)
	if err != nil {
		return nil, err
	}
	return env, enable(env)
}

// TestAblationParallelScanFig5Correctness does the same for the eleven
// NOBENCH queries across the text, OSON-IMC, and VC-IMC modes.
func TestAblationParallelScanFig5Correctness(t *testing.T) {
	for _, m := range noBenchModes {
		var serial, par *NoBenchEnv
		var err error
		atProcs(1, func() { serial, err = setupNoBenchMode(fanoutRows, m.enable) })
		if err != nil {
			t.Fatal(err)
		}
		atProcs(4, func() { par, err = setupNoBenchMode(fanoutRows, m.enable) })
		if err != nil {
			t.Fatal(err)
		}
		fleets := 0
		for qi := 0; qi < len(serial.Queries); qi++ {
			var want, got *sqlengine.Result
			atProcs(1, func() { want, err = serial.Eng.Exec(serial.Queries[qi]) })
			if err != nil {
				t.Fatalf("%s Q%d serial: %v", m.name, qi+1, err)
			}
			atProcs(4, func() {
				if fansOut(t, par.Eng, par.Queries[qi]) {
					fleets++
				}
				got, err = par.Eng.Exec(par.Queries[qi])
			})
			if err != nil {
				t.Fatalf("%s Q%d fan-out: %v", m.name, qi+1, err)
			}
			sameRows(t, fmt.Sprintf("%s Q%d", m.name, qi+1), want, got)
		}
		if fleets == 0 {
			t.Fatalf("%s: no query fanned out at GOMAXPROCS 4", m.name)
		}
	}
}

// parallelScanQuery is a full-collection aggregation over a JSON path:
// per-row work is heavy enough (document parse + path navigation) that
// partitioned workers pay off.
const parallelScanQuery = `select count(*), avg(json_value(jdoc, '$.num' returning number)) ` +
	`from nobench where json_value(jdoc, '$.num' returning number) >= 0`

// curveChunks are the table sizes of the fan-out curve, in in-memory
// chunks: half a chunk up to 32.
var curveChunks = []float64{0.5, 1, 2, 4, 8, 32}

// BenchmarkAblationParallelScan is the scaling curve behind the
// planner's fan-out threshold: per storage mode and table size, one
// pass of the eleven NOBENCH queries and the full-collection aggregate.
// Read it at -cpu 1,2 (1 plans every scan serial, 2 fans out every
// scan from the threshold up); EXPERIMENTS.md, "Scan fan-out without
// knobs", holds the committed run.
func BenchmarkAblationParallelScan(b *testing.B) {
	for _, m := range noBenchModes {
		for _, c := range curveChunks {
			env, err := setupNoBenchMode(int(c*imc.ChunkSize), m.enable)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/chunks=%g/nobench", m.name, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for qi := range env.Queries {
						if _, _, err := env.RunQuery(qi); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fmt.Sprintf("%s/chunks=%g/agg", m.name, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.Eng.Exec(parallelScanQuery); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestParallelScanSpeedup asserts the >= 2x acceptance criterion on
// hosts with at least four CPUs; on smaller hosts (CI containers often
// pin one core) the fan-out cannot physically beat the serial plan, so
// the assertion is skipped and only equivalence (above) is enforced.
func TestParallelScanSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs < 4: parallel speedup not measurable", runtime.NumCPU())
	}
	measure := func(procs int) time.Duration {
		best := time.Duration(1<<63 - 1)
		atProcs(procs, func() {
			env, err := SetupNoBench(10000)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				if _, err := env.Eng.Exec(parallelScanQuery); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
		})
		return best
	}
	serial := measure(1)
	par := measure(4)
	t.Logf("serial=%s parallel=%s speedup=%.2fx", serial, par, float64(serial)/float64(par))
	if float64(serial) < 2*float64(par) {
		t.Fatalf("parallel scan speedup %.2fx < 2x (serial %s, parallel %s)",
			float64(serial)/float64(par), serial, par)
	}
}

// TestExplainAnalyzeFig3 drives EXPLAIN ANALYZE through a Table 13
// query and checks that the rendered operator tree carries non-zero
// per-operator row counts and timings.
func TestExplainAnalyzeFig3(t *testing.T) {
	env, err := SetupOLAP(ModeOSON, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Q9 takes no bind parameters: scan the whole DMDV view
	r, err := env.Eng.Exec(`explain analyze ` + env.Queries[8])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("plan too small: %v", r.Rows)
	}
	statRe := regexp.MustCompile(`rows=(\d+) batches=(\d+) time=([^)]+)\)`)
	sawRows, sawTime := false, false
	plan := ""
	for _, row := range r.Rows {
		line := string(row[0].(jsondom.String))
		plan += line + "\n"
		m := statRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if rows, _ := strconv.Atoi(m[1]); rows > 0 {
			sawRows = true
		}
		if m[3] != "0s" {
			sawTime = true
		}
	}
	if !sawRows || !sawTime {
		t.Fatalf("EXPLAIN ANALYZE missing non-zero rows/timings:\n%s", plan)
	}
}
