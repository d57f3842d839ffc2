// Package repro's top-level benchmarks: one testing.B entry per table
// and figure of the paper's evaluation (§6), wrapping the experiment
// harness in internal/bench. Run with:
//
//	go test -bench . -benchmem
//
// Scales are reduced to keep individual benchmark iterations under a
// second; cmd/experiments runs the same experiments at larger scale
// with table-formatted output.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/workload"
)

// BenchmarkTable10Encoding measures encoding all twelve collections in
// the three formats (Tables 10 and 11).
func BenchmarkTable10Encoding(b *testing.B) {
	oldA, oldS := workload.TwitterMsgArchiveTweets, workload.SensorReadings
	workload.TwitterMsgArchiveTweets, workload.SensorReadings = 50, 400
	defer func() {
		workload.TwitterMsgArchiveTweets, workload.SensorReadings = oldA, oldS
	}()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Table10And11(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable12DataGuide measures DataGuide + DMDV derivation for
// all collections (Table 12).
func BenchmarkTable12DataGuide(b *testing.B) {
	oldA, oldS := workload.TwitterMsgArchiveTweets, workload.SensorReadings
	workload.TwitterMsgArchiveTweets, workload.SensorReadings = 50, 400
	defer func() {
		workload.TwitterMsgArchiveTweets, workload.SensorReadings = oldA, oldS
	}()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table12(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkOLAP runs the nine Table 13 queries against one storage
// mode (Figure 3).
func benchmarkOLAP(b *testing.B, mode bench.StorageMode) {
	env, err := bench.SetupOLAP(mode, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi := 0; qi < 9; qi++ {
			if _, _, err := env.RunQuery(qi); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig3OLAPJSON(b *testing.B) { benchmarkOLAP(b, bench.ModeJSON) }
func BenchmarkFig3OLAPBSON(b *testing.B) { benchmarkOLAP(b, bench.ModeBSON) }
func BenchmarkFig3OLAPOSON(b *testing.B) { benchmarkOLAP(b, bench.ModeOSON) }
func BenchmarkFig3OLAPREL(b *testing.B)  { benchmarkOLAP(b, bench.ModeREL) }

// BenchmarkFig4Storage measures load + storage accounting for the four
// modes (Figure 4).
func BenchmarkFig4Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range bench.AllModes {
			env, err := bench.SetupOLAP(mode, 200)
			if err != nil {
				b.Fatal(err)
			}
			if env.StorageBytes <= 0 {
				b.Fatal("no storage accounted")
			}
		}
	}
}

// benchmarkNoBench runs the eleven NOBENCH queries in one §6.4 mode
// (Figures 5 and 6).
func benchmarkNoBench(b *testing.B, enable func(*bench.NoBenchEnv) error, queries []int) {
	env, err := bench.SetupNoBench(1000)
	if err != nil {
		b.Fatal(err)
	}
	if enable != nil {
		if err := enable(env); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qi := range queries {
			if _, _, err := env.RunQuery(qi); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var allNoBench = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

func BenchmarkFig5NoBenchText(b *testing.B) {
	benchmarkNoBench(b, nil, allNoBench)
}

func BenchmarkFig5NoBenchOsonIMC(b *testing.B) {
	benchmarkNoBench(b, (*bench.NoBenchEnv).EnableOSONIMC, allNoBench)
}

func BenchmarkFig6NoBenchOsonIMC(b *testing.B) {
	benchmarkNoBench(b, (*bench.NoBenchEnv).EnableOSONIMC, bench.Fig6Queries)
}

func BenchmarkFig6NoBenchVCIMC(b *testing.B) {
	benchmarkNoBench(b, func(e *bench.NoBenchEnv) error {
		if err := e.EnableOSONIMC(); err != nil {
			return err
		}
		return e.EnableVCIMC()
	}, bench.Fig6Queries)
}

// BenchmarkFig6Vectorized measures the batch-vectorized IMC scan path
// (selection bitmaps + zone-map pruning) per Fig. 6 query, at a scale
// where the ~1%-selectivity ranges land in one of the vectors' sixteen
// chunks and zone maps skip the rest. The scan-bound queries (Q6, Q7)
// isolate the scan; Q10 and Q11 are dominated by grouping and the hash
// join. (Last numbers of the retired row-at-a-time arm: EXPERIMENTS.md,
// "One spine".)
func BenchmarkFig6Vectorized(b *testing.B) {
	const nDocs = 16384
	for _, qi := range bench.Fig6Queries {
		b.Run(fmt.Sprintf("Q%d/vectorized", qi+1), func(b *testing.B) {
			env, err := bench.SetupNoBench(nDocs)
			if err != nil {
				b.Fatal(err)
			}
			if err := env.EnableOSONIMC(); err != nil {
				b.Fatal(err)
			}
			if err := env.EnableVCIMC(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := env.RunQuery(qi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6GroupedAgg isolates the code-space grouped-aggregation
// fast path on Fig. 6's Q10 shape: group on the low-cardinality
// $.thousandth key, aggregate over $.num, hashing float-bits words
// straight off the number vector. (Last numbers of the retired
// row-at-a-time arm: EXPERIMENTS.md, "One spine".) It plans at
// GOMAXPROCS 1: a scan fleet under the aggregation takes the row path.
func BenchmarkFig6GroupedAgg(b *testing.B) {
	const nDocs = 16384
	const query = `select jdoc$thousandth, count(*), sum(jdoc$num), min(jdoc$num), max(jdoc$num) from nobench group by jdoc$thousandth`
	b.Run("batch", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		env, err := bench.SetupNoBench(nDocs)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.EnableOSONIMC(); err != nil {
			b.Fatal(err)
		}
		if err := env.EnableVCIMC(); err != nil {
			b.Fatal(err)
		}
		if err := env.AddVC("jdoc$thousandth",
			`alter table nobench add virtual column jdoc$thousandth as json_value(jdoc, '$.thousandth' returning number)`); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Eng.Exec(query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig5Prepared measures the OLTP fast path on the NOBENCH
// point query Q5 (§6.4) in VC-IMC mode, where execution is cheap and
// parse + plan dominate. Three variants: Prepare once and Run
// repeatedly; plain Query with the constant varying per iteration
// (served by the plan cache through literal auto-parameterization);
// and plain Query with the plan cache disabled (a hard parse and plan
// every time — the pre-cache behavior). The cached paths are expected
// to win by >= 1.3x.
func BenchmarkFig5Prepared(b *testing.B) {
	const nDocs = 300 // below the parallel-scan threshold: serial point scans
	setup := func(b *testing.B) *bench.NoBenchEnv {
		b.Helper()
		env, err := bench.SetupNoBench(nDocs)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.EnableOSONIMC(); err != nil {
			b.Fatal(err)
		}
		if err := env.EnableVCIMC(); err != nil {
			b.Fatal(err)
		}
		return env
	}
	pointQuery := func(i int) string {
		return fmt.Sprintf(`select count(*) from nobench where json_value(jdoc, '$.str1') = 'GBRDC%07d'`, i%nDocs)
	}
	b.Run("prepared", func(b *testing.B) {
		env := setup(b)
		ps, err := env.Eng.Prepare(pointQuery(nDocs / 2))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plancache", func(b *testing.B) {
		env := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Eng.Query(pointQuery(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unprepared", func(b *testing.B) {
		env := setup(b)
		env.Eng.SetPlanCacheSize(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.Eng.Query(pointQuery(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7Insert measures the three insertion modes (Figure 7).
func BenchmarkFig7Insert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig7(2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8HomoHetero measures DataGuide maintenance under
// homogeneous vs heterogeneous insertion (Figure 8).
func BenchmarkFig8HomoHetero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig8(1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Transient measures transient DataGuide aggregation and
// persistent index creation (Figure 9).
func BenchmarkFig9Transient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig9(1500); err != nil {
			b.Fatal(err)
		}
	}
}
