package imc_test

// BenchmarkReadAfterWrites draws the curve foldThreshold is read from:
// what a point read costs after k writes that no fold has absorbed,
// what one write's maintenance costs, and what one fold costs. It lives
// beside the store rather than in internal/bench because the k past the
// threshold can only be reached by the package's own test hook
// (SetFoldThreshold).

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/sqlengine"
	"repro/internal/workload"
)

// The three virtual columns fsdmbench populates on its collections.
var benchVCs = []struct{ name, ddl string }{
	{"jdoc$str1", `alter table docs add virtual column jdoc$str1 as json_value(jdoc, '$.str1')`},
	{"jdoc$num", `alter table docs add virtual column jdoc$num as json_value(jdoc, '$.num' returning number)`},
	{"jdoc$dyn1", `alter table docs add virtual column jdoc$dyn1 as json_value(jdoc, '$.dyn1' returning number)`},
}

// maintEnv is a NOBENCH collection with the store fsdmbench's
// oltp_point and mixed_rw attach: OSON documents and three vectors.
type maintEnv struct {
	db   *core.DB
	col  *core.Collection
	mem  *imc.Store
	docs []jsondom.Value // the documents loaded, then a pool to write from
	n    int
}

func newMaintEnv(tb testing.TB, nDocs int, attach bool) *maintEnv {
	tb.Helper()
	env := &maintEnv{db: core.Open(), docs: workload.NoBench(7, 2*nDocs), n: nDocs}
	col, err := env.db.CreateCollection("docs")
	if err != nil {
		tb.Fatal(err)
	}
	env.col = col
	for _, d := range env.docs[:nDocs] {
		if _, err := col.Put(d); err != nil {
			tb.Fatal(err)
		}
	}
	for _, vc := range benchVCs {
		if _, err := env.db.Exec(vc.ddl); err != nil {
			tb.Fatal(err)
		}
	}
	if !attach {
		return env
	}
	env.mem = imc.NewStore(col.Table())
	if err := env.mem.PopulateOSON("jdoc"); err != nil {
		tb.Fatal(err)
	}
	for _, vc := range benchVCs {
		if err := env.mem.PopulateVC(vc.name); err != nil {
			tb.Fatal(err)
		}
	}
	env.db.SQL().AttachIMC("docs", env.mem)
	return env
}

// replace overwrites document id (1-based) with the i-th pool document.
func (env *maintEnv) replace(tb testing.TB, id, i int) {
	if err := env.col.Replace(int64(id), env.docs[env.n+i%env.n]); err != nil {
		tb.Fatal(err)
	}
}

func str1Of(d jsondom.Value) jsondom.Value {
	v, _ := d.(*jsondom.Object).Get("str1")
	return v
}

const pointSQL = `select count(*) from docs where json_value(jdoc, '$.str1') = ?`

func pointRead(tb testing.TB, ps *sqlengine.PreparedStmt, key jsondom.Value, want string) {
	res, err := ps.Query(key)
	if err != nil {
		tb.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != want {
		tb.Fatalf("point read of %v = %s, want %s", key, got, want)
	}
}

func BenchmarkReadAfterWrites(b *testing.B) {
	const nDocs = 8192
	never := func(int) int { return math.MaxInt }
	for _, k := range []int{0, 1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("read/k=%d", k), func(b *testing.B) {
			defer imc.SetFoldThreshold(never)()
			env := newMaintEnv(b, nDocs, true)
			// the written rows are spread evenly over the table, so from
			// k = 8 on no chunk is pruned; the row read is not one of them
			for i := 0; i < k; i++ {
				env.replace(b, 2+i*((nDocs-1)/k), i)
			}
			if pending, _ := env.mem.Image().Pending(); pending != k {
				b.Fatalf("%d rows pending, want %d", pending, k)
			}
			ps, err := env.db.SQL().Prepare(pointSQL)
			if err != nil {
				b.Fatal(err)
			}
			key := str1Of(env.docs[0])
			pointRead(b, ps, key, "[[1]]")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ps.Query(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// one Replace of a scattered document, without a store and with one
	// attached, at two table sizes: the difference is the maintenance of
	// the written row plus its share of the folds the writes trigger
	// (fold/ below prices one)
	for _, docs := range []int{2048, nDocs} {
		for _, attach := range []bool{false, true} {
			b.Run(fmt.Sprintf("write/docs=%d/attached=%v", docs, attach), func(b *testing.B) {
				env := newMaintEnv(b, docs, attach)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env.replace(b, 1+i*7919%docs, i)
				}
			})
		}
	}
	// one fold of a delta at the threshold
	for _, docs := range []int{2048, nDocs} {
		b.Run(fmt.Sprintf("fold/docs=%d", docs), func(b *testing.B) {
			pending := imc.FoldThreshold(docs)
			defer imc.SetFoldThreshold(never)()
			env := newMaintEnv(b, docs, true)
			b.ReportMetric(float64(pending), "rows-folded/op")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for w := 0; w < pending; w++ {
					env.replace(b, 1+(w*7+i)%docs, w)
				}
				b.StartTimer()
				env.mem.Fold()
			}
		})
	}
}

// TestReadAfterWritesFixture checks what the benchmark assumes: its
// reads are answered by kernels over a store with rows pending, rightly,
// and a fold changes nothing but the pending count.
func TestReadAfterWritesFixture(t *testing.T) {
	defer imc.SetFoldThreshold(func(int) int { return math.MaxInt })()
	env := newMaintEnv(t, 1500, true)
	ps, err := env.db.SQL().Prepare(pointSQL)
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := str1Of(env.docs[4]), str1Of(env.docs[env.n+0])
	pointRead(t, ps, old, "[[1]]")
	env.replace(t, 5, 0) // document 5 is env.docs[4]
	for _, fold := range []bool{false, true} {
		if fold {
			env.mem.Fold()
		}
		if pending, _ := env.mem.Image().Pending(); (pending == 0) != fold {
			t.Fatalf("fold=%v: %d rows pending", fold, pending)
		}
		pointRead(t, ps, old, "[[0]]")
		pointRead(t, ps, fresh, "[[1]]")
		got, err := env.col.Get(5)
		if err != nil || jsontext.SerializeString(got) != jsontext.SerializeString(env.docs[env.n]) {
			t.Fatalf("fold=%v: document 5 = %v, %v", fold, got, err)
		}
	}
}
