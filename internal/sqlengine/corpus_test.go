package sqlengine

// The enginetest-style query corpus: every query in testdata/corpus/
// runs under three storage encodings (JSON text, BSON, OSON with an
// attached IMC store) crossed with vectorized/row scans,
// parallel/serial scans, and batch/row execution — 24 configurations
// per query — and every configuration must return bit-for-bit the rows
// of the reference configuration (text storage, fully row-at-a-time,
// serial). The corpus files also carry expected row counts, refreshed
// with:
//
//	go test ./internal/sqlengine -run TestQueryCorpus -update-corpus
//
// which additionally re-seeds the parser fuzz corpus from the query
// texts.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bson"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/store"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite corpus expected row counts from the reference configuration and re-seed the parser fuzz corpus")

type corpusCase struct {
	file string
	name string
	rows int
	sql  string
}

// loadCorpus parses every testdata/corpus/*.sql file: "-- case:" opens
// a case, "-- rows:" carries its expected count, and the following
// statement runs through the first ";".
func loadCorpus(t *testing.T) []corpusCase {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	sort.Strings(files)
	var cases []corpusCase
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var cur *corpusCase
		var stmt strings.Builder
		for _, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, "-- case:"):
				cases = append(cases, corpusCase{file: f, name: strings.TrimSpace(trimmed[len("-- case:"):]), rows: -1})
				cur = &cases[len(cases)-1]
				stmt.Reset()
			case strings.HasPrefix(trimmed, "-- rows:"):
				if cur == nil {
					t.Fatalf("%s: -- rows: outside a case", f)
				}
				n, err := strconv.Atoi(strings.TrimSpace(trimmed[len("-- rows:"):]))
				if err != nil {
					t.Fatalf("%s: bad rows line %q", f, trimmed)
				}
				cur.rows = n
			case trimmed == "" || strings.HasPrefix(trimmed, "--"):
			default:
				if cur == nil || cur.sql != "" {
					t.Fatalf("%s: statement outside a case: %q", f, trimmed)
				}
				stmt.WriteString(line)
				if strings.HasSuffix(trimmed, ";") {
					cur.sql = strings.TrimSuffix(strings.TrimSpace(stmt.String()), ";")
				} else {
					stmt.WriteByte('\n')
				}
			}
		}
	}
	return cases
}

// corpusStorageModes are the three document encodings of the corpus
// matrix; only the OSON mode attaches an in-memory columnar store.
var corpusStorageModes = []string{"text", "bson", "oson-imc"}

// corpusDoc renders document i of the corpus dataset: 1400 docs across
// two IMC chunks, with a number that is absent on every 13th doc, a
// 23-value string dictionary, a 5-value group key, an exact decimal, a
// nested object, and a 1..3 element array for JSON_TABLE expansion.
func corpusDoc(i int) string {
	items := ""
	for j := 0; j <= i%3; j++ {
		if j > 0 {
			items += ","
		}
		items += fmt.Sprintf(`{"q":%d,"part":"p%d"}`, j+1, (i+j)%7)
	}
	n := fmt.Sprintf(`"n":%d,`, i)
	if i%13 == 0 {
		n = ""
	}
	return fmt.Sprintf(`{%s"s":"s%02d","g":"grp%d","price":%d.25,"addr":{"city":"c%02d","zip":%d},"items":[%s]}`,
		n, i%23, i%5, i%50, i%17, 10000+i%100, items)
}

// corpusLookupDoc renders lookup row j: keys s23..s29 match no document
// in d, giving the joins probe-side misses.
func corpusLookupDoc(j int) string {
	return fmt.Sprintf(`{"k":"s%02d","w":%d}`, j, j*10)
}

const corpusDocs, corpusLookups = 1400, 30

// newCorpusEngine builds the two corpus tables under one storage mode,
// creates the shared virtual columns, and attaches IMC stores in the
// oson-imc mode.
func newCorpusEngine(t *testing.T, mode string) *Engine {
	t.Helper()
	e := New()
	colType := "varchar2(0) check (jdoc is json)"
	if mode != "text" {
		colType = "raw(0)"
	}
	mustExec(t, e, fmt.Sprintf(`create table d (did number primary key, jdoc %s)`, colType))
	mustExec(t, e, fmt.Sprintf(`create table lk (lid number primary key, jdoc %s)`, colType))
	encode := func(doc string) jsondom.Value {
		switch mode {
		case "text":
			return jsondom.String(jsontext.SerializeString(jsontext.MustParse(doc)))
		case "bson":
			b, err := bson.Encode(jsontext.MustParse(doc))
			if err != nil {
				t.Fatal(err)
			}
			return jsondom.Binary(b)
		default:
			b, err := oson.Encode(jsontext.MustParse(doc))
			if err != nil {
				t.Fatal(err)
			}
			return jsondom.Binary(b)
		}
	}
	fill := func(table string, n int, doc func(int) string) {
		tab, _ := e.Catalog().Table(table)
		for i := 0; i < n; i++ {
			if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), encode(doc(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill("d", corpusDocs, corpusDoc)
	fill("lk", corpusLookups, corpusLookupDoc)
	mustExec(t, e, `alter table d add virtual column vn as json_value(jdoc, '$.n' returning number)`)
	mustExec(t, e, `alter table d add virtual column vs as json_value(jdoc, '$.s')`)
	mustExec(t, e, `alter table d add virtual column vg as json_value(jdoc, '$.g')`)
	mustExec(t, e, `alter table d add virtual column vprice as json_value(jdoc, '$.price' returning number)`)
	mustExec(t, e, `alter table d add virtual column vcity as json_value(jdoc, '$.addr.city')`)
	mustExec(t, e, `alter table lk add virtual column vk as json_value(jdoc, '$.k')`)
	mustExec(t, e, `alter table lk add virtual column vw as json_value(jdoc, '$.w' returning number)`)
	if mode == "oson-imc" {
		attachIMC(t, e, "d", "vn", "vs", "vg", "vprice", "vcity")
		attachIMC(t, e, "lk", "vk", "vw")
	}
	return e
}

// corpusConfigs is the execution matrix: vectorized/row IMC scans,
// serial/parallel scans, batch/row execution.
func corpusConfigs() []plannerMode {
	var out []plannerMode
	for _, vec := range []bool{true, false} {
		for _, par := range []bool{false, true} {
			for _, batch := range []bool{true, false} {
				vec, par, batch := vec, par, batch
				label := fmt.Sprintf("vec=%t/par=%t/batch=%t", vec, par, batch)
				out = append(out, plannerMode{label, func(p *PlannerOptions) {
					if !vec {
						p.DisableVectorizedScan = true
					}
					if par {
						p.ParallelMinRows = 1
						p.ParallelDegree = 3
					} else {
						p.DisableParallelScan = true
					}
					if !batch {
						p.DisableBatchExec = true
					}
				}})
			}
		}
	}
	return out
}

// TestQueryCorpus runs the whole corpus through the full storage ×
// planner matrix and requires bit-for-bit agreement with the reference
// configuration plus the committed row counts.
func TestQueryCorpus(t *testing.T) {
	cases := loadCorpus(t)
	if len(cases)*len(corpusStorageModes) < 200 {
		t.Fatalf("corpus too small: %d queries x %d storage modes < 200 cases",
			len(cases), len(corpusStorageModes))
	}
	configs := corpusConfigs()

	// reference: text storage, serial, fully row-at-a-time
	ref := make([]string, len(cases))
	refEng := newCorpusEngine(t, "text")
	refEng.Planner = PlannerOptions{
		DisableVectorizedScan: true, DisableVectorFilter: true,
		DisableVCRewrite: true, DisableParallelScan: true, DisableBatchExec: true,
	}
	for ci, c := range cases {
		r := mustExec(t, refEng, c.sql)
		ref[ci] = fmt.Sprint(r.Rows)
		if *updateCorpus {
			cases[ci].rows = len(r.Rows)
		} else if c.rows >= 0 && len(r.Rows) != c.rows {
			t.Errorf("%s/%s: reference returned %d rows, corpus expects %d",
				filepath.Base(c.file), c.name, len(r.Rows), c.rows)
		}
	}
	if *updateCorpus {
		writeCorpusUpdates(t, cases)
		writeCorpusFuzzSeeds(t, cases)
		return
	}

	for _, mode := range corpusStorageModes {
		e := newCorpusEngine(t, mode)
		for _, cfg := range configs {
			e.Planner = PlannerOptions{}
			cfg.set(&e.Planner)
			for ci, c := range cases {
				r, err := e.Exec(c.sql)
				if err != nil {
					t.Fatalf("%s %s %s/%s: %v", mode, cfg.label, filepath.Base(c.file), c.name, err)
				}
				if got := fmt.Sprint(r.Rows); got != ref[ci] {
					t.Errorf("%s %s %s/%s diverges from reference:\n  got  %s\n  want %s",
						mode, cfg.label, filepath.Base(c.file), c.name, clip(got), clip(ref[ci]))
				}
			}
		}
	}
}

// writeCorpusUpdates rewrites the "-- rows:" line of every case in
// place from the freshly computed reference counts.
func writeCorpusUpdates(t *testing.T, cases []corpusCase) {
	t.Helper()
	byFile := map[string][]corpusCase{}
	for _, c := range cases {
		byFile[c.file] = append(byFile[c.file], c)
	}
	for file, cs := range byFile {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		idx := 0
		for li, line := range lines {
			if !strings.HasPrefix(strings.TrimSpace(line), "-- rows:") {
				continue
			}
			if idx >= len(cs) {
				t.Fatalf("%s: more -- rows: lines than cases", file)
			}
			lines[li] = fmt.Sprintf("-- rows: %d", cs[idx].rows)
			idx++
		}
		if idx != len(cs) {
			t.Fatalf("%s: %d cases but %d -- rows: lines (every case needs one)", file, len(cs), idx)
		}
		if err := os.WriteFile(file, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeCorpusFuzzSeeds re-seeds the parser fuzz corpus from the query
// texts, one seed file per corpus case.
func writeCorpusFuzzSeeds(t *testing.T, cases []corpusCase) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzParseStatement")
	for _, c := range cases {
		name := filepath.Join(dir, "seed_corpus_"+strings.TrimSuffix(filepath.Base(c.file), ".sql")+"_"+c.name)
		body := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", c.sql)
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
