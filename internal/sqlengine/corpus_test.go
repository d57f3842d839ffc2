package sqlengine

// The enginetest-style query corpus: every query in testdata/corpus/
// carries its expected result — a row count and the sha256 of
// fmt.Sprint(Result.Rows) — and runs under three storage encodings
// (JSON text, BSON, OSON with an attached IMC store) crossed with
// serial/parallel scans. Every configuration, and the reference engine
// (text storage, no IMC, no vector kernels, no code-space paths,
// serial), must reproduce the committed digest bit for bit. The digests
// of the first 107 cases and of spine.sql were frozen at the commit
// before the row-at-a-time operators were deleted, from that tree's
// fully row-at-a-time reference, so the corpus is an oracle that does
// not depend on the engine under test. New cases get theirs with:
//
//	go test ./internal/sqlengine -run TestQueryCorpus -update-corpus
//
// which fills in the missing "-- rows:" / "-- sha256:" lines from the
// reference engine (never rewriting an existing one: a committed digest
// that no longer matches is a failure) and re-seeds the parser fuzz
// corpus from the query texts.

import (
	"crypto/sha256"
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
	"fill in the rows/sha256 lines of new corpus cases from the reference engine and re-seed the parser fuzz corpus")

type corpusCase struct {
	file string
	name string
	rows int    // -1: no "-- rows:" line yet
	sha  string // "": no "-- sha256:" line yet
	sql  string
}

// rowsDigest is the corpus oracle's fingerprint of a result: the
// sha256 of fmt.Sprint(rows), hex-encoded.
func rowsDigest(rows [][]jsondom.Value) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(rows))))
}

// corpusHeader matches one "-- key: value" header line of a case.
func corpusHeader(trimmed, key string) (string, bool) {
	prefix := "-- " + key + ":"
	if !strings.HasPrefix(trimmed, prefix) {
		return "", false
	}
	return strings.TrimSpace(trimmed[len(prefix):]), true
}

// loadCorpus parses every testdata/corpus/*.sql file: "-- case:" opens
// a case, "-- rows:" and "-- sha256:" carry its expected result, and
// the following statement runs through the first ";".
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
			if name, ok := corpusHeader(trimmed, "case"); ok {
				cases = append(cases, corpusCase{file: f, name: name, rows: -1})
				cur = &cases[len(cases)-1]
				stmt.Reset()
				continue
			}
			if v, ok := corpusHeader(trimmed, "rows"); ok {
				n, err := strconv.Atoi(v)
				if cur == nil || err != nil {
					t.Fatalf("%s: bad rows line %q", f, trimmed)
				}
				cur.rows = n
				continue
			}
			if v, ok := corpusHeader(trimmed, "sha256"); ok {
				if cur == nil || len(v) != 2*sha256.Size {
					t.Fatalf("%s: bad sha256 line %q", f, trimmed)
				}
				cur.sha = v
				continue
			}
			if trimmed == "" || strings.HasPrefix(trimmed, "--") {
				continue
			}
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
	return cases
}

// corpusDigest returns the committed digest of one corpus case, for
// tests that run a variant of the case (a prepared statement, a cached
// plan) and must land on the same rows.
func corpusDigest(t *testing.T, file, name string) string {
	t.Helper()
	for _, c := range loadCorpus(t) {
		if filepath.Base(c.file) == file && c.name == name {
			return c.sha
		}
	}
	t.Fatalf("no corpus case %s/%s", file, name)
	return ""
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

// corpusDocs / corpusLookups size d and lk. corpusDeletedDocs sizes td,
// a two-chunk copy of t's data with its 'w003' rows deleted before its
// store is populated: the vectors carry a null slot under every
// tombstone, so that they stay indexed by row id.
const corpusDocs, corpusLookups, corpusDeletedDocs = 1400, 30, 1100

// newCorpusEngine builds the corpus tables under one storage mode —
// d and lk, plus the fixtures of the batch-spine tests: t (batchDoc:
// three chunks, one all-null), td, orders and custs (the join pair) —
// creates the shared virtual columns, and attaches IMC stores in the
// oson-imc mode.
func newCorpusEngine(t *testing.T, mode string) *Engine {
	t.Helper()
	e := New()
	colType := "varchar2(0) check (jdoc is json)"
	if mode != "text" {
		// binary documents carry the IS JSON check too, which a search
		// index requires; the store validates only text against it
		colType = "raw(0) check (jdoc is json)"
	}
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
	fill := func(table, key string, n int, doc func(int) string) {
		mustExec(t, e, fmt.Sprintf(`create table %s (%s number primary key, jdoc %s)`, table, key, colType))
		tab, _ := e.Catalog().Table(table)
		for i := 0; i < n; i++ {
			if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), encode(doc(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill("d", "did", corpusDocs, corpusDoc)
	fill("lk", "lid", corpusLookups, corpusLookupDoc)
	fill("t", "did", batchDocs, batchDoc)
	fill("td", "did", corpusDeletedDocs, batchDoc)
	fill("orders", "oid", joinOrders, joinOrderDoc)
	fill("custs", "cid", joinCusts, joinCustDoc)
	mustExec(t, e, `alter table d add virtual column vn as json_value(jdoc, '$.n' returning number)`)
	mustExec(t, e, `alter table d add virtual column vs as json_value(jdoc, '$.s')`)
	mustExec(t, e, `alter table d add virtual column vg as json_value(jdoc, '$.g')`)
	mustExec(t, e, `alter table d add virtual column vprice as json_value(jdoc, '$.price' returning number)`)
	mustExec(t, e, `alter table d add virtual column vcity as json_value(jdoc, '$.addr.city')`)
	mustExec(t, e, `alter table lk add virtual column vk as json_value(jdoc, '$.k')`)
	mustExec(t, e, `alter table lk add virtual column vw as json_value(jdoc, '$.w' returning number)`)
	mustExec(t, e, `create view lkw as select lid, (lag(vw) over (order by lid)) is null as first from lk`)
	mustExec(t, e, `create view dv as select did, vs from d`)
	for _, tab := range []string{"t", "td"} {
		mustExec(t, e, `alter table `+tab+` add virtual column vn as json_value(jdoc, '$.n' returning number)`)
		mustExec(t, e, `alter table `+tab+` add virtual column vs as json_value(jdoc, '$.s')`)
	}
	mustExec(t, e, `delete from td where vs = 'w003'`)
	mustExec(t, e, `alter table orders add virtual column vk as json_value(jdoc, '$.k' returning number)`)
	mustExec(t, e, `alter table orders add virtual column vamt as json_value(jdoc, '$.amt' returning number)`)
	mustExec(t, e, `alter table custs add virtual column vid as json_value(jdoc, '$.id' returning number)`)
	mustExec(t, e, `alter table custs add virtual column vname as json_value(jdoc, '$.name')`)
	mustExec(t, e, `create view ocv as select c.cid, c.vname, o.oid, o.vk, o.vamt from custs c join orders o on c.vid = o.vk`)
	if mode == "oson-imc" {
		attachIMC(t, e, "d", "vn", "vs", "vg", "vprice", "vcity")
		attachIMC(t, e, "lk", "vk", "vw")
		attachIMC(t, e, "t", "vn", "vs")
		attachIMC(t, e, "td", "vn", "vs")
		attachIMC(t, e, "orders", "vk", "vamt")
		attachIMC(t, e, "custs", "vid", "vname")
	}
	return e
}

// plannerMode is one named PlannerOptions setting of a test matrix.
type plannerMode struct {
	label string
	set   func(*PlannerOptions)
}

// corpusConfigs is the execution matrix: the two scan shapes the
// planner can still choose between.
func corpusConfigs() []plannerMode {
	return []plannerMode{
		{"serial", func(p *PlannerOptions) { p.fanout = 1 }},
		{"fan-out", func(p *PlannerOptions) { p.fanout = 3 }},
	}
}

// corpusReferenceOptions configures the reference engine: with text
// storage and these options no IMC store, vector kernel, code-space
// path or scan fleet takes part in the answer.
func corpusReferenceOptions() PlannerOptions {
	return PlannerOptions{DisableVectorFilter: true, DisableVCRewrite: true, fanout: 1}
}

// TestQueryCorpus runs the whole corpus through the reference engine
// and the full storage × planner matrix and requires every one of them
// to reproduce the committed row counts and digests.
func TestQueryCorpus(t *testing.T) {
	cases := loadCorpus(t)
	if len(cases)*len(corpusStorageModes) < 200 {
		t.Fatalf("corpus too small: %d queries x %d storage modes < 200 cases",
			len(cases), len(corpusStorageModes))
	}

	ref := make([]string, len(cases))
	refEng := newCorpusEngine(t, "text")
	refEng.Planner = corpusReferenceOptions()
	for ci := range cases {
		c := &cases[ci]
		r := mustExec(t, refEng, c.sql)
		ref[ci] = fmt.Sprint(r.Rows)
		got := rowsDigest(r.Rows)
		if *updateCorpus {
			if c.rows < 0 {
				c.rows = len(r.Rows)
			}
			if c.sha == "" {
				c.sha = got
			}
		}
		if c.rows != len(r.Rows) || c.sha != got {
			t.Errorf("%s/%s: reference returned %d rows (sha256 %s), corpus expects %d (sha256 %q)",
				filepath.Base(c.file), c.name, len(r.Rows), got, c.rows, c.sha)
		}
	}
	if *updateCorpus {
		writeCorpusUpdates(t, cases)
		writeCorpusFuzzSeeds(t, cases)
		return
	}

	for _, mode := range corpusStorageModes {
		e := newCorpusEngine(t, mode)
		for _, cfg := range corpusConfigs() {
			e.Planner = PlannerOptions{}
			cfg.set(&e.Planner)
			for ci, c := range cases {
				r, err := e.Exec(c.sql)
				if err != nil {
					t.Fatalf("%s %s %s/%s: %v", mode, cfg.label, filepath.Base(c.file), c.name, err)
				}
				if rowsDigest(r.Rows) != c.sha {
					t.Errorf("%s %s %s/%s diverges from the corpus digest:\n  got  %s\n  reference %s",
						mode, cfg.label, filepath.Base(c.file), c.name, clip(fmt.Sprint(r.Rows)), clip(ref[ci]))
				}
			}
		}
	}
}

// writeCorpusUpdates inserts the "-- rows:" and "-- sha256:" lines a
// case does not have yet, right under its "-- case:" line (the digest
// after the row count); lines already present are left alone.
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
		var out []string
		idx := -1
		var hasRows, hasSha bool
		// flush adds what the case just left behind was missing
		flush := func() {
			if idx < 0 {
				return
			}
			if !hasRows {
				out = append(out, fmt.Sprintf("-- rows: %d", cs[idx].rows))
			}
			if !hasSha {
				out = append(out, "-- sha256: "+cs[idx].sha)
			}
			hasRows, hasSha = true, true
		}
		for _, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			_, isCase := corpusHeader(trimmed, "case")
			_, isRows := corpusHeader(trimmed, "rows")
			_, isSha := corpusHeader(trimmed, "sha256")
			switch {
			case isCase:
				idx++
				hasRows, hasSha = false, false
			case isRows:
				hasRows = true
			case isSha:
				hasSha = true
			default:
				// the header block of the current case ends here
				flush()
			}
			out = append(out, line)
		}
		if idx != len(cs)-1 {
			t.Fatalf("%s: %d cases parsed but %d -- case: lines", file, len(cs), idx+1)
		}
		if err := os.WriteFile(file, []byte(strings.Join(out, "\n")), 0o644); err != nil {
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
