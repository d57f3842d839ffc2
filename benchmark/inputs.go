// Input generation: everything a workload feeds the engine is made
// here from the -seed value and nothing else, so the same seed gives
// byte-identical inputs and the engine only ever sees generated data.

package main

import (
	"fmt"
	"math/rand"

	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/workload"
)

// Input sizes. They are part of the benchmark's definition: changing
// one changes every number measured after it.
const (
	olapOrders     = 500  // below defaultParallelMinRows and defaultParallelExecMinRows
	nobenchDocs    = 4096 // 4 IMC chunks, above both parallel thresholds
	oltpDocs       = 8192
	oltpAdhocN     = 512 // distinct ad-hoc statement shapes, 4x defaultPlanCacheSize
	mixedDocs      = 2048
	mixedWritePool = 4096 // pre-generated replacement/insert documents
	ingestRound    = 20000
	ingestPreload  = 2000 // documents already in the collection when a round starts
)

// olapSQL is Table 13 of the paper: the nine OLAP queries over the
// po_mv / po_item_dmdv views. ordered marks the ones whose ORDER BY
// makes row order part of the result.
var olapSQL = []struct {
	sql     string
	ordered bool
}{
	{`select count(*) from po_mv p where p.reference = ?`, false},
	{`select costcenter, count(*) from po_mv group by costcenter order by 1`, true},
	{`select costcenter, count(*) from po_item_dmdv where partno = ? group by costcenter`, false},
	{`select reference, instructions, itemno, partno, description, quantity, unitprice
	   from po_item_dmdv d where requestor = ? and d.quantity > ? and d.unitprice > ?`, false},
	{`select l.reference, l.itemno, l.partno, l.description from po_item_dmdv l
	   where l.partno in (?, ?, ?)`, false},
	{`select partno, reference, quantity, quantity -
	     lag(quantity, 1, quantity) over (order by substr(reference, instr(reference, '-') + 1)) as difference
	   from po_item_dmdv where partno = ?
	   order by substr(reference, instr(reference, '-') + 1) desc`, true},
	{`select sum(quantity * unitprice) from po_item_dmdv group by costcenter order by 1`, true},
	{`select reference, instructions, itemno, partno, description, quantity, unitprice
	   from po_item_dmdv where quantity > ? and unitprice > ?`, false},
	{`select reference, instructions, itemno, partno, description, quantity, unitprice
	   from po_item_dmdv`, false},
}

// poInputs is the purchase-order collection both OLAP workloads load:
// the same orders as documents (OSON side) and as master/detail rows
// (REL side), with the binds of the nine queries drawn from the data.
type poInputs struct {
	orders    []*workload.PO
	docs      []jsondom.Value
	texts     []string
	userBytes int
	params    [][]jsondom.Value
}

func genPO(seed int64) *poInputs {
	in := &poInputs{}
	for i := 0; i < olapOrders; i++ {
		po := workload.GenPO(seed, i)
		doc := po.JSON()
		text := jsontext.SerializeString(doc)
		in.orders = append(in.orders, po)
		in.docs = append(in.docs, doc)
		in.texts = append(in.texts, text)
		in.userBytes += len(text)
	}
	r := rand.New(rand.NewSource(seed ^ 0x0a11))
	pick := func() *workload.PO { return in.orders[r.Intn(olapOrders)] }
	probe := pick()
	part := func() jsondom.Value { return jsondom.String(pick().Items[0].PartNo) }
	part1 := jsondom.String(probe.Items[0].PartNo)
	in.params = [][]jsondom.Value{
		{jsondom.String(probe.Reference)},
		nil,
		{part1},
		{jsondom.String(probe.Requestor), jsondom.Number("5"), jsondom.Number("400")},
		{part1, part(), part()},
		{part1},
		nil,
		{jsondom.Number("8"), jsondom.Number("700")},
		nil,
	}
	return in
}

// docSet is a generated NOBENCH collection: the documents, their JSON
// text (what gets stored) and the text's total size, the denominator
// of the bytes-per-user-byte metrics.
type docSet struct {
	docs      []*jsondom.Object
	texts     []string
	userBytes int
}

// genDocs generates NOBENCH documents first..first+n-1 of the seed's
// collection. str1 and num are functions of the index, so index ranges
// that do not overlap give documents with distinct keys.
func genDocs(seed int64, first, n int) *docSet {
	ds := &docSet{docs: make([]*jsondom.Object, n), texts: make([]string, n)}
	for i := range ds.docs {
		d := workload.GenNoBench(seed, first+i)
		ds.docs[i] = d
		ds.texts[i] = jsontext.SerializeString(d)
		ds.userBytes += len(ds.texts[i])
	}
	return ds
}

func str1Of(d *jsondom.Object) string {
	v, _ := d.Get("str1")
	s, _ := v.(jsondom.String)
	return string(s)
}

// Operation classes. A workload's op sequence is a []opSpec drawn from
// the seed; class indexes the per-class latency metrics.
const (
	clsPrepared = iota // oltp_point: PreparedStmt.Query with a bind
	clsLiteral         // oltp_point: Engine.Query with a literal, plan-cache hit
	clsAdhoc           // oltp_point: one of oltpAdhocN projection shapes
	clsGet             // oltp_point: Collection.Get
	clsRead            // mixed_rw: the clsLiteral point read, beside writes
	clsReplace         // mixed_rw: Collection.Replace
	clsUpdate          // mixed_rw: SQL update ... where did = ?
	clsPut             // mixed_rw / ingest: Collection.PutText
	clsPass            // olap_*, nobench_imc: one pass of the query suite
	numClasses
)

// opSpec is one drawn operation: its class and two class-specific
// arguments (document index, ad-hoc shape, write-pool index).
type opSpec struct {
	class uint8
	a, b  int32
}

// oltpInputs is the oltp_point workload: the collection, the cyclic op
// sequence, and the ad-hoc statement texts with their expected values.
type oltpInputs struct {
	*docSet
	ops   []opSpec
	adhoc []string // statement prefix per shape; the op appends the str1 literal
}

const oltpSeqLen = 1 << 16 // drawn ops; the loop cycles through them

func genOLTP(seed int64) *oltpInputs {
	in := &oltpInputs{docSet: genDocs(seed, 0, oltpDocs)}
	for s := 0; s < oltpAdhocN; s++ {
		// the alias makes each shape a distinct plan-cache key; the path
		// literal alone would not (normalizeSQL folds string literals).
		// The predicate is the point query's, so that execution stays
		// tiny and the statement's parse and plan are what the class adds
		in.adhoc = append(in.adhoc, fmt.Sprintf(
			`select json_value(jdoc, '$.sparse_%03d') as s%03d from docs where json_value(jdoc, '$.str1') = '`, s, s))
	}
	r := rand.New(rand.NewSource(seed ^ 0x017b))
	in.ops = make([]opSpec, oltpSeqLen)
	for i := range in.ops {
		doc := int32(r.Intn(oltpDocs))
		switch p := r.Intn(10); {
		case p < 4:
			in.ops[i] = opSpec{class: clsPrepared, a: doc}
		case p < 8:
			in.ops[i] = opSpec{class: clsLiteral, a: doc}
		case p < 9:
			in.ops[i] = opSpec{class: clsAdhoc, a: doc, b: int32(r.Intn(oltpAdhocN))}
		default:
			in.ops[i] = opSpec{class: clsGet, a: doc}
		}
	}
	return in
}

// mixedInputs is the mixed_rw workload: the initial collection, a pool
// of documents the writes store, and the op sequence. Reads carry a
// random number the instance maps onto whatever is live when they run.
type mixedInputs struct {
	*docSet
	pool *docSet
	ops  []opSpec
}

const mixedSeqLen = 1 << 14

func genMixed(seed int64) *mixedInputs {
	in := &mixedInputs{
		docSet: genDocs(seed, 0, mixedDocs),
		pool:   genDocs(seed, mixedDocs, mixedWritePool),
	}
	r := rand.New(rand.NewSource(seed ^ 0x3173d))
	in.ops = make([]opSpec, mixedSeqLen)
	for i := range in.ops {
		a := int32(r.Int31())
		// 80% reads, 6% Replace, 8% SQL update, 6% PutText. The slowest
		// class (update) is kept wider than 5% of the operations so that
		// lat_p95_us lies inside it and not on the edge between two classes
		switch p := r.Intn(50); {
		case p < 40:
			in.ops[i] = opSpec{class: clsRead, a: a}
		case p < 43:
			in.ops[i] = opSpec{class: clsReplace, a: a}
		case p < 47:
			in.ops[i] = opSpec{class: clsUpdate, a: a}
		default:
			in.ops[i] = opSpec{class: clsPut, a: a}
		}
	}
	return in
}

// ingestInputs is one round of the ingest workload: the documents that
// are already in the collection when the round starts, the documents
// the round inserts, and the number of distinct field-name paths the
// search index must know after each insert.
type ingestInputs struct {
	preload   []string
	texts     []string
	userBytes int   // preload + texts
	pathsAt   []int // pathsAt[k] = distinct paths after preload and texts[0..k]
}

func genIngest(seed int64) *ingestInputs {
	in := &ingestInputs{}
	seen := map[string]bool{}
	// the preload comes from a disjoint index range of the same
	// collection: same cluster shapes, different values
	for i := 0; i < ingestPreload; i++ {
		d := workload.GenNoBench(seed, 1_000_000+i)
		addPaths(seen, d, "$")
		t := jsontext.SerializeString(d)
		in.preload = append(in.preload, t)
		in.userBytes += len(t)
	}
	for i := 0; i < ingestRound; i++ {
		d := workload.GenNoBench(seed, i)
		if i%10 == 9 {
			// a field no earlier document has: the DataGuide grows
			d.Set(fmt.Sprintf("novel_%05d", i), jsondom.NumberFromInt(int64(i)))
		}
		addPaths(seen, d, "$")
		t := jsontext.SerializeString(d)
		in.texts = append(in.texts, t)
		in.userBytes += len(t)
		in.pathsAt = append(in.pathsAt, len(seen))
	}
	return in
}

// addPaths records the field-name paths of v the way the search index
// counts them: one per object member, array steps transparent.
func addPaths(seen map[string]bool, v jsondom.Value, path string) {
	switch t := v.(type) {
	case *jsondom.Object:
		for _, f := range t.Fields() {
			p := path + "." + f.Name
			seen[p] = true
			addPaths(seen, f.Value, p)
		}
	case *jsondom.Array:
		for _, e := range t.Elems {
			addPaths(seen, e, path)
		}
	}
}
