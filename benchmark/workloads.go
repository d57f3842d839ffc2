// The six workloads. Each is a named kind of traffic the engine exists
// to serve, kept apart so that a gain for one that costs another shows.
// Names are permanent: later changes are compared by them.

package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/imc"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/sqlengine"
	"repro/internal/store"
	"repro/internal/workload"
)

// instance is one built database together with the state its
// operation sequence needs. The runner drives it from one goroutine.
type instance interface {
	// needsPrep reports whether untimed work is due before operation i
	// (ingest opens its next round); prep does it, outside the
	// measurement window.
	needsPrep(i int) bool
	prep(i int) error
	// op runs operation i and returns its class. With a tracer it
	// records a span around each call it makes into the engine.
	op(i int, tr *tracer, parent int32) (uint8, error)
	// check verifies the result of the operation that just ran.
	check(i int) error
	// verify computes the reference results once, untimed, before any
	// measurement, cross-checking them against another storage format
	// where the workload has one.
	verify() error
	// finish runs the end-of-run checks and reports the sizes behind
	// the bytes-per-user-byte metrics.
	finish() (sizes, error)
	// resultRows is the number of result rows the operations so far
	// returned to the client.
	resultRows() int64
	// replaySet hands the layer replay the workload's own inputs.
	replaySet() (*replaySet, error)
}

// noPrep is embedded by the workloads whose database is built once.
type noPrep struct{}

func (noPrep) needsPrep(int) bool { return false }
func (noPrep) prep(int) error     { return nil }

// rowCount is embedded by every workload to count returned rows.
type rowCount struct{ rows int64 }

func (c *rowCount) resultRows() int64 { return c.rows }

// sizes are the byte counts a finished run reports.
type sizes struct {
	stored, imc, user int
	// setups are the times of set-ups the workload repeated during the
	// run (ingest builds a collection per round)
	setups []time.Duration
}

// workloadDef names a workload and opens it for a seed: open generates
// the inputs and returns the function that builds a database from
// them, which the runner times as set-up.
type workloadDef struct {
	name string
	why  string
	// suite names the per-query latency metrics (sqlengine.<suite>_qN_p50_us)
	// of a workload whose operation is a pass over a query suite.
	suite string
	// traceOps is the fixed operation count of each half (untraced,
	// traced) of a traced run at 10 s; it scales with -seconds. An
	// untraced run counts allocation over as many operations.
	traceOps int
	open     func(seed int64) func() (instance, error)
}

var workloads = []workloadDef{
	{
		name:     "olap_po_oson",
		suite:    "olap",
		why:      "Fig 3 headline: nine Table 13 queries over JSON_TABLE views on 500 OSON orders; oson, pathengine and sqljson expansion do the work, imc none, below both parallel thresholds",
		traceOps: 192,
		open: func(seed int64) func() (instance, error) {
			in := genPO(seed)
			return func() (instance, error) { return buildOLAP(in, false) }
		},
	},
	{
		name:     "olap_po_rel",
		suite:    "olap",
		why:      "the bypass: same orders as master/detail tables, same nine queries; no JSON layer runs, so an OSON or expansion change must predict no change here",
		traceOps: 192,
		open: func(seed int64) func() (instance, error) {
			in := genPO(seed)
			return func() (instance, error) { return buildOLAP(in, true) }
		},
	},
	{
		name:     "nobench_imc",
		suite:    "nobench",
		why:      "Fig 5/6: eleven NOBENCH queries over 4096 text documents with OSON-IMC and three VC vectors attached; imc kernels, zone maps and code-space agg/join work, text parsing does not",
		traceOps: 96,
		open: func(seed int64) func() (instance, error) {
			in := genDocs(seed, 0, nobenchDocs)
			return func() (instance, error) { return buildNoBench(in, true) }
		},
	},
	{
		name:     "oltp_point",
		why:      "single-statement point ops on 8192 documents: 40% prepared, 40% plan-cache hit, 10% from 512 ad-hoc shapes (4x the plan cache), 10% Get; parse, plan and per-query fixed costs dominate",
		traceOps: 9600,
		open: func(seed int64) func() (instance, error) {
			in := genOLTP(seed)
			return func() (instance, error) { return buildOLTP(in) }
		},
	},
	{
		name:     "ingest",
		why:      "Fig 7/8 write path: PutText into an IS JSON collection with search index and DataGuide, 9 in 10 documents of repeating shapes, 1 in 10 adding a new path; no read workload touches it",
		traceOps: 2 * ingestRound,
		open: func(seed int64) func() (instance, error) {
			in := genIngest(seed)
			return func() (instance, error) { return buildIngest(in) }
		},
	},
	{
		name:     "mixed_rw",
		why:      "the oltp_point read with 20% writes beside it (Replace, SQL update, PutText) on 2048 documents: the first write detaches the IMC and reads fall to the text path",
		traceOps: 640,
		open: func(seed int64) func() (instance, error) {
			in := genMixed(seed)
			return func() (instance, error) { return buildMixed(in) }
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// assertDefaults fails when the engine is not what a user gets: the
// benchmark measures the defaults, never a knob.
func assertDefaults(eng *sqlengine.Engine) error {
	if eng.Planner != (sqlengine.PlannerOptions{}) {
		return fmt.Errorf("Engine.Planner is not the zero value: %+v", eng.Planner)
	}
	return nil
}

// ---------------------------------------------------------------------------
// olap_po_oson / olap_po_rel

const (
	mvColumns = `columns (
		reference varchar2(40) path '$.purchaseOrder.reference',
		requestor varchar2(40) path '$.purchaseOrder.requestor',
		costcenter varchar2(8) path '$.purchaseOrder.costcenter',
		instructions varchar2(80) path '$.purchaseOrder.instructions',
		total number path '$.purchaseOrder.total'
	)`
	dmdvColumns = `columns (
		reference varchar2(40) path '$.purchaseOrder.reference',
		requestor varchar2(40) path '$.purchaseOrder.requestor',
		costcenter varchar2(8) path '$.purchaseOrder.costcenter',
		instructions varchar2(80) path '$.purchaseOrder.instructions',
		nested path '$.purchaseOrder.items[*]' columns (
			itemno number path '$.itemno',
			partno varchar2(16) path '$.partno',
			description varchar2(40) path '$.description',
			quantity number path '$.quantity',
			unitprice number path '$.unitprice'
		)
	)`
	dmdvViewSQL = `select po.did, jt.* from po, json_table(jdoc, '$' ` + dmdvColumns + `) jt`
)

// olapSpanNames are the child span names of one pass, fixed so the
// traced loop does not format strings.
var olapSpanNames, nobenchSpanNames = spanNames(len(olapSQL)), spanNames(11)

func spanNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sqlengine.query_cached.q%d", i+1)
	}
	return out
}

type olapInst struct {
	noPrep
	rowCount
	in   *poInputs
	rel  bool
	eng  *sqlengine.Engine
	tabs []*store.Table
	want [9]uint64
	last [9]*sqlengine.Result
}

func execAll(eng *sqlengine.Engine, stmts ...string) error {
	for _, s := range stmts {
		if _, err := eng.Exec(s); err != nil {
			return fmt.Errorf("%w (in %.60q)", err, s)
		}
	}
	return nil
}

func buildOLAP(in *poInputs, rel bool) (*olapInst, error) {
	eng := sqlengine.New()
	if err := assertDefaults(eng); err != nil {
		return nil, err
	}
	o := &olapInst{in: in, rel: rel, eng: eng}
	if !rel {
		if err := execAll(eng, `create table po (did number primary key, jdoc raw(0))`); err != nil {
			return nil, err
		}
		tab, _ := eng.Catalog().Table("po")
		for i, doc := range in.docs {
			b, err := oson.Encode(doc)
			if err != nil {
				return nil, err
			}
			if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), jsondom.Binary(b)}); err != nil {
				return nil, err
			}
		}
		o.tabs = []*store.Table{tab}
		return o, execAll(eng,
			`create view po_mv as select po.did, jt.* from po, json_table(jdoc, '$' `+mvColumns+`) jt`,
			`create view po_item_dmdv as `+dmdvViewSQL)
	}
	err := execAll(eng,
		`create table purchase_master_tab (
			did number primary key, reference varchar2(40), requestor varchar2(40),
			costcenter varchar2(8), instructions varchar2(80), podate varchar2(12),
			status varchar2(10), shipto_name varchar2(40), shipto_city varchar2(20),
			shipto_zip varchar2(8), total number)`,
		`create table lineitem_detail_tab (
			po_did number, itemno number, partno varchar2(16),
			description varchar2(40), quantity number, unitprice number)`)
	if err != nil {
		return nil, err
	}
	master, _ := eng.Catalog().Table("purchase_master_tab")
	detail, _ := eng.Catalog().Table("lineitem_detail_tab")
	for _, po := range in.orders {
		if err := insertPO(master, detail, po); err != nil {
			return nil, err
		}
	}
	o.tabs = []*store.Table{master, detail}
	return o, execAll(eng,
		`create view po_mv as
			select did, reference, requestor, costcenter, instructions, total
			from purchase_master_tab`,
		`create view po_item_dmdv as
			select m.did, m.reference, m.requestor, m.costcenter, m.instructions,
			       l.itemno, l.partno, l.description, l.quantity, l.unitprice
			from purchase_master_tab m join lineitem_detail_tab l on m.did = l.po_did`)
}

func insertPO(master, detail *store.Table, po *workload.PO) error {
	_, err := master.Insert(store.Row{
		jsondom.NumberFromInt(po.DID), jsondom.String(po.Reference),
		jsondom.String(po.Requestor), jsondom.String(po.CostCenter),
		jsondom.String(po.Instructions), jsondom.String(po.PODate),
		jsondom.String(po.Status), jsondom.String(po.ShipToName),
		jsondom.String(po.ShipToCity), jsondom.String(po.ShipToZip),
		jsondom.NumberFromFloat(po.Total),
	})
	if err != nil {
		return err
	}
	for _, it := range po.Items {
		_, err := detail.Insert(store.Row{
			jsondom.NumberFromInt(po.DID), jsondom.NumberFromInt(it.ItemNo),
			jsondom.String(it.PartNo), jsondom.String(it.Description),
			jsondom.NumberFromInt(it.Quantity), jsondom.NumberFromFloat(it.UnitPrice),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *olapInst) op(i int, tr *tracer, parent int32) (uint8, error) {
	for q := range olapSQL {
		id := tr.begin(parent, int32(i), olapSpanNames[q])
		res, err := o.eng.Query(olapSQL[q].sql, o.in.params[q]...)
		tr.end(id)
		if err != nil {
			return clsPass, fmt.Errorf("Q%d: %w", q+1, err)
		}
		o.last[q] = res
		o.rows += int64(len(res.Rows))
	}
	return clsPass, nil
}

func (o *olapInst) check(int) error {
	for q := range olapSQL {
		if h := resultHash(o.last[q], olapSQL[q].ordered); h != o.want[q] {
			return fmt.Errorf("Q%d: result hash %016x, want %016x (%d rows)", q+1, h, o.want[q], len(o.last[q].Rows))
		}
	}
	return nil
}

// verify runs the nine queries on this database and on the same orders
// in the other storage format and demands identical rows.
func (o *olapInst) verify() error {
	other, err := buildOLAP(o.in, !o.rel)
	if err != nil {
		return err
	}
	for q, def := range olapSQL {
		a, err := o.eng.Query(def.sql, o.in.params[q]...)
		if err != nil {
			return fmt.Errorf("Q%d: %w", q+1, err)
		}
		b, err := other.eng.Query(def.sql, o.in.params[q]...)
		if err != nil {
			return fmt.Errorf("Q%d (other format): %w", q+1, err)
		}
		if err := sameResults(a, b, def.ordered); err != nil {
			return fmt.Errorf("Q%d: OSON and REL disagree: %w", q+1, err)
		}
		o.want[q] = resultHash(a, def.ordered)
	}
	return nil
}

func (o *olapInst) finish() (sizes, error) {
	sz := sizes{user: o.in.userBytes}
	for _, t := range o.tabs {
		sz.stored += t.StorageBytes()
	}
	return sz, nil
}

// ---------------------------------------------------------------------------
// nobench_imc

// vcDDL are the three virtual columns of the paper's VC-IMC mode
// (section 6.4), on table %s.
var vcDDL = []struct{ name, ddl string }{
	{"jdoc$str1", `alter table %s add virtual column jdoc$str1 as json_value(jdoc, '$.str1')`},
	{"jdoc$num", `alter table %s add virtual column jdoc$num as json_value(jdoc, '$.num' returning number)`},
	{"jdoc$dyn1", `alter table %s add virtual column jdoc$dyn1 as json_value(jdoc, '$.dyn1' returning number)`},
}

var vcNames = []string{vcDDL[0].name, vcDDL[1].name, vcDDL[2].name}

type nobenchInst struct {
	noPrep
	rowCount
	in      *docSet
	eng     *sqlengine.Engine
	tab     *store.Table
	mem     *imc.Store
	queries []string
	want    [11]uint64
	last    [11]*sqlengine.Result
}

// buildNoBench loads the documents as JSON text; withIMC adds the
// virtual columns and populates and attaches the in-memory store.
func buildNoBench(in *docSet, withIMC bool) (*nobenchInst, error) {
	eng := sqlengine.New()
	if err := assertDefaults(eng); err != nil {
		return nil, err
	}
	if err := execAll(eng, `create table nobench (did number, jdoc varchar2(0) check (jdoc is json))`); err != nil {
		return nil, err
	}
	tab, _ := eng.Catalog().Table("nobench")
	for i, t := range in.texts {
		if _, err := tab.Insert(store.Row{jsondom.NumberFromInt(int64(i)), jsondom.String(t)}); err != nil {
			return nil, err
		}
	}
	n := &nobenchInst{in: in, eng: eng, tab: tab,
		queries: workload.NoBenchQueries("nobench", "jdoc", len(in.texts))}
	if !withIMC {
		return n, nil
	}
	for _, vc := range vcDDL {
		if err := execAll(eng, fmt.Sprintf(vc.ddl, "nobench")); err != nil {
			return nil, err
		}
	}
	n.mem = imc.NewStore(tab)
	if err := n.mem.PopulateOSON("jdoc"); err != nil {
		return nil, err
	}
	for _, vc := range vcNames {
		if err := n.mem.PopulateVC(vc); err != nil {
			return nil, err
		}
	}
	eng.AttachIMC("nobench", n.mem)
	return n, nil
}

func (n *nobenchInst) op(i int, tr *tracer, parent int32) (uint8, error) {
	for q, sql := range n.queries {
		id := tr.begin(parent, int32(i), nobenchSpanNames[q])
		res, err := n.eng.Query(sql)
		tr.end(id)
		if err != nil {
			return clsPass, fmt.Errorf("Q%d: %w", q+1, err)
		}
		n.last[q] = res
		n.rows += int64(len(res.Rows))
	}
	return clsPass, nil
}

func (n *nobenchInst) check(int) error {
	for q := range n.queries {
		if h := resultHash(n.last[q], false); h != n.want[q] {
			return fmt.Errorf("Q%d: result hash %016x, want %016x (%d rows)", q+1, h, n.want[q], len(n.last[q].Rows))
		}
	}
	return nil
}

// verify demands that the in-memory formats answer every query exactly
// as a text-only engine loaded with the same documents does.
func (n *nobenchInst) verify() error {
	text, err := buildNoBench(n.in, false)
	if err != nil {
		return err
	}
	for q, sql := range n.queries {
		a, err := n.eng.Query(sql)
		if err != nil {
			return fmt.Errorf("Q%d: %w", q+1, err)
		}
		b, err := text.eng.Query(sql)
		if err != nil {
			return fmt.Errorf("Q%d (text): %w", q+1, err)
		}
		if err := sameResults(a, b, false); err != nil {
			return fmt.Errorf("Q%d: IMC and text disagree: %w", q+1, err)
		}
		n.want[q] = resultHash(a, false)
	}
	return nil
}

func (n *nobenchInst) finish() (sizes, error) {
	return sizes{stored: n.tab.StorageBytes(), imc: n.mem.MemoryBytes(), user: n.in.userBytes}, nil
}

// ---------------------------------------------------------------------------
// oltp_point

// newCollection creates the "docs" collection, loads texts, adds the
// three virtual columns and populates and attaches the in-memory store:
// the database of oltp_point and mixed_rw.
func newCollection(texts []string) (*core.DB, *core.Collection, error) {
	db := core.Open()
	if err := assertDefaults(db.SQL()); err != nil {
		return nil, nil, err
	}
	col, err := db.CreateCollection("docs")
	if err != nil {
		return nil, nil, err
	}
	for _, t := range texts {
		if _, err := col.PutText(t); err != nil {
			return nil, nil, err
		}
	}
	for _, vc := range vcDDL {
		if _, err := db.Exec(fmt.Sprintf(vc.ddl, "docs")); err != nil {
			return nil, nil, err
		}
	}
	if err := col.PopulateInMemory(true, vcNames...); err != nil {
		return nil, nil, err
	}
	return db, col, nil
}

const (
	pointSQL   = `select count(*) from docs where json_value(jdoc, '$.str1') = ?`
	pointSQLit = `select count(*) from docs where json_value(jdoc, '$.str1') = '`
)

type oltpInst struct {
	noPrep
	rowCount
	in  *oltpInputs
	db  *core.DB
	col *core.Collection
	ps  *sqlengine.PreparedStmt
	// per-document statement texts and binds, built at set-up so the
	// timed loop formats nothing
	litSQL []string
	str1   []string
	binds  []jsondom.Value

	lastRes *sqlengine.Result
	lastDoc jsondom.Value
}

func buildOLTP(in *oltpInputs) (*oltpInst, error) {
	db, col, err := newCollection(in.texts)
	if err != nil {
		return nil, err
	}
	ps, err := db.SQL().Prepare(pointSQL)
	if err != nil {
		return nil, err
	}
	o := &oltpInst{in: in, db: db, col: col, ps: ps,
		litSQL: make([]string, len(in.docs)), str1: make([]string, len(in.docs)), binds: make([]jsondom.Value, len(in.docs))}
	for i, d := range in.docs {
		s := str1Of(d)
		o.str1[i] = s
		o.litSQL[i] = pointSQLit + s + "'"
		o.binds[i] = jsondom.String(s)
	}
	return o, nil
}

func (o *oltpInst) op(i int, tr *tracer, parent int32) (uint8, error) {
	spec := o.in.ops[i%len(o.in.ops)]
	var err error
	switch spec.class {
	case clsPrepared:
		id := tr.begin(parent, int32(i), "sqlengine.execute")
		o.lastRes, err = o.ps.Query(o.binds[spec.a])
		tr.end(id)
	case clsLiteral:
		id := tr.begin(parent, int32(i), "sqlengine.query_cached")
		o.lastRes, err = o.db.SQL().Query(o.litSQL[spec.a])
		tr.end(id)
	case clsAdhoc:
		sql := o.in.adhoc[spec.b] + o.str1[spec.a] + "'"
		id := tr.begin(parent, int32(i), "sqlengine.query_adhoc")
		o.lastRes, err = o.db.SQL().Query(sql)
		tr.end(id)
	case clsGet:
		id := tr.begin(parent, int32(i), "core.get")
		o.lastDoc, err = o.col.Get(int64(spec.a) + 1)
		tr.end(id)
	}
	o.rows++ // every oltp_point operation returns one row or one document
	return spec.class, err
}

func (o *oltpInst) check(i int) error {
	spec := o.in.ops[i%len(o.in.ops)]
	switch spec.class {
	case clsPrepared, clsLiteral:
		if c := countOf(o.lastRes); c != 1 {
			return fmt.Errorf("point query on document %d: count %d, want 1", spec.a, c)
		}
	case clsAdhoc:
		var want jsondom.Value = jsondom.Null{}
		if v, ok := o.in.docs[spec.a].Get(sparseFields[spec.b]); ok {
			want = v
		}
		if len(o.lastRes.Rows) != 1 || len(o.lastRes.Rows[0]) != 1 {
			return fmt.Errorf("ad-hoc shape %d on document %d: %d rows, want 1", spec.b, spec.a, len(o.lastRes.Rows))
		}
		if got := o.lastRes.Rows[0][0]; !jsondom.Equal(got, want) {
			return fmt.Errorf("ad-hoc shape %d on document %d: got %v, want %v", spec.b, spec.a, got, want)
		}
	case clsGet:
		if !jsondom.Equal(o.lastDoc, o.in.docs[spec.a]) {
			return fmt.Errorf("Get(%d) does not round-trip the generated document", spec.a+1)
		}
	}
	return nil
}

var sparseFields = func() []string {
	out := make([]string, oltpAdhocN)
	for i := range out {
		out[i] = fmt.Sprintf("sparse_%03d", i)
	}
	return out
}()

func (o *oltpInst) verify() error {
	if n := o.col.Count(); n != len(o.in.docs) {
		return fmt.Errorf("collection holds %d documents, want %d", n, len(o.in.docs))
	}
	return nil
}

func (o *oltpInst) finish() (sizes, error) {
	return sizes{stored: o.col.Table().StorageBytes(), imc: o.col.InMemoryBytes(), user: o.in.userBytes}, nil
}

// ---------------------------------------------------------------------------
// mixed_rw

type mixedInst struct {
	noPrep
	rowCount
	in  *mixedInputs
	db  *core.DB
	col *core.Collection
	upd *sqlengine.PreparedStmt

	// the model the engine is checked against: which document each id
	// holds and how many live documents carry each str1
	ids      []int64
	docOf    map[int64]*jsondom.Object
	lenOf    map[int64]int // bytes of the JSON text id holds
	strCount map[string]int
	retired  []string
	nextPool int
	user     int // bytes of JSON text of the live documents

	lastRes  *sqlengine.Result
	lastWant int64
	lastID   int64
}

func buildMixed(in *mixedInputs) (*mixedInst, error) {
	db, col, err := newCollection(in.texts)
	if err != nil {
		return nil, err
	}
	upd, err := db.SQL().Prepare(`update docs set jdoc = ? where did = ?`)
	if err != nil {
		return nil, err
	}
	m := &mixedInst{in: in, db: db, col: col, upd: upd, user: in.userBytes,
		docOf: make(map[int64]*jsondom.Object), lenOf: make(map[int64]int), strCount: make(map[string]int)}
	for i, d := range in.docs {
		id := int64(i + 1)
		m.ids = append(m.ids, id)
		m.docOf[id] = d
		m.lenOf[id] = len(in.texts[i])
		m.strCount[str1Of(d)]++
	}
	return m, nil
}

// store records in the model that id now holds pool document p.
func (m *mixedInst) store(id int64, p int) {
	if old, ok := m.docOf[id]; ok {
		s := str1Of(old)
		m.strCount[s]--
		m.retired = append(m.retired, s)
		m.user -= m.lenOf[id]
	} else {
		m.ids = append(m.ids, id)
	}
	m.docOf[id] = m.in.pool.docs[p]
	m.lenOf[id] = len(m.in.pool.texts[p])
	m.strCount[str1Of(m.in.pool.docs[p])]++
	m.user += m.lenOf[id]
}

func (m *mixedInst) op(i int, tr *tracer, parent int32) (uint8, error) {
	spec := m.in.ops[i%len(m.in.ops)]
	a := int(spec.a)
	var err error
	switch spec.class {
	case clsRead:
		// one read in ten asks for a value a write has since removed
		var key string
		if a%10 == 0 && len(m.retired) > 0 {
			key = m.retired[a%len(m.retired)]
		} else {
			key = str1Of(m.docOf[m.ids[a%len(m.ids)]])
		}
		m.lastWant = int64(m.strCount[key])
		sql := pointSQLit + key + "'"
		id := tr.begin(parent, int32(i), "sqlengine.query_cached")
		m.lastRes, err = m.db.SQL().Query(sql)
		tr.end(id)
		m.rows++
		return spec.class, err
	case clsPut:
		p := m.nextPool % len(m.in.pool.docs)
		m.nextPool++
		id := tr.begin(parent, int32(i), "core.put")
		m.lastID, err = m.col.PutText(m.in.pool.texts[p])
		tr.end(id)
		if err == nil {
			m.store(m.lastID, p)
		}
		return spec.class, err
	}
	target := m.ids[a%len(m.ids)]
	p := m.nextPool % len(m.in.pool.docs)
	m.nextPool++
	if spec.class == clsReplace {
		id := tr.begin(parent, int32(i), "core.replace")
		err = m.col.Replace(target, m.in.pool.docs[p])
		tr.end(id)
	} else {
		id := tr.begin(parent, int32(i), "sqlengine.exec_dml")
		m.lastRes, err = m.upd.Exec(jsondom.String(m.in.pool.texts[p]), jsondom.NumberFromInt(target))
		tr.end(id)
	}
	if err == nil {
		m.store(target, p)
	}
	return spec.class, err
}

func (m *mixedInst) check(i int) error {
	switch m.in.ops[i%len(m.in.ops)].class {
	case clsRead:
		if c := countOf(m.lastRes); c != m.lastWant {
			return fmt.Errorf("op %d: read count %d, model says %d", i, c, m.lastWant)
		}
	case clsUpdate:
		if c := countOf(m.lastRes); c != 1 {
			return fmt.Errorf("op %d: update affected %d rows, want 1", i, c)
		}
	case clsPut:
		if want := int64(len(m.ids)); m.lastID != want {
			return fmt.Errorf("op %d: PutText returned id %d, want %d", i, m.lastID, want)
		}
	}
	return nil
}

func (m *mixedInst) verify() error {
	if n := m.col.Count(); n != len(m.ids) {
		return fmt.Errorf("collection holds %d documents, want %d", n, len(m.ids))
	}
	return nil
}

// imcAttached reports whether the statement is planned onto the
// in-memory vectors, read from EXPLAIN as a user would.
func imcAttached(eng *sqlengine.Engine, sql string) (bool, error) {
	res, err := eng.Query(`explain ` + sql)
	if err != nil {
		return false, err
	}
	for _, row := range res.Rows {
		for _, v := range row {
			if s, ok := v.(jsondom.String); ok && strings.Contains(string(s), "vec-filters") {
				return true, nil
			}
		}
	}
	return false, nil
}

// finish compares the whole table with the model.
func (m *mixedInst) finish() (sizes, error) {
	if n := m.col.Count(); n != len(m.ids) {
		return sizes{}, fmt.Errorf("collection holds %d documents, model %d", n, len(m.ids))
	}
	for _, id := range m.ids {
		got, err := m.col.Get(id)
		if err != nil {
			return sizes{}, err
		}
		if !jsondom.Equal(got, m.docOf[id]) {
			return sizes{}, fmt.Errorf("document %d differs from the model", id)
		}
	}
	return sizes{stored: m.col.Table().StorageBytes(), imc: m.col.InMemoryBytes(), user: m.user}, nil
}

// ---------------------------------------------------------------------------
// ingest

type ingestInst struct {
	rowCount
	in  *ingestInputs
	db  *core.DB
	col *core.Collection
	// roundSetup collects the set-up time of every round after the
	// first, which the runner times itself as the build
	roundSetup []time.Duration
	inRound    int // documents the open round has received
	lastID     int64
}

// openRound creates a fresh collection with IS JSON, search index and
// DataGuide, holding the preload documents.
func (g *ingestInst) openRound() error {
	g.inRound = 0
	g.db = core.Open()
	if err := assertDefaults(g.db.SQL()); err != nil {
		return err
	}
	var err error
	if g.col, err = g.db.CreateCollection("docs"); err != nil {
		return err
	}
	if err := g.col.EnableSearchIndex(true); err != nil {
		return err
	}
	for _, t := range g.in.preload {
		if _, err := g.col.PutText(t); err != nil {
			return err
		}
	}
	return nil
}

func buildIngest(in *ingestInputs) (*ingestInst, error) {
	g := &ingestInst{in: in}
	return g, g.openRound()
}

// closeRound checks a round that received k documents.
func (g *ingestInst) closeRound(k int) error {
	if n, want := g.col.Count(), ingestPreload+k; n != want {
		return fmt.Errorf("round ended with Count() = %d, want %d", n, want)
	}
	if k == 0 {
		return nil
	}
	sx, _ := g.col.SearchIndex()
	if n, want := sx.DistinctPathCount(), g.in.pathsAt[k-1]; n != want {
		return fmt.Errorf("search index knows %d distinct paths, generator made %d", n, want)
	}
	if n := sx.Guide().Len(); n < g.in.pathsAt[k-1] {
		return fmt.Errorf("DataGuide has %d entries for %d distinct paths", n, g.in.pathsAt[k-1])
	}
	return nil
}

// needsPrep is true when operation i-1 filled the open round. It asks
// the round, not only i: a loop that stops right after a prep hands the
// same i to the next loop, which must not end the fresh round again.
func (g *ingestInst) needsPrep(i int) bool { return i%ingestRound == 0 && g.inRound == ingestRound }

// prep ends the round operation i-1 completed and opens the next.
func (g *ingestInst) prep(int) error {
	if err := g.closeRound(ingestRound); err != nil {
		return err
	}
	// drop the finished round's collection now, so that every round
	// starts from the same heap and not in the middle of its
	// predecessor's collection
	g.db, g.col = nil, nil
	runtime.GC()
	t0 := time.Now()
	err := g.openRound()
	g.roundSetup = append(g.roundSetup, time.Since(t0))
	return err
}

func (g *ingestInst) op(i int, tr *tracer, parent int32) (uint8, error) {
	id := tr.begin(parent, int32(i), "core.put")
	var err error
	g.lastID, err = g.col.PutText(g.in.texts[i%ingestRound])
	tr.end(id)
	g.inRound++
	return clsPut, err
}

func (g *ingestInst) check(i int) error {
	if want := int64(ingestPreload + i%ingestRound + 1); g.lastID != want {
		return fmt.Errorf("op %d: PutText returned id %d, want %d", i, g.lastID, want)
	}
	return nil
}

func (g *ingestInst) verify() error { return g.closeRound(0) }

func (g *ingestInst) finish() (sizes, error) {
	k := g.inRound
	if err := g.closeRound(k); err != nil {
		return sizes{}, err
	}
	user := 0
	for _, t := range g.in.preload {
		user += len(t)
	}
	for _, t := range g.in.texts[:k] {
		user += len(t)
	}
	return sizes{stored: g.col.Table().StorageBytes(), user: user, setups: g.roundSetup}, nil
}

// ---------------------------------------------------------------------------
// replay inputs

// poPaths are the paths the two views evaluate, made absolute.
var poPaths = []string{
	"$.purchaseOrder.reference", "$.purchaseOrder.requestor",
	"$.purchaseOrder.costcenter", "$.purchaseOrder.instructions",
	"$.purchaseOrder.total", "$.purchaseOrder.items[*].itemno",
	"$.purchaseOrder.items[*].partno", "$.purchaseOrder.items[*].description",
	"$.purchaseOrder.items[*].quantity", "$.purchaseOrder.items[*].unitprice",
}

// nobenchPaths are the paths of the eleven NOBENCH queries.
var nobenchPaths = []string{
	"$.str1", "$.num", "$.nested_obj.str", "$.nested_obj.num",
	"$.sparse_110", "$.sparse_119", "$.sparse_220", "$.dyn1",
	`$.nested_arr[*]?(@ == "alpha")`, "$.sparse_550", "$.thousandth",
}

func (o *olapInst) replaySet() (*replaySet, error) {
	rs := &replaySet{eng: o.eng, tab: o.tabs[len(o.tabs)-1]}
	for _, def := range olapSQL {
		rs.stmts = append(rs.stmts, def.sql)
	}
	rs.hit = olapSQL[0].sql
	rs.hitBind = o.in.params[0][0]
	rs.hitLiteral = strings.Replace(rs.hit, "?", "'"+string(rs.hitBind.(jsondom.String))+"'", 1)
	if o.rel {
		return rs, nil
	}
	rs.doms, rs.texts, rs.osonEval = o.in.docs, o.in.texts, true
	rs.paths, rs.tableSQL, rs.value = poPaths, dmdvViewSQL, poPaths[0]
	return rs, nil
}

func (n *nobenchInst) replaySet() (*replaySet, error) {
	rs := &replaySet{eng: n.eng, tab: n.tab, osonEval: true, paths: nobenchPaths, vcs: vcNames}
	rs.doms, rs.texts = replayDocs(n.in)
	for _, q := range n.queries {
		rs.stmts = append(rs.stmts, q)
	}
	docs := len(n.in.docs)
	rs.hit = `select count(*) from nobench where json_value(jdoc, '$.str1') = ?`
	rs.hitBind = jsondom.String(str1Of(n.in.docs[docs/2]))
	rs.hitLiteral = n.queries[4]
	// the predicates of Q5, Q6 and Q7, with NoBenchQueries' constants
	lo, hi := jsondom.NumberFromInt(int64(docs/4)), jsondom.NumberFromInt(int64(docs/4+docs/100+1))
	rs.filters = []vecFilter{
		{"jdoc$str1", "=", []jsondom.Value{rs.hitBind}},
		{"jdoc$num", "between", []jsondom.Value{lo, hi}},
		{"jdoc$dyn1", "between", []jsondom.Value{lo, hi}},
	}
	return rs, nil
}

// replayDocsMax bounds how many documents the document-layer replays
// walk: per-document costs do not change with more of the same shapes.
const replayDocsMax = 2048

func replayDocs(ds *docSet) ([]jsondom.Value, []string) {
	n := len(ds.docs)
	if n > replayDocsMax {
		n = replayDocsMax
	}
	doms := make([]jsondom.Value, n)
	for i := range doms {
		doms[i] = ds.docs[i]
	}
	return doms, ds.texts[:n]
}

// pointReplay is the part of the replay oltp_point and mixed_rw share:
// the point read, prepared and through the plan cache.
func pointReplay(eng *sqlengine.Engine, col *core.Collection, ds *docSet) *replaySet {
	mid := len(ds.docs) / 2
	rs := &replaySet{eng: eng, tab: col.Table(), vcs: vcNames,
		hit: pointSQL, hitBind: jsondom.String(str1Of(ds.docs[mid]))}
	rs.doms, rs.texts = replayDocs(ds)
	rs.hitLiteral = pointSQLit + str1Of(ds.docs[mid]) + "'"
	rs.stmts = []string{pointSQL, rs.hitLiteral}
	rs.filters = []vecFilter{{"jdoc$str1", "=", []jsondom.Value{rs.hitBind}}}
	return rs
}

func (o *oltpInst) replaySet() (*replaySet, error) {
	rs := pointReplay(o.db.SQL(), o.col, o.in.docSet)
	rs.osonEval, rs.textParse = true, true // Get parses the stored text
	rs.paths = []string{"$.str1"}
	// a sample of the ad-hoc shapes: the statements whose parse and plan
	// the workload pays for again and again
	for s := 0; s < oltpAdhocN; s += 32 {
		rs.stmts = append(rs.stmts, o.in.adhoc[s]+"x'")
		rs.paths = append(rs.paths, "$."+sparseFields[s])
	}
	return rs, nil
}

func (m *mixedInst) replaySet() (*replaySet, error) {
	rs := pointReplay(m.db.SQL(), m.col, m.in.docSet)
	rs.stmts = append(rs.stmts, `update docs set jdoc = ? where did = ?`)
	rs.paths = []string{"$.str1"}
	rs.doms = nil      // once the IMC is detached nothing encodes OSON
	rs.textEval = true // and every read evaluates $.str1 over text
	return rs, nil
}

// ingestReplayDocs is how many of the round's documents the replay
// parses into DOMs and feeds the write-path layers.
const ingestReplayDocs = 2000

func (g *ingestInst) replaySet() (*replaySet, error) {
	rs := &replaySet{ingest: true, tab: g.col.Table(), textParse: true, texts: g.in.texts[:ingestReplayDocs]}
	for i, t := range rs.texts {
		d, err := jsontext.ParseString(t)
		if err != nil {
			return nil, err
		}
		if i%10 == 9 {
			rs.novelDom = append(rs.novelDom, d)
		} else {
			rs.doms = append(rs.doms, d)
		}
	}
	return rs, nil
}
