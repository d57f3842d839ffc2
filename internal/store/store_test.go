package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/jsondom"
)

func poTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("po",
		Column{Name: "did", Type: TypeNumber},
		Column{Name: "jdoc", Type: TypeVarchar, MaxLen: 4000, CheckJSON: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestInsertAndGet(t *testing.T) {
	tab := poTable(t)
	rid, err := tab.Insert(Row{jsondom.Number("1"), jsondom.String(`{"a":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := tab.Get(rid)
	if !ok || row[0].(jsondom.Number) != "1" {
		t.Fatalf("Get = %v, %v", row, ok)
	}
	if tab.NumRows() != 1 {
		t.Fatal("NumRows")
	}
	if _, ok := tab.Get(99); ok {
		t.Fatal("out-of-range Get")
	}
	if _, ok := tab.Get(-1); ok {
		t.Fatal("negative Get")
	}
}

func TestIsJSONConstraint(t *testing.T) {
	tab := poTable(t)
	_, err := tab.Insert(Row{jsondom.Number("1"), jsondom.String(`{not json`)})
	if !errors.Is(err, ErrConstraint) {
		t.Fatalf("err = %v, want ErrConstraint", err)
	}
	// NULL passes the check (no document)
	if _, err := tab.Insert(Row{jsondom.Number("2"), jsondom.Null{}}); err != nil {
		t.Fatalf("NULL insert: %v", err)
	}
}

func TestTypeChecks(t *testing.T) {
	tab := poTable(t)
	if _, err := tab.Insert(Row{jsondom.String("x"), jsondom.String("{}")}); !errors.Is(err, ErrType) {
		t.Fatalf("number col err = %v", err)
	}
	if _, err := tab.Insert(Row{jsondom.Number("1")}); !errors.Is(err, ErrType) {
		t.Fatalf("arity err = %v", err)
	}
	// varchar length bound
	long := make([]byte, 5000)
	for i := range long {
		long[i] = 'a'
	}
	_, err := tab.Insert(Row{jsondom.Number("1"), jsondom.String(`"` + string(long) + `"`)})
	if !errors.Is(err, ErrConstraint) {
		t.Fatalf("length err = %v", err)
	}
	// raw column
	raw := MustNewTable("r", Column{Name: "b", Type: TypeRaw, MaxLen: 4})
	if _, err := raw.Insert(Row{jsondom.Binary{1, 2, 3, 4, 5}}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("raw length err = %v", err)
	}
	if _, err := raw.Insert(Row{jsondom.String("x")}); !errors.Is(err, ErrType) {
		t.Fatalf("raw type err = %v", err)
	}
	if _, err := raw.Insert(Row{jsondom.Binary{1}}); err != nil {
		t.Fatalf("raw ok: %v", err)
	}
	// bool column
	bt := MustNewTable("b", Column{Name: "f", Type: TypeBool})
	if _, err := bt.Insert(Row{jsondom.Number("1")}); !errors.Is(err, ErrType) {
		t.Fatalf("bool type err = %v", err)
	}
}

func TestPrimaryKey(t *testing.T) {
	tab := poTable(t)
	if err := tab.SetPrimaryKey("did"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{jsondom.Number("1"), jsondom.String("{}")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{jsondom.Number("1"), jsondom.String("{}")}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup err = %v", err)
	}
	rid, ok := tab.LookupPK(jsondom.Number("1"))
	if !ok || rid != 0 {
		t.Fatalf("LookupPK = %d, %v", rid, ok)
	}
	if _, ok := tab.LookupPK(jsondom.Number("9")); ok {
		t.Fatal("missing PK found")
	}
	// setting a PK on populated table with duplicates fails
	t2 := poTable(t)
	t2.Insert(Row{jsondom.Number("1"), jsondom.String("{}")}) //nolint:errcheck
	t2.Insert(Row{jsondom.Number("1"), jsondom.String("{}")}) //nolint:errcheck
	if err := t2.SetPrimaryKey("did"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("retro PK err = %v", err)
	}
	if err := t2.SetPrimaryKey("nope"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("bad col err = %v", err)
	}
}

// TestProbePK: the probe answers only where equal serialisations and
// SQL equality coincide — for the value asked about and for every key
// ever indexed.
func TestProbePK(t *testing.T) {
	tab := poTable(t)
	if _, ok := tab.PrimaryKey(); ok {
		t.Fatal("a table without a key names one")
	}
	if _, _, exact := tab.ProbePK(jsondom.Number("1")); exact {
		t.Fatal("a table without a key answers a probe")
	}
	if err := tab.SetPrimaryKey("did"); err != nil {
		t.Fatal(err)
	}
	if name, ok := tab.PrimaryKey(); !ok || name != "did" {
		t.Fatalf("PrimaryKey = %q, %v", name, ok)
	}
	for _, k := range []string{"0", "7", "-12", "123456789012345"} {
		if _, err := tab.Insert(Row{jsondom.Number(k), jsondom.String("{}")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.Insert(Row{jsondom.Null{}, jsondom.String("{}")}); err != nil {
		t.Fatal(err)
	}
	if rid, found, exact := tab.ProbePK(jsondom.Number("-12")); !exact || !found || rid != 2 {
		t.Fatalf("ProbePK(-12) = %d, %v, %v", rid, found, exact)
	}
	if _, found, exact := tab.ProbePK(jsondom.Number("8")); !exact || found {
		t.Fatalf("ProbePK(8) = found %v, exact %v", found, exact)
	}
	for _, v := range []jsondom.Value{
		jsondom.Number("7.0"), jsondom.Number("07"), jsondom.Number("-0"), jsondom.Number("7e0"),
		jsondom.Number("1234567890123456"), jsondom.Number(""), jsondom.Number("-"),
		jsondom.String("7"), jsondom.Double(7), jsondom.Null{}, jsondom.Bool(true),
	} {
		if _, _, exact := tab.ProbePK(v); exact {
			t.Errorf("ProbePK(%#v) claims to be exact", v)
		}
	}
	// one key float64 cannot tell from 7 turns the index off for good
	wide := jsondom.Number("7.00000000000000000001")
	rid, err := tab.Insert(Row{wide, jsondom.String("{}")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, exact := tab.ProbePK(jsondom.Number("7")); exact {
		t.Fatal("the probe answers for 7 beside a key that equals it as a float64")
	}
	tab.Delete(rid)
	if _, _, exact := tab.ProbePK(jsondom.Number("7")); exact {
		t.Fatal("the index turned exact again")
	}
	// Update and SetPrimaryKey see loose keys too
	t2 := poTable(t)
	if err := t2.SetPrimaryKey("did"); err != nil {
		t.Fatal(err)
	}
	t2.Insert(Row{jsondom.Number("1"), jsondom.String("{}")}) //nolint:errcheck
	if err := t2.Update(0, Row{jsondom.Number("1.5"), jsondom.String("{}")}); err != nil {
		t.Fatal(err)
	}
	if _, _, exact := t2.ProbePK(jsondom.Number("1")); exact {
		t.Fatal("a key updated to 1.5 left the index exact")
	}
	if err := t2.SetPrimaryKey("did"); err != nil {
		t.Fatal(err)
	}
	if _, _, exact := t2.ProbePK(jsondom.Number("1")); exact {
		t.Fatal("rebuilding the index over 1.5 made it exact")
	}
}

func TestVirtualColumn(t *testing.T) {
	tab := poTable(t)
	err := tab.AddVirtualColumn(Column{
		Name:     "did_x2",
		Type:     TypeNumber,
		ExprText: "did * 2",
		Expr: func(row Row) (jsondom.Value, error) {
			n := row[0].(jsondom.Number)
			i, _ := n.Int64()
			return jsondom.NumberFromInt(2 * i), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tab.Insert(Row{jsondom.Number("21"), jsondom.String("{}")})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tab.Value(rid, "did_x2")
	if err != nil || v.(jsondom.Number) != "42" {
		t.Fatalf("virtual value = %v, %v", v, err)
	}
	// stored column via Value
	v, err = tab.Value(rid, "did")
	if err != nil || v.(jsondom.Number) != "21" {
		t.Fatalf("stored value = %v, %v", v, err)
	}
	if _, err := tab.Value(rid, "nope"); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("missing col err = %v", err)
	}
	if _, err := tab.Value(99, "did"); err == nil {
		t.Fatal("row range err")
	}
	// duplicate name rejected
	if err := tab.AddVirtualColumn(Column{Name: "did"}); err == nil {
		t.Fatal("dup virtual col")
	}
	// virtual column without Expr yields NULL
	if err := tab.AddVirtualColumn(Column{Name: "empty_vc", Type: TypeNumber}); err != nil {
		t.Fatal(err)
	}
	v, err = tab.Value(rid, "empty_vc")
	if err != nil || v.Kind() != jsondom.KindNull {
		t.Fatalf("empty vc = %v, %v", v, err)
	}
}

// writeLog records what a subscriber is told, into a log it may share
// with other subscribers, and whether the table's write lock was held
// when it was told.
type writeLog struct {
	name     string
	tab      *Table
	log      *[]string
	unlocked int
}

func (w *writeLog) RowWritten(rowID int, old, row Row, writes uint64) {
	if w.tab.mu.TryRLock() {
		w.tab.mu.RUnlock()
		w.unlocked++
	}
	doc := func(r Row) any {
		if r == nil {
			return "-"
		}
		return r[1]
	}
	*w.log = append(*w.log, fmt.Sprintf("%s %d:%v>%v@%d", w.name, rowID, doc(old), doc(row), writes))
}

// jdocRow is a po row whose document is {"d":s}.
func jdocRow(s string) Row { return Row{jsondom.Number(s), jsondom.String(`{"d":` + s + `}`)} }

// TestObservers: every subscriber hears of every committed write —
// insert, update, delete, with the row before and after — under the
// write lock, in commit order and in the order they subscribed, and of
// nothing that did not commit; subscribing twice is subscribing once;
// Unsubscribe ends one subscription and leaves the others.
func TestObservers(t *testing.T) {
	tab := poTable(t)
	if err := tab.SetPrimaryKey("did"); err != nil {
		t.Fatal(err)
	}
	doc := jdocRow
	tab.Insert(doc("1")) //nolint:errcheck
	var log []string
	a, b := &writeLog{name: "a", tab: tab, log: &log}, &writeLog{name: "b", tab: tab, log: &log}
	tab.Subscribe(a, func(rows []Row, tombs []bool, writes uint64) {
		log = append(log, fmt.Sprintf("a sees %d rows @%d", len(rows), writes))
	})
	none := func([]Row, []bool, uint64) {}
	tab.Subscribe(b, none)
	tab.Subscribe(b, none) // already subscribed: b still hears each write once
	tab.Insert(doc("2"))   //nolint:errcheck
	// none of these commits, so no subscriber hears of it
	_, dup := tab.Insert(doc("2"))
	_, narrow := tab.Insert(Row{jsondom.Number("3")})
	if dup == nil || narrow == nil || tab.Update(7, doc("9")) == nil {
		t.Fatal("a write that must fail succeeded")
	}
	tab.Update(0, Row{jsondom.Number("1"), jsondom.String(`{"d":10}`)}) //nolint:errcheck
	tab.Delete(1)
	tab.Delete(1) // already gone: not a write
	want := `[a sees 1 rows @1 a 1:->{"d":2}@2 b 1:->{"d":2}@2 a 0:{"d":1}>{"d":10}@3 b 0:{"d":1}>{"d":10}@3 a 1:{"d":2}>-@4 b 1:{"d":2}>-@4]`
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("subscribers were told\n  %s\nwant\n  %s", got, want)
	}
	if a.unlocked+b.unlocked != 0 {
		t.Fatalf("%d writes were told without the write lock held", a.unlocked+b.unlocked)
	}
	tab.Unsubscribe(&writeLog{}) // not a subscriber: no effect
	tab.Unsubscribe(a)
	log = nil
	tab.Delete(0)
	if got := fmt.Sprint(log); got != `[b 0:{"d":10}>-@5]` {
		t.Fatalf("after Unsubscribe(a): %s", got)
	}
}

// TestWriteObserver: a subscription taken while another goroutine
// inserts — each row is either in what Subscribe's fn saw or told to the
// subscriber, never both and never neither, and the write counts join up.
func TestWriteObserver(t *testing.T) {
	tab := poTable(t)
	doc := jdocRow
	var heard []string
	c := &writeLog{name: "c", tab: tab, log: &heard}
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			tab.Insert(doc(fmt.Sprint(i))) //nolint:errcheck
		}
	}()
	for tab.MaxRowID() < n/4 {
		runtime.Gosched()
	}
	var seen int
	var seenAt uint64
	tab.Subscribe(c, func(rows []Row, _ []bool, writes uint64) { seen, seenAt = len(rows), writes })
	wg.Wait()
	if seen+len(heard) != n || seenAt != uint64(seen) {
		t.Fatalf("Subscribe saw %d rows at write %d and heard of %d more, of %d", seen, seenAt, len(heard), n)
	}
	for i, h := range heard {
		if want := fmt.Sprintf(`c %d:->{"d":%d}@%d`, seen+i, seen+i, seen+i+1); h != want {
			t.Fatalf("write %d after the subscription was told as %q, want %q", i, h, want)
		}
	}
}

func TestScan(t *testing.T) {
	tab := poTable(t)
	for i := 0; i < 5; i++ {
		tab.Insert(Row{jsondom.NumberFromInt(int64(i)), jsondom.String("{}")}) //nolint:errcheck
	}
	var seen []int
	tab.Scan(func(rid int, row Row) bool {
		seen = append(seen, rid)
		return rid < 2 // stop early
	})
	if len(seen) != 3 {
		t.Fatalf("scan early stop: %v", seen)
	}
}

func TestStorageBytes(t *testing.T) {
	tab := poTable(t)
	if tab.StorageBytes() != 0 {
		t.Fatal("empty table bytes")
	}
	tab.Insert(Row{jsondom.Number("12"), jsondom.String(`{"a":1}`)}) //nolint:errcheck
	if b := tab.StorageBytes(); b < 8 || b > 30 {
		t.Fatalf("bytes = %d", b)
	}
	// index adds overhead
	tab2 := poTable(t)
	tab2.SetPrimaryKey("did")                                         //nolint:errcheck
	tab2.Insert(Row{jsondom.Number("12"), jsondom.String(`{"a":1}`)}) //nolint:errcheck
	if tab2.StorageBytes() <= tab.StorageBytes() {
		t.Fatal("indexed table should report more bytes")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tab := poTable(t)
	if err := c.Create(tab); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(tab); err == nil {
		t.Fatal("dup table")
	}
	got, ok := c.Table("po")
	if !ok || got != tab {
		t.Fatal("lookup")
	}
	if _, ok := c.Table("zz"); ok {
		t.Fatal("phantom table")
	}
	c.Create(MustNewTable("aaa")) //nolint:errcheck
	names := c.Names()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "po" {
		t.Fatalf("names = %v", names)
	}
	if !c.Drop("aaa") || c.Drop("aaa") {
		t.Fatal("drop")
	}
}

func TestColumnsIntrospection(t *testing.T) {
	tab := poTable(t)
	cols := tab.Columns()
	if len(cols) != 2 || cols[0].Name != "did" || !cols[1].CheckJSON {
		t.Fatalf("cols = %+v", cols)
	}
	c, ok := tab.Column("jdoc")
	if !ok || c.Type != TypeVarchar || c.MaxLen != 4000 {
		t.Fatalf("Column = %+v, %v", c, ok)
	}
	pos, ok := tab.ColumnPos("jdoc")
	if !ok || pos != 1 {
		t.Fatalf("pos = %d", pos)
	}
	if _, ok := tab.Column("zz"); ok {
		t.Fatal("phantom column")
	}
	// stored column after virtual column is rejected
	tab2 := MustNewTable("x", Column{Name: "a", Type: TypeNumber})
	tab2.AddVirtualColumn(Column{Name: "v", Type: TypeNumber}) //nolint:errcheck
	if err := tab2.addColumnLocked(Column{Name: "b", Type: TypeNumber}); err == nil {
		t.Fatal("stored after virtual should fail")
	}
	if c.Type.String() != "varchar2" || TypeNumber.String() != "number" ||
		TypeRaw.String() != "raw" || TypeBool.String() != "boolean" {
		t.Fatal("type names")
	}
}
