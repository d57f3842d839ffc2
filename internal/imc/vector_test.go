package imc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/jsondom"
	"repro/internal/store"
)

func TestBitmap(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		b := NewBitmap(n)
		if b.Len() != n || b.Count() != n {
			t.Fatalf("n=%d: Len=%d Count=%d", n, b.Len(), b.Count())
		}
		if b.Get(n) || b.Get(-1) {
			t.Fatalf("n=%d: out-of-range bit reads set", n)
		}
	}
	b := NewBitmap(130)
	b.Clear(0)
	b.Clear(64)
	b.Clear(129)
	if b.Count() != 127 {
		t.Fatalf("Count=%d after 3 clears", b.Count())
	}
	if b.Get(0) || b.Get(64) || b.Get(129) || !b.Get(1) {
		t.Fatal("Get after Clear")
	}
	b.Set(64)
	if !b.Get(64) {
		t.Fatal("Set")
	}
	// NextSet jumps over cleared runs and stops at the end
	c := NewBitmap(200)
	c.ClearAll()
	c.Set(3)
	c.Set(64)
	c.Set(199)
	var got []int
	for i := c.NextSet(0); i >= 0; i = c.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 64 || got[2] != 199 {
		t.Fatalf("NextSet walk = %v", got)
	}
	if c.NextSet(200) != -1 || c.NextSet(-5) != 3 {
		t.Fatal("NextSet bounds")
	}
	// And is an intersection; Reset reuses the backing array
	x, y := NewBitmap(100), NewBitmap(100)
	x.ClearAll()
	x.Set(10)
	x.Set(20)
	y.ClearAll()
	y.Set(20)
	y.Set(30)
	x.And(y)
	if x.Count() != 1 || !x.Get(20) {
		t.Fatal("And")
	}
	x.Reset(80)
	if x.Count() != 80 || x.Get(80) {
		t.Fatal("Reset")
	}
}

// vecTable builds a table with one virtual column "v" whose value for
// row i is vals[i] (Null entries are SQL NULL), populated into a
// fresh Store.
func vecTable(t *testing.T, typ store.ColumnType, vals []jsondom.Value) *Store {
	t.Helper()
	tab := store.MustNewTable("t", store.Column{Name: "x", Type: typ})
	for _, v := range vals {
		if _, err := tab.Insert(store.Row{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.AddVirtualColumn(store.Column{
		Name: "v", Virtual: true,
		Expr: func(row store.Row) (jsondom.Value, error) { return row[0], nil },
	}); err != nil {
		t.Fatal(err)
	}
	s := NewStore(tab)
	if err := s.PopulateVC("v"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDictionaryEncoding(t *testing.T) {
	words := []string{"delta", "alpha", "charlie", "alpha", "bravo", "delta", "alpha"}
	vals := make([]jsondom.Value, 0, len(words)+1)
	for _, w := range words {
		vals = append(vals, jsondom.String(w))
	}
	vals = append(vals, jsondom.Null{})
	s := vecTable(t, store.TypeVarchar, vals)
	vec, _ := s.Vector("v")
	if vec.IsNumber {
		t.Fatal("expected string vector")
	}
	dict := vec.Dict()
	if len(dict) != 4 {
		t.Fatalf("dict = %v, want 4 distinct", dict)
	}
	for i := 1; i < len(dict); i++ {
		if dict[i-1] >= dict[i] {
			t.Fatalf("dict not sorted: %v", dict)
		}
	}
	for i, w := range words {
		if vec.Str(i) != w {
			t.Fatalf("Str(%d) = %q, want %q", i, vec.Str(i), w)
		}
		if string(vec.Value(i).(jsondom.String)) != w {
			t.Fatalf("Value(%d) = %v", i, vec.Value(i))
		}
	}
	if vec.Value(len(words)).Kind() != jsondom.KindNull {
		t.Fatal("null row should decode to NULL")
	}
	// accounting: payload counted once per distinct string, 4 bytes of
	// code per row, one null byte per row
	wantDict := 0
	for _, w := range dict {
		wantDict += len(w) + 16
	}
	if vec.DictBytes() != wantDict {
		t.Fatalf("DictBytes = %d, want %d", vec.DictBytes(), wantDict)
	}
	if vec.CodesBytes() != 4*vec.Len() {
		t.Fatalf("CodesBytes = %d", vec.CodesBytes())
	}
	want := wantDict + 4*vec.Len() + vec.Len() + vec.NumChunks()*zoneMapBytes
	if vec.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", vec.MemoryBytes(), want)
	}
}

func TestZoneMapsAndPrune(t *testing.T) {
	// 2.5 chunks of sequential values, with the second chunk all null
	n := 2*ChunkSize + ChunkSize/2
	vals := make([]jsondom.Value, n)
	for i := range vals {
		if i >= ChunkSize && i < 2*ChunkSize {
			vals[i] = jsondom.Null{}
		} else {
			vals[i] = jsondom.NumberFromInt(int64(i))
		}
	}
	s := vecTable(t, store.TypeNumber, vals)
	vec, _ := s.Vector("v")
	if vec.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d", vec.NumChunks())
	}
	z0, _ := vec.Zone(0)
	if z0.MinNum != 0 || z0.MaxNum != float64(ChunkSize-1) || z0.Nulls != 0 || z0.Rows != ChunkSize {
		t.Fatalf("zone 0 = %+v", z0)
	}
	z1, _ := vec.Zone(1)
	if !z1.AllNull() {
		t.Fatalf("zone 1 = %+v, want all-null", z1)
	}
	z2, _ := vec.Zone(2)
	if z2.Rows != ChunkSize/2 || z2.MinNum != float64(2*ChunkSize) {
		t.Fatalf("zone 2 = %+v", z2)
	}
	if _, ok := vec.Zone(3); ok {
		t.Fatal("zone beyond vector")
	}

	// a point predicate into chunk 0 prunes chunks 1 (all null) and 2
	// (range miss), and chunks beyond the vector
	k, ok := s.CompileBatchFilter("v", "=", []jsondom.Value{jsondom.NumberFromInt(5)})
	if !ok {
		t.Fatal("kernel did not compile")
	}
	for chunk, want := range map[int]bool{0: false, 1: true, 2: true, 3: true, 99: true} {
		if got := k.Prune(chunk); got != want {
			t.Errorf("Prune(%d) = %v, want %v", chunk, got, want)
		}
	}
	sel := NewBitmap(ChunkSize)
	k.And(0, sel)
	if sel.Count() != 1 || !sel.Get(5) {
		t.Fatalf("chunk 0 selection: count=%d", sel.Count())
	}
	// reversed BETWEEN bounds match nothing and prune everything
	k2, ok := s.CompileBatchFilter("v", "between",
		[]jsondom.Value{jsondom.NumberFromInt(50), jsondom.NumberFromInt(10)})
	if !ok {
		t.Fatal("reversed between did not compile")
	}
	for chunk := 0; chunk < 3; chunk++ {
		if !k2.Prune(chunk) {
			t.Errorf("reversed between: chunk %d not pruned", chunk)
		}
		sel.Reset(ChunkSize)
		k2.And(chunk, sel)
		if sel.Count() != 0 {
			t.Errorf("reversed between: chunk %d selected %d rows", chunk, sel.Count())
		}
	}
}

// naiveMatch is the reference the kernels are checked against: the
// predicate evaluated on one decoded value (Vector.Value, so it shares
// neither the dictionary-code translation nor the float-interval
// tightening with the kernel under test). ok=false mirrors the shapes
// the compiler must decline.
func naiveMatch(v jsondom.Value, isNumber bool, op string, operands []jsondom.Value) (match, ok bool) {
	if want := map[string]int{"=": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1, "between": 2}[op]; want == 0 || want != len(operands) {
		return false, false
	}
	null := v.Kind() == jsondom.KindNull
	cmps := make([]int, len(operands)) // v ordered against operand i
	for i, o := range operands {
		if isNumber {
			n, isNum := o.(jsondom.Number)
			if !isNum {
				return false, false
			}
			if !null {
				switch a, b := v.(jsondom.Number).Float64(), n.Float64(); {
				case a < b:
					cmps[i] = -1
				case a > b:
					cmps[i] = 1
				}
			}
		} else {
			s, isStr := o.(jsondom.String)
			if !isStr {
				return false, false
			}
			if !null {
				cmps[i] = strings.Compare(string(v.(jsondom.String)), string(s))
			}
		}
	}
	if null {
		return false, true // NULL matches nothing, != included
	}
	switch op {
	case "=":
		return cmps[0] == 0, true
	case "!=":
		return cmps[0] != 0, true
	case "<":
		return cmps[0] < 0, true
	case "<=":
		return cmps[0] <= 0, true
	case ">":
		return cmps[0] > 0, true
	case ">=":
		return cmps[0] >= 0, true
	default: // between
		return cmps[0] >= 0 && cmps[1] <= 0, true
	}
}

// TestBatchFilterDifferential cross-checks every batch kernel against
// naiveMatch, bit for bit, over randomized vectors with nulls —
// including operands absent from the dictionary, reversed BETWEEN
// bounds, and chunks the kernels prune.
func TestBatchFilterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2*ChunkSize + 613 // partial trailing chunk
	numVals := make([]jsondom.Value, n)
	strVals := make([]jsondom.Value, n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			numVals[i] = jsondom.Null{}
		} else {
			numVals[i] = jsondom.NumberFromInt(int64(rng.Intn(500)))
		}
		if rng.Intn(10) == 0 {
			strVals[i] = jsondom.Null{}
		} else {
			strVals[i] = jsondom.String(fmt.Sprintf("w%03d", rng.Intn(300)))
		}
	}
	sNum := vecTable(t, store.TypeNumber, numVals)
	sStr := vecTable(t, store.TypeVarchar, strVals)

	check := func(s *Store, op string, operands []jsondom.Value) {
		t.Helper()
		vec, _ := s.Vector("v")
		rowF := func(i int) bool {
			m, _ := naiveMatch(vec.Value(i), vec.IsNumber, op, operands)
			return m
		}
		_, okRow := naiveMatch(jsondom.Null{}, vec.IsNumber, op, operands)
		kern, okBatch := s.CompileBatchFilter("v", op, operands)
		if okRow != okBatch {
			t.Fatalf("%s %v: reference ok=%v batch ok=%v", op, operands, okRow, okBatch)
		}
		if !okRow {
			return
		}
		chunks := (n + ChunkSize - 1) / ChunkSize
		for chunk := 0; chunk < chunks+1; chunk++ {
			lo := chunk * ChunkSize
			rows := n - lo
			if rows > ChunkSize {
				rows = ChunkSize
			}
			if rows < 0 {
				rows = 0
			}
			if rows == 0 {
				if !kern.Prune(chunk) {
					t.Fatalf("%s %v: chunk %d beyond vector not pruned", op, operands, chunk)
				}
				continue
			}
			anyMatch := false
			for i := 0; i < rows; i++ {
				if rowF(lo + i) {
					anyMatch = true
					break
				}
			}
			if kern.Prune(chunk) {
				if anyMatch {
					t.Fatalf("%s %v: chunk %d pruned but has matches", op, operands, chunk)
				}
				continue
			}
			sel := NewBitmap(rows)
			kern.And(chunk, sel)
			for i := 0; i < rows; i++ {
				if sel.Get(i) != rowF(lo+i) {
					t.Fatalf("%s %v: row %d: batch=%v reference=%v (val=%v)",
						op, operands, lo+i, sel.Get(i), rowF(lo+i), vec.Value(lo+i))
				}
			}
		}
	}

	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for trial := 0; trial < 200; trial++ {
		op := ops[rng.Intn(len(ops))]
		check(sNum, op, []jsondom.Value{jsondom.NumberFromInt(int64(rng.Intn(600) - 50))})
		check(sStr, op, []jsondom.Value{jsondom.String(fmt.Sprintf("w%03d", rng.Intn(400)-50))})
	}
	for trial := 0; trial < 100; trial++ {
		// random BETWEEN, reversed bounds included
		a, b := int64(rng.Intn(600)-50), int64(rng.Intn(600)-50)
		check(sNum, "between", []jsondom.Value{jsondom.NumberFromInt(a), jsondom.NumberFromInt(b)})
		check(sStr, "between", []jsondom.Value{
			jsondom.String(fmt.Sprintf("w%03d", rng.Intn(400)-50)),
			jsondom.String(fmt.Sprintf("w%03d", rng.Intn(400)-50))})
	}
	// declines agree with the reference: type mismatches, unknown ops, wrong arity
	check(sNum, "=", []jsondom.Value{jsondom.String("x")})
	check(sStr, "=", []jsondom.Value{jsondom.NumberFromInt(1)})
	check(sNum, "like", []jsondom.Value{jsondom.NumberFromInt(1)})
	check(sNum, "between", []jsondom.Value{jsondom.NumberFromInt(1)})
	if _, ok := sNum.CompileBatchFilter("missing", "=", []jsondom.Value{jsondom.NumberFromInt(1)}); ok {
		t.Fatal("missing column compiled")
	}
}
