// Batch-vectorized column vectors (§5.2.1, after MonetDB/X100-style
// batch-at-a-time execution). A Vector is stored as fixed-size chunks
// of ChunkSize rows, each summarized by a ZoneMap; string vectors are
// dictionary-encoded against a sorted dictionary so comparison
// predicates translate once into code space and the inner loop
// compares integers. Predicates compile to BatchKernels that fill a
// selection Bitmap one chunk at a time in a tight branch-light loop,
// letting the engine AND conjuncts together and skip zone-map-pruned
// chunks before a single row is materialized.

package imc

import (
	"math"
	"slices"
	"sort"

	"repro/internal/jsondom"
)

// ChunkSize is the number of rows per vector chunk: the unit of zone
// map granularity, selection bitmaps, and parallel scan partitioning.
// 1024 rows keeps a chunk's working set (8 KiB of float64s plus a
// 128-byte bitmap) inside L1 while amortizing per-chunk bookkeeping.
const ChunkSize = 1024

// Vector is a typed in-memory column stored in ChunkSize-row chunks.
// Numeric vectors hold float64 values; string vectors are
// dictionary-encoded: Str(i) is dict[codes[i]], with the dictionary
// sorted so that code order is string order. Nulls is the null bitmap;
// null rows carry a zero value/code that must not be interpreted.
type Vector struct {
	// IsNumber selects the numeric representation; otherwise the
	// vector is a dictionary-encoded string column.
	IsNumber bool
	// Nums holds the numeric values (numeric vectors only).
	Nums []float64
	// Nulls marks null rows; len(Nulls) is the vector length.
	Nulls []bool

	dict  []string // sorted unique non-null strings
	codes []uint32 // per-row index into dict
	zones []ZoneMap
	stats ColStats // population-time statistics (see stats.go)
}

// Len returns the number of entries.
func (v *Vector) Len() int { return len(v.Nulls) }

// Str returns the decoded string at row i (string vectors only; the
// result for null rows is unspecified).
func (v *Vector) Str(i int) string { return v.dict[v.codes[i]] }

// Dict returns the sorted string dictionary (string vectors only).
func (v *Vector) Dict() []string { return v.dict }

// Value returns the i-th entry as a SQL value.
func (v *Vector) Value(i int) jsondom.Value {
	if i < 0 || i >= len(v.Nulls) || v.Nulls[i] {
		return jsondom.Null{}
	}
	if v.IsNumber {
		return jsondom.NumberFromFloat(v.Nums[i])
	}
	return jsondom.String(v.dict[v.codes[i]])
}

// DictBytes reports the memory held by the string dictionary: the
// distinct string payloads plus one 16-byte header each. Zero for
// numeric vectors.
func (v *Vector) DictBytes() int {
	total := 0
	for _, s := range v.dict {
		total += len(s) + 16
	}
	return total
}

// CodesBytes reports the memory held by the per-row dictionary codes
// (4 bytes per row). Zero for numeric vectors.
func (v *Vector) CodesBytes() int { return 4 * len(v.codes) }

// MemoryBytes reports the vector's in-memory footprint. String
// payloads are counted once through the dictionary — repeated values
// share a single dictionary entry — plus the 4-byte code per row, the
// null bitmap, and the zone maps.
func (v *Vector) MemoryBytes() int {
	total := len(v.Nulls) + len(v.zones)*int(zoneMapBytes)
	if v.IsNumber {
		return total + 8*len(v.Nums)
	}
	return total + v.DictBytes() + v.CodesBytes()
}

// zoneMapBytes is the accounted size of one ZoneMap.
const zoneMapBytes = 8 + 8 + 4 + 4 + 8 + 8

// colVal is one column value in the representation vectors store: a
// float64, a string, or null. It is what a virtual-column expression's
// result is reduced to before it enters a vector — at population — or
// the delta of the rows written since (image.go).
type colVal struct {
	kind colKind
	num  float64
	str  string
}

type colKind uint8

const (
	kindNull colKind = iota // also: a value that is neither number nor string
	kindNum
	kindStr
)

// valOf reduces an expression result to a colVal.
func valOf(v jsondom.Value) colVal {
	switch t := v.(type) {
	case jsondom.Number:
		return colVal{kind: kindNum, num: t.Float64()}
	case jsondom.Double:
		return colVal{kind: kindNum, num: float64(t)}
	case jsondom.String:
		return colVal{kind: kindStr, str: string(t)}
	}
	return colVal{}
}

// value renders the colVal as the SQL value a vector of its kind would
// return for it (Vector.Value).
func (c colVal) value() jsondom.Value {
	switch c.kind {
	case kindNum:
		return jsondom.NumberFromFloat(c.num)
	case kindStr:
		return jsondom.String(c.str)
	}
	return jsondom.Null{}
}

// at returns row i as a colVal; rows the vector does not hold are null.
func (v *Vector) at(i int) colVal {
	switch {
	case i >= len(v.Nulls) || v.Nulls[i]:
		return colVal{}
	case v.IsNumber:
		return colVal{kind: kindNum, num: v.Nums[i]}
	}
	return colVal{kind: kindStr, str: v.dict[v.codes[i]]}
}

// conform returns c as the vector would store it: a value of the other
// type degrades to null, as it does when a vector is built.
func (v *Vector) conform(c colVal) colVal {
	if (c.kind == kindNum) != v.IsNumber && c.kind != kindNull {
		return colVal{}
	}
	return c
}

// untyped reports whether the vector has only ever held NULLs, so that
// no value has fixed its type yet.
func (v *Vector) untyped() bool { return v.stats.Nulls == v.stats.Rows }

// vectorBuilder accumulates column values row by row during population
// (or a fold) and finalizes them into a chunked, dictionary-encoded
// Vector. Type is inferred from the first non-null value; later values
// of a different type degrade to null, matching the row-level
// JSON_VALUE comparison semantics.
type vectorBuilder struct {
	typed    bool
	isNumber bool
	nums     []float64 // isNumber: one per row
	strs     []string  // typed and not isNumber: one per row
	nulls    []bool
}

func newVectorBuilder(capacity int) *vectorBuilder {
	return &vectorBuilder{nulls: make([]bool, 0, capacity)}
}

// setType fixes the vector's type; the rows added so far are all null.
func (b *vectorBuilder) setType(isNumber bool) {
	b.typed, b.isNumber = true, isNumber
	if isNumber {
		b.nums = make([]float64, len(b.nulls), cap(b.nulls))
	} else {
		b.strs = make([]string, len(b.nulls), cap(b.nulls))
	}
}

func (b *vectorBuilder) addVal(c colVal) {
	if !b.typed && c.kind != kindNull {
		b.setType(c.kind == kindNum)
	}
	if c.kind == kindNull || (c.kind == kindNum) != b.isNumber {
		c = colVal{} // NULL, or type drift after inference: store as null
	}
	b.nulls = append(b.nulls, c.kind == kindNull)
	switch {
	case !b.typed:
	case b.isNumber:
		b.nums = append(b.nums, c.num)
	default:
		b.strs = append(b.strs, c.str)
	}
}

// build dictionary-encodes string vectors, drops the representation
// the vector's type does not use, and computes the per-chunk zone
// maps.
func (b *vectorBuilder) build() *Vector {
	vec := &Vector{IsNumber: b.isNumber, Nulls: b.nulls}
	if b.isNumber {
		vec.Nums = b.nums
		vec.buildZones()
		vec.stats = computeStats(vec)
		return vec
	}
	code := make(map[string]uint32, len(b.strs))
	for i, s := range b.strs {
		if !b.nulls[i] {
			code[s] = 0
		}
	}
	vec.dict = make([]string, 0, len(code))
	for s := range code {
		vec.dict = append(vec.dict, s)
	}
	sort.Strings(vec.dict)
	for i, s := range vec.dict {
		code[s] = uint32(i)
	}
	vec.codes = make([]uint32, len(b.nulls))
	for i, s := range b.strs {
		if !b.nulls[i] {
			vec.codes[i] = code[s]
		}
	}
	vec.buildZones()
	vec.stats = computeStats(vec)
	return vec
}

// BatchKernel is a compiled vector predicate operating one chunk at a
// time. Prune reports from the chunk's zone map alone that no row can
// match (the scan then skips the chunk entirely); And intersects the
// chunk's matches into sel, where bit i is chunk-local row i (global
// row chunk*ChunkSize+i) and sel.Len() is the number of rows the
// caller is scanning in the chunk. Rows at or beyond the vector's
// length never match.
type BatchKernel struct {
	// Prune reports that the chunk cannot contain a matching row.
	Prune func(chunk int) bool
	// And intersects the chunk's matching rows into sel.
	And func(chunk int, sel *Bitmap)
}

// CompileBatchFilter builds a batch predicate kernel over a populated
// column vector: op is one of = != < <= > >= between (between takes
// two operands). The kernel tests a chunk of row ids against the
// vector without materializing the rows — the columnar predicate
// evaluation that gives VC-IMC its edge over per-document navigation
// (§5.2.1). It implements the engine's BatchFilterSource contract;
// compilation declines (ok=false) on an unknown column, an unsupported
// op or arity, or an operand/vector type mismatch, so the planner can
// keep the conjunct as a row-level filter. Over an image with pending
// rows the kernel decides those on their delta values (overlay); over a
// clean one it is the vector's kernel and nothing else.
func (m *Image) CompileBatchFilter(col, op string, operands []jsondom.Value) (BatchKernel, bool) {
	ci := slices.IndexFunc(m.vcs, func(vc vcol) bool { return vc.name == col })
	if ci < 0 {
		return BatchKernel{}, false
	}
	vec := m.vcs[ci].vec
	if vec.IsNumber {
		nums := make([]float64, len(operands))
		for i, o := range operands {
			f, ok := numericOperand(o)
			if !ok {
				return BatchKernel{}, false
			}
			nums[i] = f
		}
		k, ok := numberBatchKernel(vec, op, nums)
		if ok && m.delta != nil {
			k = m.delta.overlay(k, ci, numberMatcher(op, nums))
		}
		return k, ok
	}
	strs := make([]string, len(operands))
	for i, o := range operands {
		sv, ok := o.(jsondom.String)
		if !ok {
			return BatchKernel{}, false
		}
		strs[i] = string(sv)
	}
	plan, ok := stringCodePlan(vec.dict, op, strs)
	if !ok {
		return BatchKernel{}, false
	}
	k := stringBatchKernel(vec, plan)
	if m.delta != nil {
		k = m.delta.overlay(k, ci, stringMatcher(op, strs))
	}
	return k, true
}

// overlay wraps a vector's kernel for an image with pending rows: in a
// chunk's selection a pending row's bit survives when it was set on the
// way in and match accepts the row's delta value for column ci —
// whatever the vector holds under that row id, if it holds the id at
// all. The zone maps keep their worth: a chunk they rule out is pruned
// unless a pending row of it matches, and then the vector's rows are
// not tested either.
func (d *delta) overlay(k BatchKernel, ci int, match func(colVal) bool) BatchKernel {
	return BatchKernel{
		Prune: func(chunk int) bool {
			if !k.Prune(chunk) {
				return false
			}
			if cd := d.chunk(chunk); cd != nil {
				for j := range cd.ids {
					if match(cd.vals[j*d.width+ci]) {
						return false
					}
				}
			}
			return true
		},
		And: func(chunk int, sel *Bitmap) {
			cd := d.chunk(chunk)
			if cd == nil {
				k.And(chunk, sel)
				return
			}
			// pending: the chunk's pending rows; keep: those of them that
			// stay selected
			var pending, keep [ChunkSize / 64]uint64
			words, base := sel.Words(), chunk*ChunkSize
			for j, id := range cd.ids {
				i := id - base
				if i >= sel.Len() {
					break // the scan's range ends inside the chunk
				}
				bit := uint64(1) << uint(i&63)
				pending[i>>6] |= bit
				if words[i>>6]&bit != 0 && match(cd.vals[j*d.width+ci]) {
					keep[i>>6] |= bit
				}
			}
			if k.Prune(chunk) {
				sel.ClearAll()
			} else {
				k.And(chunk, sel)
			}
			for w := range words {
				words[w] = words[w]&^pending[w] | keep[w]
			}
		},
	}
}

// numberRange reduces a numeric predicate to what the kernel and the
// delta matcher both test: every op except != is one inclusive interval
// [lo, hi] — strict bounds are tightened to the adjacent representable
// float, and lo > hi matches nothing — and != excludes the one value it
// returns in lo (ne true). ok is false for an unsupported op or arity.
func numberRange(op string, args []float64) (lo, hi float64, ne, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	switch {
	case op == "=" && len(args) == 1:
		lo, hi = args[0], args[0]
	case op == "<" && len(args) == 1:
		hi = math.Nextafter(args[0], math.Inf(-1))
	case op == "<=" && len(args) == 1:
		hi = args[0]
	case op == ">" && len(args) == 1:
		lo = math.Nextafter(args[0], math.Inf(1))
	case op == ">=" && len(args) == 1:
		lo = args[0]
	case op == "between" && len(args) == 2:
		lo, hi = args[0], args[1]
	case op == "!=" && len(args) == 1:
		return args[0], 0, true, true
	default:
		return 0, 0, false, false
	}
	return lo, hi, false, true
}

// numberMatcher is numberBatchKernel's predicate on one delta value.
func numberMatcher(op string, args []float64) func(colVal) bool {
	lo, hi, ne, _ := numberRange(op, args)
	if ne {
		return func(c colVal) bool { return c.kind == kindNum && c.num != lo }
	}
	return func(c colVal) bool { return c.kind == kindNum && c.num >= lo && c.num <= hi }
}

// stringMatcher is the code plan's predicate on one delta value, which
// need not be in the vector's dictionary: it compares the strings the
// way the sorted dictionary orders its codes.
func stringMatcher(op string, args []string) func(colVal) bool {
	return func(c colVal) bool {
		if c.kind != kindStr {
			return false
		}
		switch op {
		case "=":
			return c.str == args[0]
		case "!=":
			return c.str != args[0]
		case "<":
			return c.str < args[0]
		case "<=":
			return c.str <= args[0]
		case ">":
			return c.str > args[0]
		case ">=":
			return c.str >= args[0]
		}
		return c.str >= args[0] && c.str <= args[1] // between
	}
}

// numberBatchKernel compiles a numeric predicate (numberRange): the
// inner loop is a two-comparison range test and the zone map prune is a
// two-comparison interval overlap check.
func numberBatchKernel(vec *Vector, op string, args []float64) (BatchKernel, bool) {
	lo, hi, ne, ok := numberRange(op, args)
	if !ok {
		return BatchKernel{}, false
	}
	if ne {
		a := lo
		return BatchKernel{
			Prune: func(chunk int) bool {
				z, ok := vec.Zone(chunk)
				if !ok || z.AllNull() {
					return true
				}
				return z.MinNum == a && z.MaxNum == a
			},
			And: func(chunk int, sel *Bitmap) {
				nums, nulls, words, limit := vec.numChunk(chunk, sel)
				var w uint64
				wi := 0
				for i := 0; i < limit; i++ {
					if !nulls[i] && nums[i] != a {
						w |= 1 << uint(i&63)
					}
					if i&63 == 63 {
						words[wi] &= w
						wi++
						w = 0
					}
				}
				finishChunk(words, w, wi, limit)
			},
		}, true
	}
	if lo > hi {
		// statically empty interval (e.g. BETWEEN with reversed bounds):
		// no row can match, so every chunk prunes
		return BatchKernel{
			Prune: func(int) bool { return true },
			And:   func(_ int, sel *Bitmap) { sel.ClearAll() },
		}, true
	}
	return BatchKernel{
		Prune: func(chunk int) bool {
			z, ok := vec.Zone(chunk)
			if !ok || z.AllNull() {
				return true
			}
			return z.MaxNum < lo || z.MinNum > hi
		},
		And: func(chunk int, sel *Bitmap) {
			nums, nulls, words, limit := vec.numChunk(chunk, sel)
			var w uint64
			wi := 0
			for i := 0; i < limit; i++ {
				if !nulls[i] {
					v := nums[i]
					if v >= lo && v <= hi {
						w |= 1 << uint(i&63)
					}
				}
				if i&63 == 63 {
					words[wi] &= w
					wi++
					w = 0
				}
			}
			finishChunk(words, w, wi, limit)
		},
	}, true
}

// numChunk slices out the chunk's values, nulls, and selection words
// for a numeric kernel's inner loop. limit is the number of rows to
// test: the lesser of the selection length and the rows the vector
// actually holds past the chunk base (zero when the chunk lies wholly
// beyond the vector, in which case the selection is already cleared).
func (v *Vector) numChunk(chunk int, sel *Bitmap) (nums []float64, nulls []bool, words []uint64, limit int) {
	base := chunk * ChunkSize
	limit = sel.Len()
	if avail := len(v.Nulls) - base; avail < limit {
		limit = avail
	}
	if limit <= 0 {
		sel.ClearAll()
		return nil, nil, sel.Words(), 0
	}
	return v.Nums[base : base+limit], v.Nulls[base : base+limit], sel.Words(), limit
}

// codeChunk is numChunk for dictionary-code kernels.
func (v *Vector) codeChunk(chunk int, sel *Bitmap) (codes []uint32, nulls []bool, words []uint64, limit int) {
	base := chunk * ChunkSize
	limit = sel.Len()
	if avail := len(v.Nulls) - base; avail < limit {
		limit = avail
	}
	if limit <= 0 {
		sel.ClearAll()
		return nil, nil, sel.Words(), 0
	}
	return v.codes[base : base+limit], v.Nulls[base : base+limit], sel.Words(), limit
}

// finishChunk flushes a kernel's trailing partial match word and
// clears the selection words for rows beyond the vector, which never
// match.
func finishChunk(words []uint64, w uint64, wi, limit int) {
	if limit&63 != 0 {
		words[wi] &= w
		wi++
	}
	for ; wi < len(words); wi++ {
		words[wi] = 0
	}
}

// codePlan is a string predicate translated into dictionary-code
// space: because the dictionary is sorted, every supported comparison
// reduces to an inclusive code interval, a not-equal against one
// code, or a statically empty match set.
type codePlan struct {
	kind   codePlanKind
	lo, hi uint32 // planRange: match codes in [lo, hi]
	ne     uint32 // planNotEqual: match codes != ne
}

type codePlanKind int

const (
	planEmpty    codePlanKind = iota // no row can match
	planRange                        // codes in [lo, hi]
	planNotEqual                     // codes != ne
)

// stringCodePlan translates op over args into code space against a
// sorted dictionary. ok is false for unsupported ops/arities; an
// operand absent from the dictionary still yields a valid plan (its
// insertion point bounds the matching code range).
func stringCodePlan(dict []string, op string, args []string) (codePlan, bool) {
	n := uint32(len(dict))
	// lower(a) is the first code >= a; upper(a) is the first code > a.
	lower := func(a string) uint32 { return uint32(sort.SearchStrings(dict, a)) }
	upper := func(a string) uint32 {
		i := sort.SearchStrings(dict, a)
		if i < len(dict) && dict[i] == a {
			i++
		}
		return uint32(i)
	}
	rangePlan := func(lo, hi uint32) (codePlan, bool) {
		// hi is exclusive here; an empty or inverted interval matches nothing.
		if lo >= hi {
			return codePlan{kind: planEmpty}, true
		}
		return codePlan{kind: planRange, lo: lo, hi: hi - 1}, true
	}
	switch {
	case op == "=" && len(args) == 1:
		return rangePlan(lower(args[0]), upper(args[0]))
	case op == "!=" && len(args) == 1:
		i := sort.SearchStrings(dict, args[0])
		if i < len(dict) && dict[i] == args[0] {
			return codePlan{kind: planNotEqual, ne: uint32(i)}, true
		}
		// operand not in dictionary: every non-null row differs
		return rangePlan(0, n)
	case op == "<" && len(args) == 1:
		return rangePlan(0, lower(args[0]))
	case op == "<=" && len(args) == 1:
		return rangePlan(0, upper(args[0]))
	case op == ">" && len(args) == 1:
		return rangePlan(upper(args[0]), n)
	case op == ">=" && len(args) == 1:
		return rangePlan(lower(args[0]), n)
	case op == "between" && len(args) == 2:
		return rangePlan(lower(args[0]), upper(args[1]))
	}
	return codePlan{}, false
}

// stringBatchKernel compiles a code plan into a kernel whose inner
// loop compares 4-byte integer codes — never the string payloads.
func stringBatchKernel(vec *Vector, plan codePlan) BatchKernel {
	switch plan.kind {
	case planEmpty:
		return BatchKernel{
			Prune: func(int) bool { return true },
			And:   func(_ int, sel *Bitmap) { sel.ClearAll() },
		}
	case planNotEqual:
		ne := plan.ne
		return BatchKernel{
			Prune: func(chunk int) bool {
				z, ok := vec.Zone(chunk)
				if !ok || z.AllNull() {
					return true
				}
				return z.MinCode == ne && z.MaxCode == ne
			},
			And: func(chunk int, sel *Bitmap) {
				codes, nulls, words, limit := vec.codeChunk(chunk, sel)
				var w uint64
				wi := 0
				for i := 0; i < limit; i++ {
					if !nulls[i] && codes[i] != ne {
						w |= 1 << uint(i&63)
					}
					if i&63 == 63 {
						words[wi] &= w
						wi++
						w = 0
					}
				}
				finishChunk(words, w, wi, limit)
			},
		}
	default:
		lo, hi := plan.lo, plan.hi
		return BatchKernel{
			Prune: func(chunk int) bool {
				z, ok := vec.Zone(chunk)
				if !ok || z.AllNull() {
					return true
				}
				return z.MaxCode < lo || z.MinCode > hi
			},
			And: func(chunk int, sel *Bitmap) {
				codes, nulls, words, limit := vec.codeChunk(chunk, sel)
				var w uint64
				wi := 0
				for i := 0; i < limit; i++ {
					if !nulls[i] {
						c := codes[i]
						if c >= lo && c <= hi {
							w |= 1 << uint(i&63)
						}
					}
					if i&63 == 63 {
						words[wi] &= w
						wi++
						w = 0
					}
				}
				finishChunk(words, w, wi, limit)
			},
		}
	}
}
