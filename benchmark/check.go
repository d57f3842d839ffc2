// Result checking. Every operation's result is hashed and compared
// with a reference computed during set-up; the references themselves
// are cross-checked between storage formats (OSON vs REL, IMC vs text)
// with a comparison that tolerates number formatting but not values.

package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsondom"
	"repro/internal/sqlengine"
)

// rowHash is FNV-1a over the typed values of a row. It allocates
// nothing, so checking a result does not disturb allocs_per_op.
type rowHash struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (r *rowHash) byte(b byte) { r.h = (r.h ^ uint64(b)) * fnvPrime }

func (r *rowHash) str(s string) {
	for i := 0; i < len(s); i++ {
		r.byte(s[i])
	}
	r.byte(0xff)
}

func (r *rowHash) sum() uint64 { return r.h }

func (r *rowHash) value(v jsondom.Value) {
	switch t := v.(type) {
	case jsondom.String:
		r.byte('s')
		r.str(string(t))
	case jsondom.Number:
		r.byte('n')
		r.str(string(t))
	case jsondom.Double:
		r.byte('d')
		b := math.Float64bits(float64(t))
		for i := 0; i < 8; i++ {
			r.byte(byte(b >> (8 * i)))
		}
	case jsondom.Bool:
		if t {
			r.byte('t')
		} else {
			r.byte('f')
		}
	case jsondom.Null, nil:
		r.byte('0')
	default:
		r.byte('?')
		r.byte(byte(v.Kind()))
	}
}

// resultHash hashes a result set: chained over rows when order is part
// of the result, summed over per-row hashes (a multiset hash) when not.
func resultHash(res *sqlengine.Result, ordered bool) uint64 {
	total := uint64(len(res.Rows))
	rh := rowHash{h: fnvOffset}
	for _, row := range res.Rows {
		if !ordered {
			rh.h = fnvOffset
		}
		for _, v := range row {
			rh.value(v)
		}
		rh.byte(0xfe)
		if !ordered {
			total += rh.h
		}
	}
	if ordered {
		total += rh.h
	}
	return total
}

// canonRows renders a result for the cross-format comparison: numbers
// are reduced to 12 significant digits so that "12.50" from a stored
// column and 12.5 from a decoded OSON number compare equal while a
// different value does not; rows are sorted unless order matters.
func canonRows(res *sqlengine.Result, ordered bool) []string {
	out := make([]string, len(res.Rows))
	var b strings.Builder
	for i, row := range res.Rows {
		b.Reset()
		for _, v := range row {
			switch t := v.(type) {
			case jsondom.Number:
				b.WriteString(strconv.FormatFloat(t.Float64(), 'g', 12, 64))
			case jsondom.Double:
				b.WriteString(strconv.FormatFloat(float64(t), 'g', 12, 64))
			case jsondom.String:
				b.WriteString(strconv.Quote(string(t)))
			case jsondom.Bool:
				b.WriteString(strconv.FormatBool(bool(t)))
			case jsondom.Null, nil:
				b.WriteString("null")
			default:
				fmt.Fprintf(&b, "%v", v)
			}
			b.WriteByte('|')
		}
		out[i] = b.String()
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// sameResults reports the first difference between two engines'
// answers to the same query, or nil.
func sameResults(a, b *sqlengine.Result, ordered bool) error {
	ra, rb := canonRows(a, ordered), canonRows(b, ordered)
	if len(ra) != len(rb) {
		return fmt.Errorf("%d rows vs %d rows", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return fmt.Errorf("row %d: %s vs %s", i, ra[i], rb[i])
		}
	}
	return nil
}

// countOf reads the single count(*) cell of a result, -1 when the
// result does not have that shape.
func countOf(res *sqlengine.Result) int64 {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return -1
	}
	n, ok := res.Rows[0][0].(jsondom.Number)
	if !ok {
		return -1
	}
	c, ok := n.Int64()
	if !ok {
		return -1
	}
	return c
}
