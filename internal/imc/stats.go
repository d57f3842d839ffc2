// Population-time column statistics. The same monoid-style statistics
// the DataGuide maintains per path ($DG merge) are computed here per
// populated vector — exactly once, during PopulateVC — so the
// cost-based planner can read selectivities for virtual columns
// straight from the column store: row and null counts, min/max, and an
// NDV that is exact for dictionary-encoded strings (the dictionary IS
// the distinct-value set) and HyperLogLog-estimated for numbers
// (reusing the dataguide sketch so partial populations would merge).

package imc

import (
	"math"

	"repro/internal/dataguide"
)

// ColStats summarizes one populated column vector for cost estimation.
type ColStats struct {
	// Rows is the vector length including nulls; Nulls counts the null
	// rows.
	Rows, Nulls int
	// NDV is the number of distinct non-null values: exact for string
	// vectors (Exact true), a HyperLogLog estimate for numeric ones.
	NDV   int64
	Exact bool
	// IsNumber mirrors the vector representation and selects which
	// min/max pair below is meaningful.
	IsNumber bool
	// MinNum/MaxNum bound the non-null numeric values (IsNumber, NDV>0).
	MinNum, MaxNum float64
	// MinStr/MaxStr bound the non-null string values (!IsNumber, NDV>0).
	MinStr, MaxStr string
}

// computeStats derives the column statistics from a finished vector.
func computeStats(v *Vector) ColStats {
	st := ColStats{Rows: v.Len(), IsNumber: v.IsNumber}
	if v.IsNumber {
		sk := dataguide.NewSketch()
		minN, maxN := math.Inf(1), math.Inf(-1)
		for i, isNull := range v.Nulls {
			if isNull {
				st.Nulls++
				continue
			}
			n := v.Nums[i]
			sk.AddUint64(math.Float64bits(n))
			if n < minN {
				minN = n
			}
			if n > maxN {
				maxN = n
			}
		}
		if st.Nulls < st.Rows {
			st.NDV = sk.Estimate()
			st.MinNum, st.MaxNum = minN, maxN
		}
		return st
	}
	for _, isNull := range v.Nulls {
		if isNull {
			st.Nulls++
		}
	}
	st.NDV = int64(len(v.dict))
	st.Exact = true
	if len(v.dict) > 0 {
		st.MinStr, st.MaxStr = v.dict[0], v.dict[len(v.dict)-1]
	}
	return st
}

// Stats returns the column statistics computed when the vector was
// built.
func (v *Vector) Stats() ColStats { return v.stats }
