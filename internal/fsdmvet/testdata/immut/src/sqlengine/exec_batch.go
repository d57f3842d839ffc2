// Package sqlengine stubs the batch spine; exec_batch.go is the one
// file allowed to mutate Batch and aggFastSpec state.
package sqlengine

// Batch is a pooled chunk of rows handed between operators.
type Batch struct {
	rows [][]int
}

// add appends a row inside the spine file — legal.
func (b *Batch) add(row []int) { b.rows = append(b.rows, row) }

// reset empties the header for pool reuse — legal here.
func (b *Batch) reset() {
	b.rows = b.rows[:0]
}

// sliceBatch fills a header from a breaker's materialized rows: the
// breakers' NextBatch bodies reach Batch internals only through it, so
// the write stays inside the spine file — legal.
func sliceBatch(b *Batch, rows [][]int) *Batch {
	b.rows = append(b.rows, rows...)
	return b
}

// aggFastSpec is the per-aggregate plan of the code-space fast path.
type aggFastSpec struct {
	kind int
	vec  *int
}

// newAggFastSpec builds a spec inside the spine file — legal.
func newAggFastSpec(kind int) aggFastSpec {
	var sp aggFastSpec
	sp.kind = kind
	return sp
}
