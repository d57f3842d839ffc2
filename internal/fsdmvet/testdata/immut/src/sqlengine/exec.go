// Writes to preparedPlan fields outside plan.go are flagged.
package sqlengine

// reuse mutates a cached template outside the constructor file.
func reuse(p *preparedPlan) {
	p.sql = "altered" // want "immutable after construction"
	p.binds[0] = 1    // want "element write into"
}

// use keeps newPreparedPlan referenced.
func use() *preparedPlan { return newPreparedPlan("SELECT 1") }

// recycle mutates a pooled batch header outside the spine file.
func recycle(b *Batch) {
	b.rows = b.rows[:0]  // want "immutable after construction"
	b.rows[0] = []int{1} // want "element write into"
}

// emit is a breaker's NextBatch done wrong: it fills the header in
// place instead of going through sliceBatch.
func emit(b *Batch, rows [][]int) *Batch {
	b.rows = append(b.rows, rows...) // want "immutable after construction"
	return sliceBatch(b, rows)
}

// retarget redirects a fast-path spec outside the spine file.
func retarget(sp *aggFastSpec) {
	sp.vec = nil // want "immutable after construction"
}

// drain reads batch state — always legal.
func drain(b *Batch) int {
	n := 0
	for _, r := range b.rows {
		n += len(r)
	}
	b.add(nil)
	b.reset()
	_ = newAggFastSpec(1)
	var local aggFastSpec
	local.kind = 2 // value-copy write stays legal
	_ = local
	return n
}
