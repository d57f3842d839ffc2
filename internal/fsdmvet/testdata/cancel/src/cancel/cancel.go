// Package cancel exercises cancelcheck: unbounded row loops inside
// context-aware functions must tick the query context.
package cancel

import "context"

// ExecCtx stands in for the engine's execution context; cancelcheck
// matches the type by name, so the stub works like the real thing.
type ExecCtx struct{}

// tickErr mirrors the real cooperative-cancellation helper.
func (e *ExecCtx) tickErr(ticks *int) error { return nil }

// Err mirrors the inline ticks%interval==0 check target.
func (e *ExecCtx) Err() error { return nil }

// source is a row step over a batch input (the batchCursor shape):
// next pulls one row under an ExecCtx.
type source struct{ n int }

// next returns the next row id, or an error when drained.
func (s *source) next(ec *ExecCtx) (int, error) { return s.n, nil }

// Table mimics the store table's DML surface.
type Table struct{}

// Delete tombstones one row.
func (t *Table) Delete(id int) {}

// drainBad pulls a child source forever without ever ticking.
func drainBad(ec *ExecCtx, src *source) {
	for { // want "pulls a child row source"
		if _, err := src.next(ec); err != nil {
			return
		}
	}
}

// drainGood is the same loop with the tickErr discipline.
func drainGood(ec *ExecCtx, src *source) {
	ticks := 0
	for {
		if err := ec.tickErr(&ticks); err != nil {
			return
		}
		if _, err := src.next(ec); err != nil {
			return
		}
	}
}

// deleteBad sweeps per-row DML without observing ctx.
func deleteBad(ctx context.Context, t *Table, ids []int) {
	for _, id := range ids { // want "per-row store DML"
		t.Delete(id)
	}
}

// deleteGood routes every iteration through a tick closure.
func deleteGood(ctx context.Context, t *Table, ids []int) {
	ticks := 0
	tick := func() bool {
		ticks++
		return ctx.Err() == nil
	}
	for _, id := range ids {
		if !tick() {
			return
		}
		t.Delete(id)
	}
}

// looper is a row stepper (the join shape fillBatch drives) whose step
// spins on an internal condition.
type looper struct{ n int }

// step has a condition-less for{} — unbounded by construction.
func (l *looper) step(ec *ExecCtx) (int, error) {
	for { // want "unbounded for"
		if l.n > 0 {
			return l.n, nil
		}
		l.n++
	}
}

// ticker is the compliant variant of looper.
type ticker struct{ n int }

// step checks the context on every spin.
func (t *ticker) step(ec *ExecCtx) (int, error) {
	for {
		if err := ec.Err(); err != nil {
			return 0, err
		}
		if t.n > 0 {
			return t.n, nil
		}
		t.n++
	}
}

// Batch stands in for the engine's row batch.
type Batch struct{}

// batcher is a batch-producing row source: NextBatch pulls one batch
// under an ExecCtx, and nextSelID yields selected row ids.
type batcher struct{ n int }

// NextBatch returns the next batch, or nil when drained.
func (b *batcher) NextBatch(ec *ExecCtx, max int) (*Batch, error) { return nil, nil }

// nextSelID returns the next selected row id.
func (b *batcher) nextSelID(ec *ExecCtx) (int, bool, error) { return b.n, false, nil }

// drainBatchesBad pulls batches forever without ever ticking.
func drainBatchesBad(ec *ExecCtx, src *batcher) {
	for { // want "pulls a child row source"
		b, err := src.NextBatch(ec, 64)
		if b == nil || err != nil {
			return
		}
	}
}

// drainBatchesGood is the same loop with the tickErr discipline.
func drainBatchesGood(ec *ExecCtx, src *batcher) {
	ticks := 0
	for {
		if err := ec.tickErr(&ticks); err != nil {
			return
		}
		b, err := src.NextBatch(ec, 64)
		if b == nil || err != nil {
			return
		}
	}
}

// drainIDsBad walks the selection vector without observing ctx — the
// shape of a parallel-operator worker missing its tick.
func drainIDsBad(ec *ExecCtx, src *batcher) int {
	total := 0
	for { // want "pulls a child row source"
		id, more, err := src.nextSelID(ec)
		if !more || err != nil {
			return total
		}
		total += id
	}
}

// drainIDsGood ticks every iteration of the selected-id pull.
func drainIDsGood(ec *ExecCtx, src *batcher) int {
	total := 0
	ticks := 0
	for {
		if err := ec.tickErr(&ticks); err != nil {
			return total
		}
		id, more, err := src.nextSelID(ec)
		if !more || err != nil {
			return total
		}
		total += id
	}
}

// spinner is a batch producer whose NextBatch spins on an internal
// condition — unbounded by construction, like a pruning producer that
// can return many empty pulls back to back.
type spinner struct{ n int }

// NextBatch has a condition-less for{} and never ticks.
func (s *spinner) NextBatch(ec *ExecCtx, max int) (*Batch, error) {
	for { // want "unbounded for"
		if s.n > 0 {
			return nil, nil
		}
		s.n++
	}
}

// fillBad is the shared fill helper's loop without its tick: it drives
// a row step until the batch is full.
func fillBad(ec *ExecCtx, l *looper, lim int) int {
	n := 0
	for n < lim { // want "pulls a child row source"
		if _, err := l.step(ec); err != nil {
			return n
		}
		n++
	}
	return n
}

// fillGood ticks once per stepped row.
func fillGood(ec *ExecCtx, l *looper, lim int) int {
	n, ticks := 0, 0
	for n < lim {
		if err := ec.tickErr(&ticks); err != nil {
			return n
		}
		if _, err := l.step(ec); err != nil {
			return n
		}
		n++
	}
	return n
}

// noCtx cannot see a query context, so cancelcheck leaves it alone.
func noCtx(src *source) int {
	var ec *ExecCtx
	total := 0
	for i := 0; i < 3; i++ {
		v, err := src.next(ec)
		if err != nil {
			return total
		}
		total += v
	}
	return total
}

// boundedOK iterates a fixed slice without pulls or DML — no tick
// needed even though ctx is in scope.
func boundedOK(ctx context.Context, xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
