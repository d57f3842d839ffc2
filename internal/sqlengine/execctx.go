// Execution contexts: the per-query state threaded through every row
// source. An ExecCtx carries the caller's context.Context (cooperative
// cancellation/timeout, checked every cancelCheckInterval rows on scan
// and build loops), a process-wide query id, the per-operator stats
// sinks EXPLAIN ANALYZE reads, and a memory accountant enforcing the
// configurable budget for pipeline-breaking operators (sort, hash join
// build, group-by, window, cross-join materialization).

package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/jsondom"
)

// cancelCheckInterval is the number of rows an operator processes
// between cooperative cancellation checks: large enough that the
// atomic load in Context.Err stays invisible on the hot path, small
// enough that cancellation is observed well within 100ms even for
// expensive per-row work.
const cancelCheckInterval = 256

// ErrMemoryBudget is returned when a pipeline-breaking operator would
// exceed PlannerOptions.MemoryBudget.
var ErrMemoryBudget = errors.New("sql: query memory budget exceeded")

// ErrQueryCancelled wraps any context cancellation or timeout observed
// during statement execution, giving callers one sentinel to test
// with; the original context.Canceled / context.DeadlineExceeded stays
// reachable through errors.Is as well.
var ErrQueryCancelled = errors.New("sql: query cancelled")

// queryIDSeq issues process-wide query ids.
var queryIDSeq atomic.Uint64

// OpStats accumulates per-operator execution statistics. Stats are
// only collected when the ExecCtx was created for EXPLAIN ANALYZE;
// otherwise operators carry a nil *OpStats and every method is a
// no-op, keeping the regular execution path free of timer calls.
type OpStats struct {
	Rows    int64         // rows delivered to the parent
	Batches int64         // batches they were delivered in
	Wall    time.Duration // cumulative wall time inside NextBatch (children included)
}

// observeBatch records one NextBatch call delivering n rows; the
// end-of-input call (n == 0) adds time but no batch. Safe on a nil
// receiver.
func (s *OpStats) observeBatch(d time.Duration, n int) {
	if s == nil {
		return
	}
	s.Wall += d
	if n > 0 {
		s.Batches++
		s.Rows += int64(n)
	}
}

// ExecCtx is the execution context shared by all operators of one
// running query. It is created per statement execution and may be
// read concurrently by parallel scan workers; all mutable state is
// either operator-local or atomic.
type ExecCtx struct {
	ctx     context.Context
	queryID uint64
	// collect enables per-operator stats (EXPLAIN ANALYZE only).
	collect bool

	// memory accountant for pipeline breakers; budget <= 0 disables.
	memBudget int64
	memUsed   atomic.Int64
}

// newExecCtx builds the execution context for one statement.
func newExecCtx(ctx context.Context, memBudget int64) *ExecCtx {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ExecCtx{ctx: ctx, queryID: queryIDSeq.Add(1), memBudget: memBudget}
}

// Context returns the caller's context.
func (ec *ExecCtx) Context() context.Context { return ec.ctx }

// QueryID returns the process-wide id of this query execution.
func (ec *ExecCtx) QueryID() uint64 { return ec.queryID }

// Err reports the cancellation state of the query's context.
func (ec *ExecCtx) Err() error { return ec.ctx.Err() }

// tickErr advances an operator-local row counter and checks the
// context every cancelCheckInterval rows. Each operator (and each
// parallel scan worker) owns its counter, so the check involves no
// shared state.
func (ec *ExecCtx) tickErr(ticks *int) error {
	*ticks++
	if *ticks%cancelCheckInterval == 0 {
		return ec.ctx.Err()
	}
	return nil
}

// statFor allocates a stats sink for one operator when collection is
// enabled, nil otherwise.
func (ec *ExecCtx) statFor() *OpStats {
	if ec == nil || !ec.collect {
		return nil
	}
	return &OpStats{}
}

// grow charges n bytes against the query's memory budget.
func (ec *ExecCtx) grow(n int64) error {
	if ec.memBudget <= 0 {
		return nil
	}
	mMemCharged.Add(n)
	if ec.memUsed.Add(n) > ec.memBudget {
		mMemDenied.Inc()
		return fmt.Errorf("%w (budget %d bytes)", ErrMemoryBudget, ec.memBudget)
	}
	return nil
}

// release returns n bytes to the budget (operator Close).
func (ec *ExecCtx) release(n int64) {
	if ec.memBudget > 0 && n > 0 {
		ec.memUsed.Add(-n)
	}
}

// rowBytes is the cheap per-row memory estimate used by pipeline
// breakers: slice header plus interface word per column plus variable
// payload for the kinds that carry one.
func rowBytes(row []jsondom.Value) int64 {
	n := int64(24 + 16*len(row))
	for _, v := range row {
		switch t := v.(type) {
		case jsondom.String:
			n += int64(len(t))
		case jsondom.Binary:
			n += int64(len(t))
		case jsondom.Number:
			n += int64(len(t))
		}
	}
	return n
}
