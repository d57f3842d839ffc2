// Parallel partitioned scans. A parallelScanOp replaces the serial
// tableScan (+ residual filter) when the planner judges the table
// large enough: the row-id space is split into K contiguous
// partitions, one worker goroutine scans each partition through a
// clone of the scan, evaluates the residual WHERE locally, and sends
// batches of surviving rows over a bounded channel. The merge drains
// the per-worker channels in partition order, reproducing the serial
// row order exactly.
//
// Workers share no mutable state: each owns its scan clone, its
// evaluation context, and its cancellation tick counter. The residual
// predicate expression itself is shared — its leaves are immutable
// during evaluation and compiled JSON paths (pathengine.Compiled) are
// race-safe by contract.

package sqlengine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/imc"
)

// fanoutMinRows is the table size from which a scan fans out: one
// in-memory chunk. Below it the goroutines and channels cost more than
// a second core wins back, in every storage mode; from it up, text
// scans win at two cores and the in-memory modes break even. The
// figure comes from the scaling curve in EXPERIMENTS.md ("Scan fan-out
// without knobs").
const fanoutMinRows = 1 * imc.ChunkSize

// parBatchChanCap bounds each worker's output channel, limiting the
// batches (of up to batchSize rows each) buffered ahead of the
// consumer.
const parBatchChanCap = 4

// parRow is one merge input: a whole batch, whose ownership transfers
// to the consumer, or the worker's terminal error.
type parRow struct {
	b   *Batch
	err error
}

type parallelScanOp struct {
	planEstimate
	template *tableScan
	// filter is the residual WHERE absorbed into the workers (may be
	// nil); each worker evaluates its own clone.
	filter Expr
	env    *planEnv
	degree int

	chans     []chan parRow // one per worker, merged in partition order
	cur       int
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	st        *OpStats
	// workers are the per-partition scan clones of the last Open, kept
	// so EXPLAIN ANALYZE can aggregate their batch chunk stats (read
	// only after Close has joined the worker goroutines).
	workers []*tableScan
	// held is the batch most recently received from a worker, owned by
	// the merge side: NextBatch hands it to the consumer and recycles it
	// on the following call.
	held *Batch
}

// parallelizeScan decides whether the FROM source plus residual WHERE
// can run as a parallel partitioned scan; it returns nil when the
// serial plan should be kept. The degree is GOMAXPROCS, capped later by
// the partition count (scanPartitions), and tables under fanoutMinRows
// stay serial; PlannerOptions.fanout overrides both for tests.
func (e *Engine) parallelizeScan(src rowSource, where Expr, env *planEnv) rowSource {
	scan, ok := src.(*tableScan)
	if !ok {
		return nil
	}
	// index-driven scans read a sparse row-id list, and sampling
	// depends on one deterministic RNG stream: both stay serial.
	if scan.rowIDsFn != nil || scan.samplePct > 0 {
		return nil
	}
	degree := e.Planner.fanout
	if degree == 0 {
		if scan.tab.MaxRowID() < fanoutMinRows {
			return nil
		}
		degree = runtime.GOMAXPROCS(0)
	}
	if degree < 2 {
		return nil
	}
	return &parallelScanOp{template: scan, filter: where, env: env, degree: degree}
}

func (p *parallelScanOp) Schema() Schema { return p.template.Schema() }

// scanPartitions computes the worker row-id ranges for a scan
// template. For a template with vector predicates they are aligned to
// imc.ChunkSize boundaries so no chunk is split between workers —
// every worker's lo lands on a chunk start and its kernels, zone maps,
// and selection bitmaps line up with the vector's chunk grid.
// Otherwise the table's default equal split.
func scanPartitions(scan *tableScan, degree int) [][2]int {
	if len(scan.vecSpecs) == 0 {
		return scan.tab.Partitions(degree)
	}
	n := scan.tab.MaxRowID()
	chunks := (n + imc.ChunkSize - 1) / imc.ChunkSize
	k := degree
	if k > chunks {
		k = chunks
	}
	var parts [][2]int
	for i := 0; i < k; i++ {
		lo := i * chunks / k * imc.ChunkSize
		hi := (i + 1) * chunks / k * imc.ChunkSize
		if hi > n {
			hi = n
		}
		if hi > lo {
			parts = append(parts, [2]int{lo, hi})
		}
	}
	return parts
}

func (p *parallelScanOp) Open(ec *ExecCtx) error {
	p.st = ec.statFor()
	p.stop = make(chan struct{})
	p.closeOnce = sync.Once{}
	p.chans, p.cur = nil, 0
	p.workers = nil
	p.held = nil
	parts := scanPartitions(p.template, p.degree)
	if len(parts) == 0 {
		return nil
	}
	p.template.bindSource() // one in-memory image for the whole fleet
	mParScans.Inc()
	mParWorkers.Add(int64(len(parts)))
	p.chans = make([]chan parRow, len(parts))
	p.wg.Add(len(parts))
	for i, part := range parts {
		p.chans[i] = make(chan parRow, parBatchChanCap)
		scan := p.template.cloneForRange(part[0], part[1])
		p.workers = append(p.workers, scan)
		// workers share the residual filter expression: its leaves are
		// immutable during evaluation and compiled JSON path state
		// (pathengine.Compiled) is race-safe by contract, so each worker
		// only needs its own evalCtx, built in worker()
		go p.worker(ec, scan, p.filter, p.chans[i])
	}
	return nil
}

// worker scans one partition into its own channel, closed on exit. The
// scan's batches cross the channel whole and ownership transfers — the
// scan detaches each batch before the send, so it never recycles what
// the consumer may still hold; a residual filter compacts survivors
// into a worker-owned batch first (and recycles the scan's).
func (p *parallelScanOp) worker(ec *ExecCtx, scan *tableScan, pred Expr, out chan parRow) {
	defer p.wg.Done()
	defer close(out)
	var delivered int64
	defer func() { mParRows.Add(delivered) }()
	if err := scan.Open(ec); err != nil {
		p.send(out, parRow{err: err})
		return
	}
	defer scan.Close() //nolint:errcheck // flushes the scan's row count
	var ctx *evalCtx
	if pred != nil {
		ctx = p.env.bindCtx(scan.Schema(), pred)
	}
	// each worker owns its tick counter (execctx.go): the shared
	// ExecCtx is only read, keeping workers race-free
	ticks := 0
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if err := ec.tickErr(&ticks); err != nil {
			p.send(out, parRow{err: err})
			return
		}
		b, err := scan.NextBatch(ec, 0)
		if err != nil {
			p.send(out, parRow{err: err})
			return
		}
		if b == nil {
			return
		}
		scan.detachBatch()
		if pred != nil {
			kept := getBatch()
			for i := 0; i < b.Len(); i++ {
				row := b.Row(i)
				ctx.row = row
				v, err := evalExpr(ctx, pred)
				if err != nil {
					putBatch(kept)
					putBatch(b)
					p.send(out, parRow{err: err})
					return
				}
				if truthy(v) {
					kept.add(row)
				}
			}
			putBatch(b)
			if kept.Len() == 0 {
				putBatch(kept)
				continue
			}
			b = kept
		}
		n := int64(b.Len())
		if !p.send(out, parRow{b: b}) {
			putBatch(b)
			return
		}
		delivered += n
	}
}

// send delivers r unless the operator is being closed; a worker
// blocked on a full channel unblocks through the stop case.
func (p *parallelScanOp) send(ch chan parRow, r parRow) bool {
	select {
	case ch <- r:
		return true
	case <-p.stop:
		return false
	}
}

// NextBatch hands worker batches to the consumer in merge order,
// recycling the previous one per the producer contract.
func (p *parallelScanOp) NextBatch(ec *ExecCtx, max int) (b *Batch, err error) {
	if p.st != nil {
		t0 := time.Now()
		defer func() { p.st.observeBatch(time.Since(t0), b.Len()) }()
	}
	putBatch(p.held)
	p.held = nil
	// no tick here: the workers poll the context and deliver the
	// cancellation as their terminal error
	r, more := p.recv()
	if !more {
		return nil, nil
	}
	if r.err != nil {
		return nil, r.err
	}
	if max > 0 {
		r.b.truncate(max)
	}
	p.held = r.b
	return r.b, nil
}

// recv pulls the next merge input from the per-worker channels in
// partition order.
func (p *parallelScanOp) recv() (parRow, bool) {
	for p.cur < len(p.chans) {
		r, ok := recvCounted(p.chans[p.cur])
		if !ok {
			p.cur++
			continue
		}
		return r, true
	}
	return parRow{}, false
}

// recvCounted receives one merge input, counting a stall when the
// channel is empty at the moment of the receive (the consumer is ahead
// of the producers — the signal behind merge_stalls).
func recvCounted(ch chan parRow) (parRow, bool) {
	select {
	case r, ok := <-ch:
		return r, ok
	default:
	}
	mParMergeStalls.Inc()
	r, ok := <-ch
	return r, ok
}

// Close stops all workers and waits for them, so no goroutine outlives
// the query — including workers blocked mid-send when the consumer
// terminated early (LIMIT, error, cancellation).
func (p *parallelScanOp) Close() error {
	putBatch(p.held)
	p.held = nil
	if p.stop != nil {
		p.closeOnce.Do(func() { close(p.stop) })
	}
	// join unconditionally: before Open, Wait on a zero group is a
	// no-op, and an early Close must never abandon launched workers
	p.wg.Wait()
	return nil
}

func (p *parallelScanOp) opName() string {
	name := fmt.Sprintf("ParallelScan(%s degree=%d ordered", p.template.tab.Name, p.degree)
	if p.filter != nil {
		name += " filtered"
	}
	return name + p.template.vecSuffix() + ")"
}
func (p *parallelScanOp) opChildren() []rowSource { return nil }
func (p *parallelScanOp) opStat() *OpStats        { return p.st }
func (p *parallelScanOp) opNotes() []string       { return p.template.opNotes() }

// opExtraLines aggregates the workers' batch chunk stats for EXPLAIN
// ANALYZE. Safe only after Close: the workers have been joined, so
// their counters are quiescent.
func (p *parallelScanOp) opExtraLines() []string {
	var chunks, pruned, selected int64
	var kstats []batchKernelStat
	var labels []string
	for _, w := range p.workers {
		chunks += w.statChunks
		pruned += w.statPruned
		selected += w.statSelRows
		if len(w.kernelStats) > 0 {
			if kstats == nil {
				kstats = make([]batchKernelStat, len(w.kernelStats))
				labels = w.runLabels
			}
			for i := range w.kernelStats {
				if i < len(kstats) {
					kstats[i].chunks += w.kernelStats[i].chunks
					kstats[i].pruned += w.kernelStats[i].pruned
					kstats[i].in += w.kernelStats[i].in
					kstats[i].out += w.kernelStats[i].out
				}
			}
		}
	}
	if chunks == 0 {
		return nil
	}
	lines := []string{fmt.Sprintf("vec-batch: chunks=%d pruned=%d selected=%d", chunks, pruned, selected)}
	for i, ks := range kstats {
		lines = append(lines, fmt.Sprintf("vec[%s]: chunks=%d pruned=%d selectivity=%s",
			labels[i], ks.chunks, ks.pruned, pctOf(ks.out, ks.in)))
	}
	return lines
}
