// Package escape exercises escapecheck: reads, field stores, channel
// sends, and closure captures of pooled values after a release —
// including aliases and one-arm releases no statement-order rule can see — while
// live ownership transfers stay silent.
package escape

import "sync"

type batch struct{ vals []int }

func getBatch() *batch  { return &batch{} }
func putBatch(b *batch) {}

type holder struct{ b *batch }

// GoodTransfer stores a live batch into a field: ownership moves to
// the holder, which becomes the releaser.
func GoodTransfer(h *holder) {
	b := getBatch()
	h.b = b
}

// GoodSend hands a live batch to the channel's receiver.
func GoodSend(ch chan *batch) {
	b := getBatch()
	ch <- b
}

// GoodLoop re-acquires each iteration: the back edge carries last
// iteration's release, but the fresh checkout revives the cell.
func GoodLoop(n int) {
	for i := 0; i < n; i++ {
		b := getBatch()
		b.vals = append(b.vals, i)
		putBatch(b)
	}
}

// GoodDeferredRelease releases at exit; every use precedes it.
func GoodDeferredRelease() int {
	b := getBatch()
	defer putBatch(b)
	return len(b.vals)
}

// UseAfterRelease reads the value the pool already took back.
func UseAfterRelease() int {
	b := getBatch()
	putBatch(b)
	return len(b.vals) // want "used after release"
}

// AliasRelease releases through one name on one arm and reads the
// alias on the merged path.
func AliasRelease(c bool) int {
	b := getBatch()
	alias := b
	if c {
		putBatch(b)
	}
	return len(alias.vals) // want "used after release on some path"
}

// StoreAfterRelease parks a stale handle in a field.
func StoreAfterRelease(h *holder) {
	b := getBatch()
	putBatch(b)
	h.b = b // want "stored to a field after release"
}

// SendAfterRelease ships a stale handle to another goroutine.
func SendAfterRelease(ch chan *batch) {
	b := getBatch()
	putBatch(b)
	ch <- b // want "sent on channel after release"
}

// CaptureAfterRelease closes over a handle already released; the
// closure outlives the checkout.
func CaptureAfterRelease() func() int {
	b := getBatch()
	putBatch(b)
	return func() int { return len(b.vals) } // want "captured by closure after release"
}

// Reassigned re-establishes ownership: a fresh checkout overwrites
// the spent variable, so later uses are clean.
func Reassigned() int {
	b := getBatch()
	putBatch(b)
	b = getBatch()
	n := len(b.vals)
	putBatch(b)
	return n
}

type enc struct{ n int }

var encPool = sync.Pool{New: func() interface{} { return new(enc) }}

// PoolGood finishes with the value before returning it to the pool.
func PoolGood() int {
	e := encPool.Get().(*enc)
	n := e.n
	encPool.Put(e)
	return n
}

// PoolUseAfterPut touches a sync.Pool value after Put.
func PoolUseAfterPut() int {
	e := encPool.Get().(*enc)
	encPool.Put(e)
	return e.n // want "used after release"
}
