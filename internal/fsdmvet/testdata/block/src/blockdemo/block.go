// Package blockdemo exercises blockcheck: channel operations, operator
// pulls, store DML, and WaitGroup joins inside mutex critical
// sections, with the non-blocking select-with-default and
// unlock-then-operate shapes staying silent.
package blockdemo

import "sync"

type engine struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	wg  sync.WaitGroup
	out chan int
	n   int
}

type operator struct{ n int }

func (o *operator) NextBatch() (int, bool) { return 0, false }

// GoodOutside releases before the channel work.
func (e *engine) GoodOutside(v int) {
	e.mu.Lock()
	e.n = v
	e.mu.Unlock()
	e.out <- v
}

// GoodNoLock never locks; nothing to report.
func (e *engine) GoodNoLock(v int) {
	e.out <- v
}

// SendUnderLock sends while the mutex is held (the deferred unlock
// keeps the section open to the end).
func (e *engine) SendUnderLock(v int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out <- v // want "channel send while e.mu is held"
}

// RecvUnderRLock receives under a read lock.
func (e *engine) RecvUnderRLock() int {
	e.rw.RLock()
	defer e.rw.RUnlock()
	return <-e.out // want "channel receive while e.rw is held"
}

// PullUnderLock pulls an operator inside the section.
func (e *engine) PullUnderLock(o *operator) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, _ := o.NextBatch() // want "operator NextBatch pull while e.mu is held"
	return v
}

// WaitUnderLock joins a fleet while holding the lock — the classic
// worker-waits-for-lock, holder-waits-for-worker deadlock.
func (e *engine) WaitUnderLock() {
	e.mu.Lock()
	e.wg.Wait() // want "WaitGroup.Wait while e.mu is held"
	e.mu.Unlock()
}

// SelectUnderLock parks on a defaultless select.
func (e *engine) SelectUnderLock() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	select { // want "select without default while e.mu is held"
	case v := <-e.out:
		return v
	}
}

// PollUnderLock has a default clause: a non-blocking poll, clean.
func (e *engine) PollUnderLock() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case v := <-e.out:
		return v
	default:
		return 0
	}
}

// RangeUnderLock drains a channel inside the section.
func (e *engine) RangeUnderLock() int {
	s := 0
	e.mu.Lock()
	defer e.mu.Unlock()
	for v := range e.out { // want "range over channel while e.mu is held"
		s += v
	}
	return s
}

// BranchUnlock releases on one arm only: the send may still run under
// the lock.
func (e *engine) BranchUnlock(c bool, v int) {
	e.mu.Lock()
	if c {
		e.mu.Unlock()
	}
	e.out <- v // want "channel send while e.mu is held"
	if !c {
		e.mu.Unlock()
	}
}
