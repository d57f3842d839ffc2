// Package leak exercises leakcheck: registration-before-launch,
// all-paths drains for local fleets, owning-type drains for
// field-rooted fleets, and the self-draining watcher exception.
package leak

import "sync"

// fleet is the stand-in worker group (a WaitGroup plus a stop channel,
// the shape parallel.go's parallelScanOp carries in its fields).
type fleet struct {
	wg    sync.WaitGroup
	abort chan struct{}
}

// close stops and joins the fleet; leakcheck learns it is a drainer.
func (f *fleet) close() {
	close(f.abort)
	f.wg.Wait()
}

func worker(f *fleet, out chan<- int) {
	defer f.wg.Done()
	out <- 1
}

// GoodLocal registers before launching and joins after the loop.
func GoodLocal(n int) {
	f := &fleet{abort: make(chan struct{})}
	out := make(chan int, n)
	f.wg.Add(n)
	for i := 0; i < n; i++ {
		go worker(f, out)
	}
	f.wg.Wait()
}

// GoodDefer joins through a deferred drain, covering every exit.
func GoodDefer(c bool) {
	f := &fleet{abort: make(chan struct{})}
	defer f.wg.Wait()
	f.wg.Add(1)
	go worker(f, make(chan int, 1))
	if c {
		return
	}
}

// GoodCloseHelper joins through the fleet's own close method.
func GoodCloseHelper() {
	f := &fleet{abort: make(chan struct{})}
	f.wg.Add(1)
	go worker(f, make(chan int, 1))
	f.close()
}

// GoodWatcher needs no registration: its body waits on the group, so
// it exits when the fleet drains (the wg.Wait+close(out) pattern).
func GoodWatcher(f *fleet, out chan int) {
	go func() {
		f.wg.Wait()
		close(out)
	}()
}

// Unregistered launches with no dominating Add.
func Unregistered(out chan int) {
	go func() { // want "unregistered worker"
		out <- 1
	}()
}

// AddAfterLaunch registers too late: the Add does not dominate.
func AddAfterLaunch() {
	f := &fleet{abort: make(chan struct{})}
	go worker(f, make(chan int, 1)) // want "unregistered worker"
	f.wg.Add(1)
	f.wg.Wait()
}

// LeakPath joins on the happy path but returns early without a drain.
func LeakPath(c bool) {
	f := &fleet{abort: make(chan struct{})}
	f.wg.Add(1)
	go worker(f, make(chan int, 1)) // want "can leak"
	if c {
		return
	}
	f.wg.Wait()
}

// pool owns a field-rooted fleet and drains it in Close.
type pool struct {
	fleet fleet
}

// Start is clean: Close drains p.fleet unconditionally.
func (p *pool) Start() {
	p.fleet.abort = make(chan struct{})
	p.fleet.wg.Add(1)
	go worker(&p.fleet, make(chan int, 1))
}

// Close joins the fleet on every path.
func (p *pool) Close() {
	p.fleet.close()
}

// leaky owns a fleet but only drains it conditionally — the seeded
// parallel-operator bug: early Close with a nil stop channel abandons
// the workers.
type leaky struct {
	wg   sync.WaitGroup
	stop chan struct{}
}

// Start launches a worker no method reliably joins.
func (l *leaky) Start() {
	l.stop = make(chan struct{})
	l.wg.Add(1)
	go func() { // want "never drained"
		defer l.wg.Done()
		<-l.stop
	}()
}

// Close waits only when stop was initialised: the zero-value path
// exits without the join.
func (l *leaky) Close() {
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
	}
}
