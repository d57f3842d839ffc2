// Package pool exercises escapecheck's statement-order rules: pooled
// scratch values must not be used after their release call, released
// struct fields must be cleared by the next statement, and a node slice
// from EvalState.Eval is pooled like any other checkout.
package pool

// State stands in for a pooled expansion state.
type State struct{ n int }

// Def stands in for the pool owner (sqljson.TableDef).
type Def struct{}

// AcquireState checks a state out of the pool.
func (d *Def) AcquireState() *State { return &State{} }

// ReleaseState returns a state to the pool.
func (d *Def) ReleaseState(s *State) {}

// EvalState stands in for the pathengine arena.
type EvalState struct{}

// Eval returns an arena-owned node slice.
func (st *EvalState) Eval() []int { return nil }

// PutNodes returns a node slice to the arena.
func (st *EvalState) PutNodes(ns []int) {}

// Batch stands in for the pooled batch header.
type Batch struct{ rows int }

// Len mirrors the real batch accessor.
func (b *Batch) Len() int { return b.rows }

func putBatch(b *Batch) {}

// op carries pooled references through fields, like jsonTableOp.
type op struct {
	def *Def
	exp *State
	out *Batch
}

// closeGood releases and immediately clears both pooled fields.
func (o *op) closeGood() {
	o.def.ReleaseState(o.exp)
	o.exp = nil
	putBatch(o.out)
	o.out = nil
}

// closeBadNoClear releases a field but leaves the stale handle set.
func (o *op) closeBadNoClear() {
	o.def.ReleaseState(o.exp) // want "not cleared after release"
	putBatch(o.out)           // want "not cleared after release"
}

// closeBadUse touches the state after handing it back.
func (o *op) closeBadUse() {
	o.def.ReleaseState(o.exp) // want "not cleared after release"
	_ = o.exp.n               // want "used after release"
}

// localGood releases a local and returns; locals need no clearing.
func localGood(d *Def) {
	s := d.AcquireState()
	d.ReleaseState(s)
}

// localBadUse uses a local after release.
func localBadUse(d *Def) int {
	s := d.AcquireState()
	d.ReleaseState(s)
	return s.n // want "used after release"
}

// localReacquire reassigns before the next use, which is fine.
func localReacquire(d *Def) int {
	s := d.AcquireState()
	d.ReleaseState(s)
	s = d.AcquireState()
	n := s.n
	d.ReleaseState(s)
	return n
}

// nodesBadUse iterates a node slice already returned to the arena.
func nodesBadUse(st *EvalState) int {
	ns := st.Eval()
	st.PutNodes(ns)
	return len(ns) // want "used after release"
}

// nodesGood returns the slice only after the last use.
func nodesGood(st *EvalState) int {
	ns := st.Eval()
	n := len(ns)
	st.PutNodes(ns)
	return n
}

// batchErrPath mirrors the NextBatch error paths: releasing a local
// and returning is legal without clearing.
func batchErrPath(b *Batch, fail bool) (*Batch, error) {
	if fail {
		putBatch(b)
		return nil, nil
	}
	return b, nil
}

// deferRelease is exempt: a deferred release runs at function exit,
// after every use in the body.
func deferRelease(d *Def) int {
	s := d.AcquireState()
	defer d.ReleaseState(s)
	return s.n
}

// suppressGood shows the escape hatch for deliberate violations.
func suppressGood(o *op) {
	//fsdmvet:ignore escapecheck stats flush reads released state's final counters
	o.def.ReleaseState(o.exp)
	o.exp = nil
}
