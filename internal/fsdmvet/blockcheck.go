// blockcheck: no blocking operation while an engine mutex is held.
// The engine's hot locks (plan cache, prepared statements, IMC column
// maps, store catalogs) guard in-memory state and are expected to be
// held for nanoseconds. A channel operation, an operator pull
// (NextBatch — which in the parallel scan blocks on worker
// channels), a store DML call, or a WaitGroup.Wait inside such a
// critical section stalls every other query on the lock, and with the
// parallel operators in the mix it can deadlock outright: a worker
// waiting for the lock while the lock holder waits for the worker's
// channel.
//
// The lock state is a forward may-dataflow over the CFG: a bit per
// rendered mutex chain ("e.mu", "pc.mu"), set by Lock/RLock, cleared
// by a non-deferred Unlock/RUnlock (a deferred unlock runs at exit and
// keeps the section open to the end — exactly the semantics the
// deferred idiom has at runtime). A blocking node reached with any bit
// possibly set is reported with the chains still held.

package fsdmvet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// BlockCheck flags channel operations, cursor pulls, store DML, and
// WaitGroup waits inside mutex critical sections.
var BlockCheck = &analysis.Analyzer{
	Name: "blockcheck",
	Doc:  "no channel send/receive, NextBatch pull, store DML, or WaitGroup.Wait while a sync mutex is held",
	Run:  runBlockCheck,
}

func runBlockCheck(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				checkFuncBlocking(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkFuncBlocking runs the locks-held dataflow over one function.
func checkFuncBlocking(pass *analysis.Pass, fn ast.Node) {
	cfg := analysis.CFGOf(pass, fn)
	if cfg == nil {
		return
	}
	// enumerate the mutex chains this function locks
	chainID := map[string]int{}
	var chains []string
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			forEachLockOp(pass.TypesInfo, n, func(chain string, locks bool) {
				if _, ok := chainID[chain]; !ok {
					chainID[chain] = len(chains)
					chains = append(chains, chain)
				}
			})
		}
	}
	if len(chains) == 0 {
		return
	}
	transfer := func(state analysis.Bits, n ast.Node) {
		forEachLockOp(pass.TypesInfo, n, func(chain string, locks bool) {
			if locks {
				state.Set(chainID[chain])
			} else {
				state.Clear(chainID[chain])
			}
		})
	}
	ins := cfg.Forward(len(chains), analysis.NewBits(len(chains)), func(b *analysis.Block, in analysis.Bits) analysis.Bits {
		for _, n := range b.Nodes {
			transfer(in, n)
		}
		return in
	})
	// select comm statements are dispatched by the select head; the
	// head is the one blocking point, so the clause copies stay silent
	comms := selectComms(fn)
	for _, b := range cfg.Blocks {
		state := ins[b].Clone()
		for _, n := range b.Nodes {
			if !comms[n] {
				if op := blockingOp(pass.TypesInfo, n); op != "" && !state.Empty() {
					pass.Reportf(n.Pos(), "%s while %s is held: blocking under an engine lock stalls every queued locker and can deadlock the parallel operators (move it outside the critical section)", op, heldChains(state, chains))
				}
			}
			transfer(state, n)
		}
	}
}

// forEachLockOp invokes f for every non-deferred sync mutex
// Lock/RLock (locks=true) and Unlock/RUnlock (locks=false) inside n,
// in source order.
func forEachLockOp(info *types.Info, n ast.Node, f func(chain string, locks bool)) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return // a deferred unlock runs at exit; it never closes the section here
	}
	analysis.InspectNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		chain, name := syncMutexCall(info, call)
		if chain == "" {
			return true
		}
		switch name {
		case "Lock", "RLock":
			f(chain, true)
		case "Unlock", "RUnlock":
			f(chain, false)
		}
		return true
	})
}

// syncMutexCall matches a call to a sync.Mutex/sync.RWMutex method,
// returning the rendered receiver chain and method name.
func syncMutexCall(info *types.Info, call *ast.CallExpr) (chain, name string) {
	sel := selectorCall(call)
	if sel == nil {
		return "", ""
	}
	fn, ok := callee(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	_, rname, _ := baseTypeName(sig.Recv().Type())
	if rname != "Mutex" && rname != "RWMutex" {
		return "", ""
	}
	ref := refString(sel.X)
	if ref == "" {
		return "", ""
	}
	return ref, sel.Sel.Name
}

// blockingOp classifies a simple node as a blocking operation,
// returning a short description or "".
func blockingOp(info *types.Info, n ast.Node) string {
	switch t := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "" // has a default clause: non-blocking poll
			}
		}
		return "select without default"
	case *ast.RangeStmt:
		if tv, ok := info.Types[t.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel"
			}
		}
		return ""
	}
	// receives and blocking calls anywhere inside the node
	op := ""
	analysis.InspectNode(n, func(m ast.Node) bool {
		if op != "" {
			return false
		}
		switch t := m.(type) {
		case *ast.UnaryExpr:
			if t.Op.String() == "<-" {
				op = "channel receive"
				return false
			}
		case *ast.CallExpr:
			if _, name := syncWGCall(info, t); name == "Wait" {
				op = "WaitGroup.Wait"
				return false
			}
			if name := blockingCallName(info, t); name != "" {
				op = name
				return false
			}
		}
		return true
	})
	return op
}

// blockingCallName matches method calls that pull from an operator
// (NextBatch) or run store DML, both of which can block or re-enter
// the engine.
func blockingCallName(info *types.Info, call *ast.CallExpr) string {
	fn, ok := callee(info, call).(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch fn.Name() {
	case "NextBatch":
		return "operator " + fn.Name() + " pull"
	case "Insert", "Update", "Delete":
		if pkg, _, _ := baseTypeName(sig.Recv().Type()); pkg != nil &&
			strings.HasSuffix(pkg.Path(), "internal/store") {
			return "store " + fn.Name()
		}
	}
	return ""
}

// heldChains renders the currently-held lock set, sorted for stable
// messages.
func heldChains(state analysis.Bits, chains []string) string {
	var held []string
	for i, c := range chains {
		if state.Get(i) {
			held = append(held, c)
		}
	}
	sort.Strings(held)
	return strings.Join(held, ", ")
}

// selectComms collects the comm statements of every select in fn;
// their clause-block copies must not be re-reported.
func selectComms(fn ast.Node) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != fn {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					out[cc.Comm] = true
				}
			}
		}
		return true
	})
	return out
}
