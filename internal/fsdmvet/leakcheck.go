// leakcheck: worker goroutines must be registered before launch and
// joined on every path out. The partitioned parallel scan sets the
// contract (parallel.go's parallelScanOp, its one in-tree owner): a
// `go` statement is only safe when a sync.WaitGroup.Add dominates the
// launch — registration-before-launch is what makes the later Wait
// sound — and the group must then be waited on every path out of the
// owning function (local fleets) or out of some method of the owning
// struct, conventionally Close (fleets stored in fields). A goroutine
// that escapes both rules outlives the query: it leaks on early
// Close (LIMIT), on error returns, and on cancellation, holding its
// scan clone and channel buffers alive forever.
//
// Flow machinery (internal/analysis): node dominance answers
// "does an Add precede the launch on every path", and a barrier
// reachability walk answers "can the launch reach an exit without
// crossing a Wait". One exception is built in: a goroutine whose own
// body waits on a WaitGroup is a self-draining watcher (the
// wg.Wait+close(out) pattern) and needs no registration.

package fsdmvet

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// LeakCheck flags goroutine launches without a dominating
// sync.WaitGroup.Add registration and registered fleets that some
// path can abandon without a Wait.
var LeakCheck = &analysis.Analyzer{
	Name: "leakcheck",
	Doc:  "every go statement is dominated by a WaitGroup registration, and every fleet is drained on all paths out",
	Run:  runLeakCheck,
}

func runLeakCheck(pass *analysis.Pass) error {
	pkg := newPkgIndex(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				checkFuncLeaks(pass, pkg, n)
			}
			return true
		})
	}
	return nil
}

// checkFuncLeaks applies both rules to one function body.
func checkFuncLeaks(pass *analysis.Pass, pkg *pkgIndex, fn ast.Node) {
	cfg := analysis.CFGOf(pass, fn)
	if cfg == nil {
		return
	}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				continue
			}
			if goBodyWaits(pass, pkg, g) {
				continue // self-draining watcher: exits when the group drains
			}
			wgChain := dominatingAdd(pass, cfg, g)
			if wgChain == "" {
				pass.Reportf(g.Pos(), "go statement launches an unregistered worker: no sync.WaitGroup.Add dominates the launch (register the worker on a fleet WaitGroup before go, or wait inside the goroutine)")
				continue
			}
			checkDrained(pass, pkg, cfg, g, wgChain)
		}
	}
}

// dominatingAdd returns the rendered WaitGroup chain ("fleet.wg",
// "p.wg") of an Add call that dominates the go statement, or "".
func dominatingAdd(pass *analysis.Pass, cfg *analysis.CFG, g *ast.GoStmt) string {
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			chain := addCallChain(pass.TypesInfo, n)
			if chain == "" {
				continue
			}
			if cfg.NodeDominates(n, g) {
				return chain
			}
		}
	}
	return ""
}

// addCallChain extracts the receiver chain of a sync.WaitGroup.Add
// call inside node n, or "".
func addCallChain(info *types.Info, n ast.Node) string {
	chain := ""
	analysis.InspectNode(n, func(m ast.Node) bool {
		if chain != "" {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if recv, name := syncWGCall(info, call); name == "Add" {
				chain = recv
				return false
			}
		}
		return true
	})
	return chain
}

// syncWGCall matches a call to a sync.WaitGroup method, returning the
// rendered receiver chain and the method name.
func syncWGCall(info *types.Info, call *ast.CallExpr) (recv, name string) {
	sel := selectorCall(call)
	if sel == nil {
		return "", ""
	}
	obj, ok := callee(info, call).(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	if _, rname, _ := baseTypeName(sig.Recv().Type()); rname != "WaitGroup" {
		return "", ""
	}
	return refString(sel.X), sel.Sel.Name
}

// goBodyWaits reports whether the launched goroutine's body waits on
// a WaitGroup itself — the watcher pattern `go func() { wg.Wait();
// close(out) }()`, which terminates when the fleet drains and so
// needs no registration of its own.
func goBodyWaits(pass *analysis.Pass, pkg *pkgIndex, g *ast.GoStmt) bool {
	body := goCalleeBody(pass, pkg, g)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, name := syncWGCall(pass.TypesInfo, call); name == "Wait" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// goCalleeBody resolves the body the go statement runs: an inline
// function literal, or a same-package function/method declaration.
func goCalleeBody(pass *analysis.Pass, pkg *pkgIndex, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn, ok := callee(pass.TypesInfo, g.Call).(*types.Func); ok {
		if decl := pkg.declOf[fn]; decl != nil {
			return decl.Body
		}
	}
	return nil
}

// checkDrained verifies the fleet behind wgChain is joined on every
// path out: directly in this function for locally-rooted groups, or
// in a method of the owning type when the group lives in a struct
// field.
func checkDrained(pass *analysis.Pass, pkg *pkgIndex, cfg *analysis.CFG, g *ast.GoStmt, wgChain string) {
	root := chainRoot(wgChain)
	rootVar := lookupLocal(pass, cfg.Fn, root)
	if rootVar != nil && !isReceiverName(cfg.Fn, root) && !escapes(pass, cfg, rootVar) {
		// local fleet: this function owns the join
		if !drainedFrom(pass, pkg, cfg, cfg.BlockOf(g), wgChain) {
			pass.Reportf(g.Pos(), "worker registered on %s can leak: a path from the launch reaches an exit without %s.Wait() (join the fleet on every path out, or defer the drain)", wgChain, wgChain)
		}
		return
	}
	// field-rooted (receiver field or escaping local): the owning
	// type's Close/close must drain on every path out
	ownerType := rootType(pass, cfg.Fn, root, rootVar)
	if ownerType == nil {
		pass.Reportf(g.Pos(), "worker registered on %s has no resolvable owner: cannot verify the fleet is drained (restructure so the WaitGroup is a local or a named struct field)", wgChain)
		return
	}
	rel := strings.TrimPrefix(wgChain, root) // ".fleet.wg", ".wg"
	if m := pkg.drainingMethod(pass, ownerType, rel); m == "" {
		pass.Reportf(g.Pos(), "fleet %s of %s is never drained on all paths out of any of its methods: give the type a Close that calls Wait unconditionally", wgChain, ownerType.Obj().Name())
	}
}

// drainedFrom reports whether every path from the launch block to
// Exit crosses a drain of wgChain (a Wait on the chain, a call to a
// same-package draining function on a chain prefix, or a deferred
// drain, which runs on every exit).
func drainedFrom(pass *analysis.Pass, pkg *pkgIndex, cfg *analysis.CFG, from *analysis.Block, wgChain string) bool {
	if from == nil {
		return false
	}
	for _, d := range cfg.Defers {
		if nodeDrains(pass, pkg, d.Call, wgChain) {
			return true
		}
	}
	barrier := func(b *analysis.Block) bool {
		for _, n := range b.Nodes {
			drains := false
			analysis.InspectNode(n, func(m ast.Node) bool {
				if drains {
					return false
				}
				if call, ok := m.(*ast.CallExpr); ok && nodeDrains(pass, pkg, call, wgChain) {
					drains = true
					return false
				}
				return true
			})
			if drains {
				return true
			}
		}
		return false
	}
	if barrier(from) {
		// the drain lives in the launch block itself, after the loop
		// re-enters it — treat as covered; same-block ordering would
		// need statement-level path splitting for marginal benefit
		return true
	}
	return !cfg.ReachableWithout(from, cfg.Exit, barrier)
}

// nodeDrains reports whether a call joins the fleet behind wgChain:
// `<chain>.Wait()`, or `<prefix>.f(...)` where f is a same-package
// function whose body (transitively) waits on a WaitGroup and
// <prefix> is a segment prefix of the chain.
func nodeDrains(pass *analysis.Pass, pkg *pkgIndex, call *ast.CallExpr, wgChain string) bool {
	if recv, name := syncWGCall(pass.TypesInfo, call); name == "Wait" {
		return recv == wgChain
	}
	fn, ok := callee(pass.TypesInfo, call).(*types.Func)
	if !ok || !pkg.drainers[fn] {
		return false
	}
	sel := selectorCall(call)
	if sel == nil {
		// plain function call draining a captured group
		return true
	}
	recv := refString(sel.X)
	return recv != "" && isChainPrefix(recv, wgChain)
}

// isChainPrefix reports whether p is a whole-segment prefix of chain
// ("pj.fleet" prefixes "pj.fleet.wg" but "pj.fl" does not).
func isChainPrefix(p, chain string) bool {
	return chain == p || strings.HasPrefix(chain, p+".")
}

// isReceiverName reports whether name is fn's method receiver. A
// receiver-rooted fleet pre-exists the function, so its drain lives in
// the owning type's methods, not here.
func isReceiverName(fn ast.Node, name string) bool {
	fd, ok := fn.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	for _, n := range fd.Recv.List[0].Names {
		if n.Name == name {
			return true
		}
	}
	return false
}

// chainRoot returns the first segment of a rendered chain.
func chainRoot(chain string) string {
	if i := strings.IndexByte(chain, '.'); i >= 0 {
		return chain[:i]
	}
	return chain
}

// lookupLocal resolves a name to a local variable (or parameter,
// including the receiver) of fn, nil when the name is not a simple
// local.
func lookupLocal(pass *analysis.Pass, fn ast.Node, name string) *types.Var {
	var found *types.Var
	ast.Inspect(fn, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok && !v.IsField() {
				found = v
				return false
			}
		}
		return true
	})
	return found
}

// escapes reports whether the local fleet root leaves the function:
// assigned into a field or index, stored in a composite literal that
// is itself assigned outward, or returned. Passing it to workers as a
// call argument is not an escape — that is the whole point of a
// fleet.
func escapes(pass *analysis.Pass, cfg *analysis.CFG, v *types.Var) bool {
	esc := false
	ast.Inspect(cfg.Fn, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range t.Lhs {
				if _, isSel := unparen(lhs).(*ast.SelectorExpr); !isSel {
					if _, isIdx := unparen(lhs).(*ast.IndexExpr); !isIdx {
						continue
					}
				}
				for _, rhs := range t.Rhs {
					if mentionsVar(pass.TypesInfo, rhs, v) {
						esc = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range t.Results {
				if mentionsVar(pass.TypesInfo, r, v) {
					esc = true
				}
			}
		}
		return true
	})
	return esc
}

// mentionsVar reports whether expression e references v.
func mentionsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
			found = true
			return false
		}
		return true
	})
	return found
}

// rootType resolves the named struct type owning the fleet: the
// receiver's type when root is the method receiver, or the local's
// pointee type for an escaping local.
func rootType(pass *analysis.Pass, fn ast.Node, root string, rootVar *types.Var) *types.Named {
	var t types.Type
	if rootVar != nil {
		t = rootVar.Type()
	} else if fd, ok := fn.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) > 0 {
		for _, name := range fd.Recv.List[0].Names {
			if name.Name == root {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
					t = v.Type()
				}
			}
		}
	}
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ---------------------------------------------------------------------------
// package-level index

// pkgIndex caches per-package facts every leakcheck function check
// shares: declaration lookup and the transitive set of draining
// functions (bodies that reach a WaitGroup.Wait).
type pkgIndex struct {
	declOf   map[*types.Func]*ast.FuncDecl
	drainers map[*types.Func]bool
}

// pkgIndexKey keys the index in the pass's shared state.
const pkgIndexKey = "leakcheck.pkgIndex"

// newPkgIndex builds (or re-uses) the package index.
func newPkgIndex(pass *analysis.Pass) *pkgIndex {
	type cacheEntry struct {
		pkg *types.Package
		idx *pkgIndex
	}
	if e, ok := pass.Shared()[pkgIndexKey].(*cacheEntry); ok && e.pkg == pass.Pkg {
		return e.idx
	}
	idx := &pkgIndex{
		declOf:   map[*types.Func]*ast.FuncDecl{},
		drainers: map[*types.Func]bool{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				idx.declOf[fn] = fd
			}
		}
	}
	// fixed point: a function drains when it calls WaitGroup.Wait or
	// another draining function
	for changed := true; changed; {
		changed = false
		for fn, fd := range idx.declOf {
			if idx.drainers[fn] || fd.Body == nil {
				continue
			}
			drains := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if drains {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, name := syncWGCall(pass.TypesInfo, call); name == "Wait" {
					drains = true
					return false
				}
				if cf, ok := callee(pass.TypesInfo, call).(*types.Func); ok && idx.drainers[cf] {
					drains = true
					return false
				}
				return true
			})
			if drains {
				idx.drainers[fn] = true
				changed = true
			}
		}
	}
	pass.Shared()[pkgIndexKey] = &cacheEntry{pkg: pass.Pkg, idx: idx}
	return idx
}

// drainingMethod finds a method of named whose body drains the fleet
// at relative chain rel (".wg", ".fleet.wg") on every path from entry
// to exit; it returns the method name, or "".
func (idx *pkgIndex) drainingMethod(pass *analysis.Pass, named *types.Named, rel string) string {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		fd := idx.declOf[m]
		if fd == nil || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		recvName := ""
		if len(fd.Recv.List[0].Names) > 0 {
			recvName = fd.Recv.List[0].Names[0].Name
		}
		if recvName == "" {
			continue
		}
		chain := recvName + rel
		cfg := analysis.CFGOf(pass, fd)
		if cfg == nil {
			continue
		}
		if drainsAllPaths(pass, idx, cfg, chain) {
			return m.Name()
		}
	}
	return ""
}

// drainsAllPaths reports whether every entry→exit path of cfg crosses
// a drain of chain (deferred drains count: they run at every exit).
func drainsAllPaths(pass *analysis.Pass, idx *pkgIndex, cfg *analysis.CFG, chain string) bool {
	for _, d := range cfg.Defers {
		if nodeDrains(pass, idx, d.Call, chain) {
			return true
		}
	}
	barrier := func(b *analysis.Block) bool {
		for _, n := range b.Nodes {
			drains := false
			analysis.InspectNode(n, func(m ast.Node) bool {
				if drains {
					return false
				}
				if call, ok := m.(*ast.CallExpr); ok && nodeDrains(pass, idx, call, chain) {
					drains = true
					return false
				}
				return true
			})
			if drains {
				return true
			}
		}
		return false
	}
	if barrier(cfg.Entry) {
		return true
	}
	return !cfg.ReachableWithout(cfg.Entry, cfg.Exit, barrier)
}
