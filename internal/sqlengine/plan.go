// Plan/execute split. planSelectStmt produces a preparedPlan: an
// immutable operator-template tree that owns only shareable state —
// expression trees, compiled JSON paths (pathengine.Compiled is
// race-safe; see its doc comment), bound schemas, and the
// aggregate/window column maps. Everything mutable — OpStats, buffers,
// per-row evaluation contexts, cancellation tick counters — lives in
// fresh operator instances cloned per execution by instantiate, so one
// cached plan can serve any number of concurrent executions.
//
// Bind-parameter values never leak into the template: operands that
// depend on parameters are kept as vecFilterSpec / preSpecs and
// resolved by each operator's Open against the execution's planEnv.

package sqlengine

import (
	"fmt"

	"repro/internal/jsondom"
)

// preparedPlan is an immutable, shareable compiled SELECT: the
// operator template tree plus the output column names and the plan's
// aggregate/window column maps (populated during planning, read-only
// afterwards).
type preparedPlan struct {
	root  rowSource
	names []string
	env   *planEnv // params is nil; aggCols/winCols are the plan's maps
}

// planSelectStmt compiles a SELECT into a reusable plan. The statement
// AST becomes part of the plan (planning rewrites it in place), so
// callers must not reuse it for anything else.
func (e *Engine) planSelectStmt(stmt *SelectStmt) (*preparedPlan, error) {
	env := newPlanEnv(nil)
	src, names, err := e.planSelectPushed(stmt, env, nil)
	if err != nil {
		return nil, err
	}
	return &preparedPlan{root: src, names: names, env: env}, nil
}

// instantiate derives a fresh executable operator tree bound to the
// given parameters. The template is never executed itself.
func (p *preparedPlan) instantiate(params []jsondom.Value) rowSource {
	env := &planEnv{params: params, aggCols: p.env.aggCols, winCols: p.env.winCols}
	return clonePlanTree(p.root, env)
}

// planCloner is implemented by every operator: clonePlan returns a
// fresh instance sharing the template state and binding the
// execution's planEnv.
type planCloner interface {
	clonePlan(env *planEnv) rowSource
}

func clonePlanTree(src rowSource, env *planEnv) rowSource {
	c, ok := src.(planCloner)
	if !ok {
		// every planner-built operator implements planCloner; reaching
		// here is a bug in a newly added operator
		panic(fmt.Sprintf("sqlengine: operator %T is not clonable", src))
	}
	return c.clonePlan(env)
}

func (s *tableScan) clonePlan(env *planEnv) rowSource {
	return &tableScan{
		planEstimate: s.planEstimate,
		tab:          s.tab, alias: s.alias, sch: s.sch, needVC: s.needVC,
		cols: s.cols, sub: s.sub, vecSpecs: s.vecSpecs,
		rowIDsFn: s.rowIDsFn, rowIDsVia: s.rowIDsVia, rowIDsPred: s.rowIDsPred,
		lo: s.lo, hi: s.hi, samplePct: s.samplePct, env: env,
	}
}

func (f *filterOp) clonePlan(env *planEnv) rowSource {
	return &filterOp{planEstimate: f.planEstimate, in: clonePlanTree(f.in, env), pred: f.pred, env: env}
}

func (p *projectOp) clonePlan(env *planEnv) rowSource {
	return &projectOp{planEstimate: p.planEstimate, in: clonePlanTree(p.in, env), exprs: p.exprs, sch: p.sch, env: env}
}

func (l *limitOp) clonePlan(env *planEnv) rowSource {
	return &limitOp{planEstimate: l.planEstimate, in: clonePlanTree(l.in, env), limit: l.limit}
}

func (j *jsonTableOp) clonePlan(env *planEnv) rowSource {
	var left rowSource
	if j.left != nil {
		left = clonePlanTree(j.left, env)
	}
	return &jsonTableOp{planEstimate: j.planEstimate, left: left, ref: j.ref, sch: j.sch, env: env,
		preFilters: j.preFilters, preSpecs: j.preSpecs}
}

func (c *crossJoin) clonePlan(env *planEnv) rowSource {
	return &crossJoin{planEstimate: c.planEstimate, left: clonePlanTree(c.left, env),
		right: clonePlanTree(c.right, env), sch: c.sch}
}

func (h *hashJoin) clonePlan(env *planEnv) rowSource {
	return &hashJoin{
		planEstimate: h.planEstimate,
		left:         clonePlanTree(h.left, env), right: clonePlanTree(h.right, env),
		leftKeys: h.leftKeys, rightKeys: h.rightKeys, residual: h.residual,
		leftOuter: h.leftOuter, env: env, sch: h.sch, buildLeft: h.buildLeft,
	}
}

// clonePlan shares sch and the planEnv aggregate column positions
// recorded by newGroupAggOp at plan time; it must not run the
// constructor again, which would re-append synthetic columns.
func (g *groupAggOp) clonePlan(env *planEnv) rowSource {
	return &groupAggOp{planEstimate: g.planEstimate, in: clonePlanTree(g.in, env), groupBy: g.groupBy,
		aggs: g.aggs, env: env, implicitGroup: g.implicitGroup, sch: g.sch}
}

func (w *windowOp) clonePlan(env *planEnv) rowSource {
	return &windowOp{planEstimate: w.planEstimate, in: clonePlanTree(w.in, env), funcs: w.funcs, env: env, sch: w.sch}
}

func (s *sortOp) clonePlan(env *planEnv) rowSource {
	return &sortOp{planEstimate: s.planEstimate, in: clonePlanTree(s.in, env), items: s.items, env: env}
}

func (w *aliasWrap) clonePlan(env *planEnv) rowSource {
	return &aliasWrap{planEstimate: w.planEstimate, in: clonePlanTree(w.in, env), alias: w.alias, sch: w.sch}
}

func (p *parallelScanOp) clonePlan(env *planEnv) rowSource {
	scan, _ := p.template.clonePlan(env).(*tableScan)
	return &parallelScanOp{planEstimate: p.planEstimate, template: scan, filter: p.filter, env: env, degree: p.degree}
}
