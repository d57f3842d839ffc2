// EXPLAIN [ANALYZE]: renders the operator tree of a SELECT plan. With
// ANALYZE the plan first runs through drainSource — the same loop
// Query executes it with — under a stats-collecting ExecCtx, so every
// line carries the operator's rows-out, the batches they came in, and
// cumulative wall time (children included, as is conventional for
// EXPLAIN ANALYZE output).

package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/jsondom"
)

func (e *Engine) runExplain(ctx context.Context, t *ExplainStmt, params []jsondom.Value) (*Result, error) {
	plan, err := e.planSelectStmt(t.Query)
	if err != nil {
		return nil, err
	}
	src := plan.instantiate(params)
	if t.Analyze {
		if _, _, _, err := e.drainSource(ctx, src, nil, true, nil); err != nil {
			return nil, err
		}
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range renderPlan(src, t.Analyze) {
		res.Rows = append(res.Rows, []jsondom.Value{jsondom.String(line)})
	}
	if status := e.planCacheStatus(t.QueryText); status != "" {
		res.Rows = append(res.Rows, []jsondom.Value{jsondom.String("plan cache: " + status)})
	}
	return res, nil
}

// planCacheStatus probes (without counters or recency updates) how
// the plan cache would treat the explained query text: "hit" when a
// valid cached plan exists, "stale" when a cached plan was
// invalidated, "miss" when none is cached, "not cacheable" when the
// text cannot be auto-parameterized, "disabled" when the cache is off.
// An empty string means there is no query text to probe (EXPLAIN of a
// programmatically built statement).
func (e *Engine) planCacheStatus(queryText string) string {
	if queryText == "" {
		return ""
	}
	if e.plans.capacity() == 0 {
		return "disabled"
	}
	shape, lits, isSelect, err := normalizeSQL(queryText)
	if err != nil || !isSelect {
		return "not cacheable"
	}
	ent := e.plans.find(shape, lits, false)
	switch {
	case ent == nil:
		return "miss"
	case ent.gen != e.planGen.Load() || ent.opts != e.plannerSnapshot():
		return "stale"
	case ent.statsFP != planStatsFP(ent.plan.root):
		return "stale"
	}
	return "hit"
}

// renderPlan walks the operator tree depth-first and formats one line
// per operator, indented by depth.
func renderPlan(src rowSource, analyze bool) []string {
	var lines []string
	var walk func(s rowSource, depth int)
	walk = func(s rowSource, depth int) {
		node, ok := s.(opNode)
		if !ok {
			lines = append(lines, strings.Repeat("  ", depth)+fmt.Sprintf("%T", s))
			return
		}
		line := strings.Repeat("  ", depth) + node.opName()
		if en, ok := s.(estNode); ok {
			if n, valid := en.estRows(); valid {
				line += fmt.Sprintf("  (est-rows=%d)", n)
			}
		}
		if analyze {
			if st := node.opStat(); st != nil {
				line += fmt.Sprintf("  (rows=%d batches=%d time=%s)", st.Rows, st.Batches, st.Wall)
			}
		}
		lines = append(lines, line)
		if nn, ok := s.(opNoteNode); ok {
			for _, note := range nn.opNotes() {
				lines = append(lines, strings.Repeat("  ", depth+1)+note)
			}
		}
		if analyze {
			if xn, ok := s.(opExtraNode); ok {
				for _, extra := range xn.opExtraLines() {
					lines = append(lines, strings.Repeat("  ", depth+1)+extra)
				}
			}
		}
		for _, c := range node.opChildren() {
			walk(c, depth+1)
		}
	}
	walk(src, 0)
	return lines
}
