// UPDATE and DELETE execution. Both read through the SELECT planner
// (dmlRead), the attached in-memory store included, and only then
// write; the table tells the store of every written row, so it stays
// attached and consistent. Search indexes stay attached too — the
// persistent DataGuide is additive by design (§3.4) and tombstoned row
// ids simply disappear from posting results.

package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/jsondom"
	"repro/internal/metrics"
	"repro/internal/store"
)

// table resolves a statement's target table in the catalog.
func (e *Engine) table(name string) (*store.Table, error) {
	if tab, ok := e.cat.Table(strings.ToLower(name)); ok {
		return tab, nil
	}
	return nil, fmt.Errorf("sql: no such table %q", name)
}

func (e *Engine) runDelete(ctx context.Context, t *DeleteStmt, params []jsondom.Value, tr *metrics.Trace) (*Result, error) {
	tab, err := e.table(t.Table)
	if err != nil {
		return nil, err
	}
	rows, err := e.dmlRead(ctx, tab, t.Where, nil, params, tr)
	if err != nil {
		return nil, err
	}
	ticks := 0
	for _, r := range rows {
		ticks++
		if ticks%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tab.Delete(rowIDOf(r))
	}
	return affected(len(rows)), nil
}

func (e *Engine) runUpdate(ctx context.Context, t *UpdateStmt, params []jsondom.Value, tr *metrics.Trace) (*Result, error) {
	tab, err := e.table(t.Table)
	if err != nil {
		return nil, err
	}
	// resolve target columns to stored positions
	cols := tab.Columns()
	targets := make([]int, len(t.Sets))
	for i, set := range t.Sets {
		pos, ok := tab.ColumnPos(set.Column)
		if !ok || cols[pos].Virtual {
			return nil, fmt.Errorf("sql: no such stored column %q in %q", set.Column, t.Table)
		}
		targets[i] = pos
	}
	rows, err := e.dmlRead(ctx, tab, t.Where, t.Sets, params, tr)
	if err != nil {
		return nil, err
	}
	ticks := 0
	for _, r := range rows {
		ticks++
		if ticks%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rid := rowIDOf(r)
		old, ok := tab.Get(rid)
		if !ok {
			continue
		}
		newRow := append(store.Row(nil), old...)
		for i, pos := range targets {
			newRow[pos] = r[1+i]
		}
		if err := tab.Update(rid, newRow); err != nil {
			return nil, err
		}
	}
	return affected(len(rows)), nil
}

// dmlRead is the read half of UPDATE and DELETE: it plans
// `select ROWID, <set expressions> from tab where <where>` through the
// SELECT planner — the same access-path choice, ExecCtx, memory budget
// and counters as a query, with virtual columns computed only where the
// statement references them — and drains it, so every matching row id
// and every new value is in hand before the first write. The
// statement's expressions are copied first: planning rewrites its AST
// in place, and a prepared UPDATE re-dispatches one parsed statement on
// every run.
func (e *Engine) dmlRead(ctx context.Context, tab *store.Table, where Expr, sets []SetClause, params []jsondom.Value, tr *metrics.Trace) ([][]jsondom.Value, error) {
	stmt := &SelectStmt{
		Items: []SelectItem{{Expr: &ColRef{Name: rowIDColumn}}},
		From:  []FromItem{&TableRef{Name: tab.Name}},
		Where: copyExpr(where),
		Limit: -1,
	}
	for _, set := range sets {
		// the planner would answer an aggregate here with a group-by
		if err := noAggOrWindow(set.Expr, "SET"); err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, SelectItem{Expr: copyExpr(set.Expr)})
	}
	res, _, _, err := e.planAndRun(ctx, stmt, params, false, tr)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// rowIDOf reads the row id dmlRead put in a result row's first column.
func rowIDOf(r []jsondom.Value) int {
	rid, _ := r[0].(jsondom.Number).Int64()
	return int(rid)
}

func affected(n int) *Result {
	return &Result{Columns: []string{"rows_affected"},
		Rows: [][]jsondom.Value{{jsondom.NumberFromInt(int64(n))}}}
}
