// Recursive-descent parser for the SQL subset.

package sqlengine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jsondom"
	"repro/internal/pathengine"
	"repro/internal/sqljson"
)

type parser struct {
	sql    string
	toks   []token
	pos    int
	params int
}

// ParseStatement parses one SQL statement.
func ParseStatement(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{sql: sql, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tkOp, ";")
	if !p.at(tkEOF, "") {
		return nil, p.errf("unexpected trailing input")
	}
	return stmt, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

// atKw reports whether the current token is the given keyword.
func (p *parser) atKw(kw string) bool { return p.at(tkIdent, kw) }

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool { return p.accept(tkIdent, kw) }

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, p.errf("expected %q", text)
	}
	return p.next(), nil
}

func (p *parser) expectKw(kw string) error {
	_, err := p.expect(tkIdent, kw)
	return err
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{SQL: p.sql, Offset: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKw("select"):
		return p.parseSelect()
	case p.atKw("explain"):
		return p.parseExplain()
	case p.atKw("create"):
		return p.parseCreate()
	case p.atKw("insert"):
		return p.parseInsert()
	case p.atKw("alter"):
		return p.parseAlter()
	case p.atKw("drop"):
		return p.parseDrop()
	case p.atKw("delete"):
		return p.parseDelete()
	case p.atKw("update"):
		return p.parseUpdate()
	case p.atKw("show"):
		return p.parseShow()
	case p.atKw("stats"):
		p.next()
		return &ShowStatsStmt{}, nil
	}
	return nil, p.errf("expected statement keyword")
}

// parseShow parses SHOW METRICS and SHOW STATS (the bare STATS
// shorthand for the latter is handled in parseStatement).
func (p *parser) parseShow() (Statement, error) {
	if err := p.expectKw("show"); err != nil {
		return nil, err
	}
	if p.acceptKw("metrics") {
		return &ShowMetricsStmt{}, nil
	}
	if p.acceptKw("stats") {
		return &ShowStatsStmt{}, nil
	}
	return nil, p.errf("expected METRICS or STATS after SHOW")
}

// parseExplain parses EXPLAIN [ANALYZE] <select>.
func (p *parser) parseExplain() (Statement, error) {
	if err := p.expectKw("explain"); err != nil {
		return nil, err
	}
	analyze := p.acceptKw("analyze")
	queryText := p.sql[p.cur().pos:]
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Analyze: analyze, Query: q, QueryText: queryText}, nil
}

// ---------------------------------------------------------------------------
// SELECT

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	if p.atKw("distinct") {
		return nil, p.errf("SELECT DISTINCT is not supported")
	}
	stmt := &SelectStmt{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.accept(tkOp, ",") {
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		f, err := p.parseFromElem()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, f)
		if !p.accept(tkOp, ",") {
			break
		}
	}
	if p.acceptKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = items
	}
	if p.acceptKw("limit") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf("bad limit")
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseOrderItems() ([]OrderItem, error) {
	var items []OrderItem
	for {
		var it OrderItem
		if p.at(tkNumber, "") && p.orderTerminatorAt(p.pos+1) {
			// positional reference "order by 1"
			t := p.next()
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 1 {
				return nil, p.errf("bad positional order reference")
			}
			it.Position = n
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it.Expr = e
		}
		if p.acceptKw("desc") {
			it.Desc = true
		} else {
			p.acceptKw("asc")
		}
		items = append(items, it)
		if !p.accept(tkOp, ",") {
			return items, nil
		}
	}
}

// orderTerminatorAt reports whether the token at position i ends an
// ORDER BY item, distinguishing positional "order by 1" from an
// expression like "order by 3 - did".
func (p *parser) orderTerminatorAt(i int) bool {
	t := p.toks[i]
	switch t.kind {
	case tkEOF:
		return true
	case tkOp:
		return t.text == "," || t.text == ")" || t.text == ";"
	case tkIdent:
		return t.text == "asc" || t.text == "desc" || t.text == "limit"
	}
	return false
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tkOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// alias.* ?
	if p.at(tkIdent, "") && p.toks[p.pos+1].kind == tkOp && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tkOp && p.toks[p.pos+2].text == "*" {
		alias := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: alias}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("as") {
		a, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.at(tkIdent, "") && !p.atReserved() {
		item.Alias = p.next().text
	} else if p.at(tkQuotedIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

// reserved words that terminate an implicit alias position
var reserved = map[string]bool{
	"from": true, "where": true, "group": true, "order": true, "having": true,
	"limit": true, "join": true, "left": true, "inner": true, "on": true,
	"and": true, "or": true, "not": true, "as": true, "in": true,
	"like": true, "between": true, "is": true, "null": true, "sample": true,
	"asc": true, "desc": true, "union": true, "values": true, "over": true,
	"columns": true, "nested": true, "path": true, "format": true,
}

func (p *parser) atReserved() bool {
	return p.cur().kind == tkIdent && reserved[p.cur().text]
}

func (p *parser) parseIdent() (string, error) {
	if p.at(tkIdent, "") {
		return p.next().text, nil
	}
	if p.at(tkQuotedIdent, "") {
		return p.next().text, nil
	}
	return "", p.errf("expected identifier")
}

// ---------------------------------------------------------------------------
// FROM

func (p *parser) parseFromElem() (FromItem, error) {
	left, err := p.parseFromPrimary()
	if err != nil {
		return nil, err
	}
	for {
		leftOuter := false
		switch {
		case p.atKw("join"):
			p.next()
		case p.atKw("inner") && p.toks[p.pos+1].text == "join":
			p.next()
			p.next()
		case p.atKw("left"):
			p.next()
			p.acceptKw("outer")
			if err := p.expectKw("join"); err != nil {
				return nil, err
			}
			leftOuter = true
		default:
			return left, nil
		}
		right, err := p.parseFromPrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Left: left, Right: right, On: on, LeftOuter: leftOuter}
	}
}

func (p *parser) parseFromPrimary() (FromItem, error) {
	if p.accept(tkOp, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
		alias := ""
		if p.acceptKw("as") {
			alias, err = p.parseIdent()
			if err != nil {
				return nil, err
			}
		} else if p.at(tkIdent, "") && !p.atReserved() || p.at(tkQuotedIdent, "") {
			alias = p.next().text
		}
		return &SubqueryRef{Query: sub, Alias: alias}, nil
	}
	if p.atKw("json_table") {
		return p.parseJSONTable()
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: name}
	if p.acceptKw("sample") {
		if _, err := p.expect(tkOp, "("); err != nil {
			return nil, err
		}
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		pct, err := strconv.ParseFloat(t.text, 64)
		if err != nil || pct <= 0 || pct > 100 {
			return nil, p.errf("bad sample percentage")
		}
		ref.SamplePct = pct
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("as") {
		a, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.at(tkIdent, "") && !p.atReserved() || p.at(tkQuotedIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// parseJSONTable parses JSON_TABLE(expr [FORMAT JSON], 'rowpath'
// COLUMNS ( columnSpec, ... )) [alias].
func (p *parser) parseJSONTable() (*JSONTableRef, error) {
	p.next() // json_table
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.acceptKw("format") {
		if err := p.expectKw("json"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tkOp, ","); err != nil {
		return nil, err
	}
	rowPathTok, err := p.expect(tkString, "")
	if err != nil {
		return nil, err
	}
	rowPath, err := pathengine.CompileText(rowPathTok.text)
	if err != nil {
		return nil, p.errf("bad row path: %v", err)
	}
	if err := p.expectKw("columns"); err != nil {
		return nil, err
	}
	cols, nested, err := p.parseJTColumns()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	def := &sqljson.TableDef{RowPath: rowPath, Columns: cols, Nested: nested}
	def.Finish()
	ref := &JSONTableRef{Arg: arg, Def: def}
	for _, c := range def.OutputColumns() {
		ref.ColNames = append(ref.ColNames, c.Name)
	}
	if p.acceptKw("as") {
		ref.Alias, err = p.parseIdent()
		if err != nil {
			return nil, err
		}
	} else if p.at(tkIdent, "") && !p.atReserved() || p.at(tkQuotedIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// parseJTColumns parses a COLUMNS list: either a parenthesized list or
// a bare list (Oracle requires parens; we accept both).
func (p *parser) parseJTColumns() ([]sqljson.TableColumn, []sqljson.NestedPath, error) {
	parens := p.accept(tkOp, "(")
	var cols []sqljson.TableColumn
	var nested []sqljson.NestedPath
	for {
		if p.atKw("nested") {
			p.next()
			p.acceptKw("path")
			pathTok, err := p.expect(tkString, "")
			if err != nil {
				return nil, nil, err
			}
			np, err := pathengine.CompileText(pathTok.text)
			if err != nil {
				return nil, nil, p.errf("bad nested path: %v", err)
			}
			if err := p.expectKw("columns"); err != nil {
				return nil, nil, err
			}
			subCols, subNested, err := p.parseJTColumns()
			if err != nil {
				return nil, nil, err
			}
			nested = append(nested, sqljson.NestedPath{Path: np, Columns: subCols, Nested: subNested})
		} else {
			name, err := p.parseIdent()
			if err != nil {
				return nil, nil, err
			}
			rt, _, err := p.parseReturnType()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectKw("path"); err != nil {
				return nil, nil, err
			}
			pathTok, err := p.expect(tkString, "")
			if err != nil {
				return nil, nil, err
			}
			cp, err := pathengine.CompileText(pathTok.text)
			if err != nil {
				return nil, nil, p.errf("bad column path: %v", err)
			}
			cols = append(cols, sqljson.TableColumn{Name: strings.ToLower(name), Type: rt, Path: cp})
		}
		if p.accept(tkOp, ",") {
			continue
		}
		break
	}
	if parens {
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, nil, err
		}
	}
	return cols, nested, nil
}

// parseReturnType parses a SQL type name used in JSON_TABLE columns
// and JSON_VALUE RETURNING: number, varchar2(n), varchar(n), boolean.
func (p *parser) parseReturnType() (sqljson.ReturnType, int, error) {
	name, err := p.parseIdent()
	if err != nil {
		return 0, 0, err
	}
	maxLen := 0
	if p.accept(tkOp, "(") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return 0, 0, err
		}
		maxLen, _ = strconv.Atoi(t.text)
		if _, err := p.expect(tkOp, ")"); err != nil {
			return 0, 0, err
		}
	}
	switch name {
	case "number":
		return sqljson.RetNumber, maxLen, nil
	case "varchar2", "varchar", "clob":
		return sqljson.RetVarchar, maxLen, nil
	case "boolean":
		return sqljson.RetBool, maxLen, nil
	}
	return 0, 0, p.errf("unsupported type %q", name)
}

// ---------------------------------------------------------------------------
// DDL / DML

func (p *parser) parseCreate() (Statement, error) {
	p.next() // create
	replace := false
	if p.acceptKw("or") {
		if err := p.expectKw("replace"); err != nil {
			return nil, err
		}
		replace = true
	}
	switch {
	case p.acceptKw("table"):
		return p.parseCreateTable()
	case p.acceptKw("view"):
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name, Query: q, Replace: replace}, nil
	case p.acceptKw("search"):
		if err := p.expectKw("index"); err != nil {
			return nil, err
		}
		return p.parseCreateSearchIndex()
	}
	return nil, p.errf("expected TABLE, VIEW or SEARCH INDEX")
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		if p.accept(tkOp, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.parseIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	def := ColumnDef{Name: strings.ToLower(name), TypeName: typeName}
	if p.accept(tkOp, "(") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return ColumnDef{}, err
		}
		def.MaxLen, _ = strconv.Atoi(t.text)
		if _, err := p.expect(tkOp, ")"); err != nil {
			return ColumnDef{}, err
		}
	}
	for {
		switch {
		case p.acceptKw("primary"):
			if err := p.expectKw("key"); err != nil {
				return ColumnDef{}, err
			}
			def.PrimaryKey = true
		case p.acceptKw("check"):
			if _, err := p.expect(tkOp, "("); err != nil {
				return ColumnDef{}, err
			}
			if _, err := p.parseIdent(); err != nil {
				return ColumnDef{}, err
			}
			if err := p.expectKw("is"); err != nil {
				return ColumnDef{}, err
			}
			if err := p.expectKw("json"); err != nil {
				return ColumnDef{}, err
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return ColumnDef{}, err
			}
			def.CheckJSON = true
		default:
			return def, nil
		}
	}
}

func (p *parser) parseCreateSearchIndex() (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	col, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	stmt := &CreateSearchIndexStmt{Name: name, Table: table, Column: strings.ToLower(col)}
	if p.acceptKw("parameters") {
		if _, err := p.expect(tkOp, "("); err != nil {
			return nil, err
		}
		t, err := p.expect(tkString, "")
		if err != nil {
			return nil, err
		}
		params := strings.ToLower(t.text)
		if strings.Contains(params, "dataguide only") {
			stmt.DataGuide = true
			stmt.DataGuideOnly = true
		} else if strings.Contains(params, "dataguide on") {
			stmt.DataGuide = true
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // insert
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.accept(tkOp, "(") {
		for {
			c, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, strings.ToLower(c))
			if p.accept(tkOp, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tkOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tkOp, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.accept(tkOp, ",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) parseAlter() (Statement, error) {
	p.next() // alter
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("add"); err != nil {
		return nil, err
	}
	hidden := p.acceptKw("hidden")
	if err := p.expectKw("virtual"); err != nil {
		return nil, err
	}
	if err := p.expectKw("column"); err != nil {
		return nil, err
	}
	col, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AlterTableAddVCStmt{Table: table, Column: strings.ToLower(col), Expr: e, Hidden: hidden}, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // delete
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // update
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Column: strings.ToLower(col), Expr: e})
		if p.accept(tkOp, ",") {
			continue
		}
		break
	}
	if p.acceptKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // drop
	var kind string
	switch {
	case p.acceptKw("table"):
		kind = "table"
	case p.acceptKw("view"):
		kind = "view"
	case p.acceptKw("index"):
		kind = "index"
	default:
		return nil, p.errf("expected TABLE, VIEW or INDEX")
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Kind: kind, Name: name}, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("and") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "not", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tkOp, "="), p.at(tkOp, "!="), p.at(tkOp, "<>"),
			p.at(tkOp, "<"), p.at(tkOp, "<="), p.at(tkOp, ">"), p.at(tkOp, ">="):
			op := p.next().text
			if op == "<>" {
				op = "!="
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: op, L: l, R: r}
		case p.atKw("is"):
			p.next()
			not := p.acceptKw("not")
			if err := p.expectKw("null"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		case p.atKw("in"):
			p.next()
			in, err := p.parseInList(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case p.atKw("like"):
			p.next()
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{X: l, Pattern: pat}
		case p.atKw("between"):
			p.next()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi}
		case p.atKw("not"):
			// x NOT IN / NOT LIKE / NOT BETWEEN
			save := p.pos
			p.next()
			switch {
			case p.acceptKw("in"):
				in, err := p.parseInList(l, true)
				if err != nil {
					return nil, err
				}
				l = in
			case p.acceptKw("like"):
				pat, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &LikeExpr{X: l, Pattern: pat, Not: true}
			case p.acceptKw("between"):
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("and"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: true}
			default:
				p.pos = save
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseInList(x Expr, not bool) (Expr, error) {
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.accept(tkOp, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return &InExpr{X: x, List: list, Not: not}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tkOp, "+"), p.at(tkOp, "-"), p.at(tkOp, "||"):
			op := p.next().text
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tkOp, "*"), p.at(tkOp, "/"):
			op := p.next().text
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tkOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", X: x}, nil
	}
	p.accept(tkOp, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.next()
		n, err := jsondom.N(t.text)
		if err != nil {
			return nil, p.errf("bad number literal")
		}
		return &Literal{Val: n, Off: t.pos}, nil
	case tkString:
		p.next()
		return &Literal{Val: jsondom.String(t.text), Off: t.pos}, nil
	case tkParam:
		p.next()
		p.params++
		return &Param{Index: p.params - 1}, nil
	case tkQuotedIdent:
		return p.parseIdentExpr()
	case tkIdent:
		switch t.text {
		case "null":
			p.next()
			return &Literal{Val: jsondom.Null{}, Off: -1}, nil
		case "true":
			p.next()
			return &Literal{Val: jsondom.Bool(true), Off: -1}, nil
		case "false":
			p.next()
			return &Literal{Val: jsondom.Bool(false), Off: -1}, nil
		case "json_value":
			return p.parseJSONValue()
		case "json_exists":
			return p.parseJSONExists()
		case "json_query":
			return p.parseJSONQuery()
		case "json_textcontains":
			return p.parseJSONTextContains()
		case "oson":
			p.next()
			if _, err := p.expect(tkOp, "("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
			return &OSONExpr{Arg: arg}, nil
		}
		return p.parseIdentExpr()
	case tkOp:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("expected expression")
}

// parseIdentExpr handles column references (a, a.b) and function calls
// f(args) [OVER (...)].
func (p *parser) parseIdentExpr() (Expr, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if p.accept(tkOp, ".") {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ColRef{Table: name, Name: strings.ToLower(col)}, nil
	}
	if p.accept(tkOp, "(") {
		fc := &FuncCall{Name: strings.ToLower(name)}
		if p.accept(tkOp, "*") {
			fc.Star = true
		} else if !p.at(tkOp, ")") {
			if p.atKw("distinct") {
				return nil, p.errf("%s(DISTINCT ...) is not supported", strings.ToUpper(name))
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if p.accept(tkOp, ",") {
					continue
				}
				break
			}
		}
		if _, err := p.expect(tkOp, ")"); err != nil {
			return nil, err
		}
		if p.acceptKw("over") {
			if _, err := p.expect(tkOp, "("); err != nil {
				return nil, err
			}
			if err := p.expectKw("order"); err != nil {
				return nil, err
			}
			if err := p.expectKw("by"); err != nil {
				return nil, err
			}
			items, err := p.parseOrderItems()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tkOp, ")"); err != nil {
				return nil, err
			}
			return &WindowFunc{Name: fc.Name, Args: fc.Args, OrderBy: items}, nil
		}
		return fc, nil
	}
	return &ColRef{Name: strings.ToLower(name)}, nil
}

func (p *parser) parseJSONValue() (Expr, error) {
	p.next()
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ","); err != nil {
		return nil, err
	}
	pt, err := p.expect(tkString, "")
	if err != nil {
		return nil, err
	}
	c, err := pathengine.CompileText(pt.text)
	if err != nil {
		return nil, p.errf("bad path: %v", err)
	}
	ret := sqljson.RetAny
	if p.acceptKw("returning") {
		ret, _, err = p.parseReturnType()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return &JSONValueExpr{Arg: arg, PathText: pt.text, Returning: ret, Compiled: c}, nil
}

func (p *parser) parseJSONExists() (Expr, error) {
	p.next()
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ","); err != nil {
		return nil, err
	}
	pt, err := p.expect(tkString, "")
	if err != nil {
		return nil, err
	}
	c, err := pathengine.CompileText(pt.text)
	if err != nil {
		return nil, p.errf("bad path: %v", err)
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return &JSONExistsExpr{Arg: arg, PathText: pt.text, Compiled: c}, nil
}

func (p *parser) parseJSONQuery() (Expr, error) {
	p.next()
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ","); err != nil {
		return nil, err
	}
	pt, err := p.expect(tkString, "")
	if err != nil {
		return nil, err
	}
	c, err := pathengine.CompileText(pt.text)
	if err != nil {
		return nil, p.errf("bad path: %v", err)
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return &JSONQueryExpr{Arg: arg, PathText: pt.text, Compiled: c}, nil
}

func (p *parser) parseJSONTextContains() (Expr, error) {
	p.next()
	if _, err := p.expect(tkOp, "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ","); err != nil {
		return nil, err
	}
	pt, err := p.expect(tkString, "")
	if err != nil {
		return nil, err
	}
	c, err := pathengine.CompileText(pt.text)
	if err != nil {
		return nil, p.errf("bad path: %v", err)
	}
	if _, err := p.expect(tkOp, ","); err != nil {
		return nil, err
	}
	kw, err := p.expect(tkString, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, ")"); err != nil {
		return nil, err
	}
	return &JSONTextContainsExpr{Arg: arg, PathText: pt.text, Keyword: kw.text, Compiled: c}, nil
}
