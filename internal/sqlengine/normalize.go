// SQL normalization for the plan cache: cursor-sharing-style literal
// auto-parameterization. The cache key is the token stream with every
// number, string, and bind-parameter token replaced by a kind-distinct
// marker, so the eleven NOBENCH query shapes hit the same cached plan
// no matter which constants each execution carries.
//
// Not every literal token becomes a bind slot: LIMIT counts, SAMPLE
// percentages, JSON path texts, and positional ORDER BY ordinals are
// consumed by the parser into plain struct fields rather than Literal
// nodes, and changing them changes the plan. Their texts are recorded
// in the entry's fixed list and compared on every lookup; a mismatch
// is a miss that replaces the entry.

package sqlengine

import "repro/internal/jsondom"

// normalizeSQL lexes sql and returns the literal-insensitive cache
// key, the number/string literal tokens in source order, and whether
// the statement is a SELECT (the only cacheable kind).
func normalizeSQL(sql string) (key string, lits []token, isSelect bool, err error) {
	toks, err := lex(sql)
	if err != nil {
		return "", nil, false, err
	}
	var b []byte
	for i, t := range toks {
		if t.kind == tkEOF {
			break
		}
		if i > 0 {
			b = append(b, ' ')
		}
		switch t.kind {
		case tkNumber:
			b = append(b, '#', '?')
			lits = append(lits, t)
		case tkString:
			b = append(b, '\'', '?')
			lits = append(lits, t)
		case tkParam:
			b = append(b, '?')
		case tkQuotedIdent:
			b = append(b, '"')
			b = append(b, t.text...)
			b = append(b, '"')
		default:
			b = append(b, t.text...)
		}
	}
	isSelect = len(toks) > 0 && toks[0].kind == tkIdent && toks[0].text == "select"
	return string(b), lits, isSelect, nil
}

// litValue converts a literal token to the same jsondom value the
// parser would have produced for it.
func litValue(t token) (jsondom.Value, error) {
	if t.kind == tkNumber {
		return jsondom.N(t.text)
	}
	return jsondom.String(t.text), nil
}

// collectParamLiterals walks the statement and returns, keyed by
// source token offset, every Literal that literal auto-
// parameterization may replace with a bind slot.
func collectParamLiterals(stmt *SelectStmt) map[int]*Literal {
	byOff := make(map[int]*Literal)
	walkSelect(stmt, true, func(x Expr) bool {
		if l, ok := x.(*Literal); ok && l.Off > 0 {
			byOff[l.Off] = l
		}
		return true
	})
	return byOff
}
