// SQL normalization for the plan cache: cursor-sharing-style literal
// auto-parameterization. A statement's shape is its token stream with
// every number, string, and bind-parameter token replaced by a
// kind-distinct marker, so a NOBENCH query hits the same cached plan
// no matter which comparison constants an execution carries.
//
// Not every literal token becomes a bind slot: LIMIT counts, SAMPLE
// percentages, JSON path texts, and positional ORDER BY ordinals are
// consumed by the parser into plain struct fields rather than Literal
// nodes. They are structure — changing one changes the plan, and
// §4.2.1's compile-time field-name hashing needs a path to be a
// constant of the statement — so their texts stay in the cache key
// (appendCacheKey): two statements that differ only in a path are two entries.
// Which literal positions those are is a property of the shape, learnt
// from the parser at the shape's first build (planCache.shapes).

package sqlengine

import "repro/internal/jsondom"

// normalizeSQL lexes sql and returns its literal-insensitive shape,
// the number/string literal tokens in source order, and whether the
// statement is a SELECT (the only cacheable kind).
func normalizeSQL(sql string) (shape string, lits []token, isSelect bool, err error) {
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

// appendCacheKey completes a shape into the plan-cache key of one
// statement, appended to dst: the shape plus the text of every literal
// the plan bakes in (litParam[i] < 0), so only bind-slot literals are
// abstracted away.
func appendCacheKey(dst []byte, shape string, lits []token, litParam []int) []byte {
	dst = append(dst, shape...)
	for i, t := range lits {
		if i < len(litParam) && litParam[i] < 0 {
			dst = append(append(dst, 0), t.text...)
		}
	}
	return dst
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
