package minilang

import "skope/internal/guard"

// ParseLenient parses minilang source in error-recovering mode. Instead of
// aborting at the first syntax error it drops the offending statement or
// top-level declaration, resynchronizes at the next ';', block boundary,
// or top-level keyword, records one guard.Diagnostic per recovery, and
// returns whatever program structure survived. The returned program is
// always non-nil; an input with no salvageable content yields an empty
// program plus diagnostics.
//
// ParseWithLimits runs the same pass, so on input it accepts ParseLenient
// returns a structurally identical program and zero diagnostics.
//
// Each "parse/syntax" diagnostic corresponds to exactly one dropped
// statement or declaration, which is how the pipeline derives its parse
// confidence (kept / (kept + dropped)).
func ParseLenient(name, src string, lim *guard.Limits) (*Program, []guard.Diagnostic) {
	p := &mparser{name: name, lim: lim.Or()}
	prog := p.parse(src)
	return prog, p.diags
}

// recoverTop records a dropped top-level declaration and skips ahead to
// the next top-level keyword (brace-aware, so a keyword inside a stray
// block does not resynchronize too early).
func (p *mparser) recoverTop(err error) {
	p.fail(guard.SevError, "syntax", err, "")
	depth := 0
	// Always make progress, even when already positioned at a keyword.
	if p.cur().Kind == TokEOF {
		return
	}
	if p.atPunct("{") {
		depth++
	}
	p.next()
	for {
		switch {
		case p.cur().Kind == TokEOF:
			return
		case depth == 0 && (p.atKw("func") || p.atKw("global")):
			return
		case p.atPunct("{"):
			depth++
		case p.atPunct("}"):
			if depth > 0 {
				depth--
			}
		}
		p.next()
	}
}

// resyncStmt skips tokens after a failed statement: past the next ';' at
// the current brace depth, or up to (not past) the enclosing block's '}'.
func (p *mparser) resyncStmt() {
	depth := 0
	for {
		switch {
		case p.cur().Kind == TokEOF:
			return
		case p.atPunct("{"):
			depth++
		case p.atPunct("}"):
			if depth == 0 {
				return // leave for parseBlock to close
			}
			depth--
		case p.atPunct(";") && depth == 0:
			p.next()
			return
		}
		p.next()
	}
}

// StmtCount returns the number of statements in the program plus one per
// declaration — the denominator of the lenient parse-confidence score.
func StmtCount(prog *Program) int {
	n := len(prog.Globals)
	for _, f := range prog.Funcs {
		n++
		n += blockStmtCount(f.Body)
	}
	return n
}

func blockStmtCount(b *Block) int {
	if b == nil {
		return 0
	}
	n := 0
	for _, s := range b.Stmts {
		n++
		switch t := s.(type) {
		case *For:
			n += blockStmtCount(t.Body)
		case *While:
			n += blockStmtCount(t.Body)
		case *If:
			n += blockStmtCount(t.Then)
			n += blockStmtCount(t.Else)
		}
	}
	return n
}
