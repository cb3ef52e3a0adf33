package minilang

import (
	"fmt"
	"strconv"

	"skope/internal/guard"
)

// Parse lexes and parses minilang source under the default guard limits;
// name labels diagnostics.
func Parse(name, src string) (*Program, error) {
	return ParseWithLimits(name, src, nil)
}

// ParseWithLimits parses under explicit guard limits (nil means
// guard.Default): source size, token count, expression nesting, and
// statement-block nesting are all capped, returning guard.ErrLimit errors
// instead of unbounded recursion or allocation.
//
// It runs the same recovering pass as ParseLenient and returns that
// pass's first failure, so it rejects every input for which ParseLenient
// reports a diagnostic, warnings included.
func ParseWithLimits(name, src string, lim *guard.Limits) (*Program, error) {
	p := &mparser{name: name, lim: lim.Or()}
	prog := p.parse(src)
	if p.err != nil {
		return nil, p.err
	}
	return prog, nil
}

type mparser struct {
	name string
	toks []Token
	i    int
	lim  *guard.Limits
	// exprDepth and nestDepth track live parser recursion against the
	// guard limits (anchored at parseExpr/parseUnary and parseBlock).
	exprDepth, nestDepth int
	diags                []guard.Diagnostic
	err                  error // the first failure, which strict parsing returns
}

// fail records one failure. The diagnostic carries the error text plus
// note, which says how the pass recovered; the error itself, kept for the
// first failure only, is what strict parsing returns.
func (p *mparser) fail(sev guard.Severity, code string, err error, note string) {
	if p.err == nil {
		p.err = err
	}
	p.diags = append(p.diags, guard.Diagnostic{
		Severity: sev, Stage: "parse", Code: code, Message: err.Error() + note,
	})
}

func (p *mparser) enterExpr() error {
	p.exprDepth++
	if err := p.lim.CheckExprDepth(p.exprDepth); err != nil {
		return fmt.Errorf("%s:%s: %w", p.name, p.cur().Pos, err)
	}
	return nil
}

func (p *mparser) enterBlock() error {
	p.nestDepth++
	if err := p.lim.CheckNestDepth(p.nestDepth); err != nil {
		return fmt.Errorf("%s:%s: %w", p.name, p.cur().Pos, err)
	}
	return nil
}

func (p *mparser) cur() Token  { return p.toks[p.i] }
func (p *mparser) next() Token { t := p.toks[p.i]; p.i++; return t }

func (p *mparser) errf(t Token, format string, args ...any) error {
	return fmt.Errorf("%s:%s: %s", p.name, t.Pos, fmt.Sprintf(format, args...))
}

func (p *mparser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && t.Text == text
}

func (p *mparser) atPunct(text string) bool { return p.at(TokPunct, text) }
func (p *mparser) atKw(text string) bool    { return p.at(TokKeyword, text) }

func (p *mparser) expectPunct(text string) (Token, error) {
	if !p.atPunct(text) {
		return Token{}, p.errf(p.cur(), "expected %q, found %q", text, p.cur().Text)
	}
	return p.next(), nil
}

func (p *mparser) expectKw(text string) (Token, error) {
	if !p.atKw(text) {
		return Token{}, p.errf(p.cur(), "expected keyword %q, found %q", text, p.cur().Text)
	}
	return p.next(), nil
}

func (p *mparser) expectIdent() (Token, error) {
	if p.cur().Kind != TokIdent {
		return Token{}, p.errf(p.cur(), "expected identifier, found %q", p.cur().Text)
	}
	return p.next(), nil
}

// parse is the one parse pass behind ParseWithLimits and ParseLenient.
// It records every failure through fail, drops the failed statement or
// declaration and resynchronizes, so it always returns a program.
func (p *mparser) parse(src string) *Program {
	prog := &Program{
		Source:       p.name,
		GlobalByName: make(map[string]*GlobalDecl),
		FuncByName:   make(map[string]*FuncDecl),
	}
	if err := p.lim.CheckSource(len(src)); err != nil {
		p.fail(guard.SevError, "limit", fmt.Errorf("%s: %w", p.name, err), "")
		return prog
	}
	toks, err := Lex(p.name, src)
	if err != nil {
		// The lexer fails only on malformed characters/literals; without a
		// token stream there is nothing to recover from.
		p.fail(guard.SevError, "lex", err, "")
		return prog
	}
	if err := p.lim.CheckTokens(len(toks)); err != nil {
		p.fail(guard.SevError, "limit", fmt.Errorf("%s: %w", p.name, err), "")
		return prog
	}
	p.toks = toks
	for p.cur().Kind != TokEOF {
		switch {
		case p.atKw("global"):
			g, err := p.parseGlobal()
			if err != nil {
				p.recoverTop(err)
				continue
			}
			if _, dup := prog.GlobalByName[g.Name]; dup {
				p.fail(guard.SevError, "duplicate", p.errf(p.cur(), "duplicate global %q", g.Name), "")
				continue
			}
			prog.Globals = append(prog.Globals, g)
			prog.GlobalByName[g.Name] = g
		case p.atKw("func"):
			f, err := p.parseFunc()
			if err != nil {
				p.recoverTop(err)
				continue
			}
			if _, dup := prog.FuncByName[f.Name]; dup {
				p.fail(guard.SevError, "duplicate", p.errf(p.cur(), "duplicate function %q", f.Name), "")
				continue
			}
			prog.Funcs = append(prog.Funcs, f)
			prog.FuncByName[f.Name] = f
		default:
			p.recoverTop(p.errf(p.cur(), "expected global or func at top level, found %q", p.cur().Text))
		}
	}
	if len(prog.Funcs) == 0 {
		p.fail(guard.SevError, "no-functions", fmt.Errorf("%s: no functions", p.name), "")
	}
	return prog
}

func (p *mparser) parseGlobal() (*GlobalDecl, error) {
	kw, _ := p.expectKw("global")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	g := &GlobalDecl{Name: name.Text, Type: typ, Pos: kw.Pos}
	if p.atPunct("=") {
		p.next()
		g.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if typ.IsArray() {
			return nil, p.errf(name, "array global %q cannot have an initializer", g.Name)
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *mparser) parseType() (Type, error) {
	var t Type
	for p.atPunct("[") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return t, err
		}
		t.Extents = append(t.Extents, e)
		if _, err := p.expectPunct("]"); err != nil {
			return t, err
		}
	}
	base, err := p.parseBaseType()
	if err != nil {
		return t, err
	}
	t.Base = base
	return t, nil
}

func (p *mparser) parseBaseType() (BaseType, error) {
	switch {
	case p.atKw("int"):
		p.next()
		return TypeInt, nil
	case p.atKw("float"):
		p.next()
		return TypeFloat, nil
	}
	return TypeVoid, p.errf(p.cur(), "expected type, found %q", p.cur().Text)
}

func (p *mparser) parseFunc() (*FuncDecl, error) {
	kw, _ := p.expectKw("func")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f := &FuncDecl{Name: name.Text, Pos: kw.Pos, Ret: TypeVoid}
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for !p.atPunct(")") {
		if len(f.Params) > 0 {
			if _, err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		pn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, Param{Name: pn.Text, Base: base})
	}
	p.next() // ")"
	if p.atPunct(":") {
		p.next()
		f.Ret, err = p.parseBaseType()
		if err != nil {
			return nil, err
		}
	}
	f.Body, err = p.parseBlock()
	return f, err
}

func (p *mparser) parseBlock() (*Block, error) {
	if err := p.enterBlock(); err != nil {
		return nil, err
	}
	defer func() { p.nestDepth-- }()
	open, err := p.expectPunct("{")
	if err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.atPunct("}") {
		if p.cur().Kind == TokEOF {
			p.fail(guard.SevWarn, "unclosed-block", p.errf(open, "unterminated block"), " (implicitly closed)")
			return b, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			// Drop the statement, resynchronize at the next ';' or the
			// block's closing '}', and keep parsing.
			p.fail(guard.SevError, "syntax", err, "")
			p.resyncStmt()
			continue
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // "}"
	return b, nil
}

func (p *mparser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atKw("var"):
		return p.parseVarDecl()
	case p.atKw("for"):
		return p.parseFor()
	case p.atKw("while"):
		return p.parseWhile()
	case p.atKw("if"):
		return p.parseIf()
	case p.atKw("return"):
		p.next()
		r := &Return{stmtBase: stmtBase{Pos: t.Pos}}
		if !p.atPunct(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return r, nil
	case p.atKw("break"):
		p.next()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase{Pos: t.Pos}}, nil
	case p.atKw("continue"):
		p.next()
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase{Pos: t.Pos}}, nil
	default:
		// Expression or assignment.
		lhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.atPunct("=") {
			p.next()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			switch lhs.(type) {
			case *VarRef, *Index:
			default:
				return nil, p.errf(t, "left side of assignment is not assignable")
			}
			if _, err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			return &Assign{stmtBase: stmtBase{Pos: t.Pos}, LHS: lhs, RHS: rhs}, nil
		}
		if _, err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{stmtBase: stmtBase{Pos: t.Pos}, X: lhs}, nil
	}
}

func (p *mparser) parseVarDecl() (Stmt, error) {
	kw, _ := p.expectKw("var")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	if p.atPunct("[") {
		return nil, p.errf(kw, "arrays must be declared global (local %q)", name.Text)
	}
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	d := &VarDecl{stmtBase: stmtBase{Pos: kw.Pos}, Name: name.Text, Base: base}
	if p.atPunct("=") {
		p.next()
		d.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *mparser) parseFor() (Stmt, error) {
	kw, _ := p.expectKw("for")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(".."); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	f := &For{stmtBase: stmtBase{Pos: kw.Pos}, Var: name.Text, From: from, To: to}
	if p.atKw("step") {
		p.next()
		f.Step, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.atPunct("@") {
		p.next()
		ann, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if ann.Text != "vec" {
			return nil, p.errf(ann, "unknown loop annotation @%s (only @vec)", ann.Text)
		}
		f.Vec = true
	}
	f.Body, err = p.parseBlock()
	return f, err
}

func (p *mparser) parseWhile() (Stmt, error) {
	kw, _ := p.expectKw("while")
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	w := &While{stmtBase: stmtBase{Pos: kw.Pos}, Cond: cond}
	w.Body, err = p.parseBlock()
	return w, err
}

func (p *mparser) parseIf() (Stmt, error) {
	// "else if" chains recurse here without passing through parseBlock,
	// so the chain counts against the nesting limit as well.
	if err := p.enterBlock(); err != nil {
		return nil, err
	}
	defer func() { p.nestDepth-- }()
	kw, _ := p.expectKw("if")
	if _, err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	s := &If{stmtBase: stmtBase{Pos: kw.Pos}, Cond: cond}
	s.Then, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	if p.atKw("else") {
		p.next()
		if p.atKw("if") {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = &Block{Stmts: []Stmt{nested}}
		} else {
			s.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Expression parsing with C-like precedence:
// or > and > comparison > additive > multiplicative > unary > postfix.
// parseExpr and parseUnary are the recursion anchors for the expression
// nesting limit: parenthesized/indexed/call subexpressions re-enter via
// parseExpr, unary chains recurse in parseUnary.
func (p *mparser) parseExpr() (Expr, error) {
	if err := p.enterExpr(); err != nil {
		return nil, err
	}
	defer func() { p.exprDepth-- }()
	return p.parseOr()
}

func (p *mparser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atPunct("||") {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: pos}, Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *mparser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.atPunct("&&") {
		pos := p.next().Pos
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: pos}, Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]BinOp{
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe, "==": OpEq, "!=": OpNe,
}

func (p *mparser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokPunct {
		if op, ok := cmpOps[p.cur().Text]; ok {
			pos := p.next().Pos
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{exprBase: exprBase{Pos: pos}, Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *mparser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atPunct("+") || p.atPunct("-") {
		op := OpAdd
		if p.cur().Text == "-" {
			op = OpSub
		}
		pos := p.next().Pos
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: pos}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *mparser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("*") || p.atPunct("/") || p.atPunct("%") {
		var op BinOp
		switch p.cur().Text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpRem
		}
		pos := p.next().Pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{Pos: pos}, Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *mparser) parseUnary() (Expr, error) {
	if p.atPunct("-") || p.atPunct("!") {
		if err := p.enterExpr(); err != nil {
			return nil, err
		}
		defer func() { p.exprDepth-- }()
		t := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{exprBase: exprBase{Pos: t.Pos}, Op: t.Text, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *mparser) parsePostfix() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad integer literal")
		}
		return &IntLit{exprBase: exprBase{Pos: t.Pos, T: TypeInt}, Val: v}, nil
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf(t, "bad float literal")
		}
		return &FloatLit{exprBase: exprBase{Pos: t.Pos, T: TypeFloat}, Val: v}, nil
	case TokIdent:
		p.next()
		switch {
		case p.atPunct("("):
			p.next()
			call := &Call{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
			for !p.atPunct(")") {
				if len(call.Args) > 0 {
					if _, err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			p.next() // ")"
			return call, nil
		case p.atPunct("["):
			idx := &Index{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}
			for p.atPunct("[") {
				p.next()
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				idx.Indices = append(idx.Indices, e)
				if _, err := p.expectPunct("]"); err != nil {
					return nil, err
				}
			}
			return idx, nil
		default:
			return &VarRef{exprBase: exprBase{Pos: t.Pos}, Name: t.Text}, nil
		}
	case TokPunct:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf(t, "unexpected token %q in expression", t.Text)
}
