package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"skope/internal/guard"
)

// Parse parses a C-like expression string into an Expr, under the default
// guard limits (source size and nesting depth).
//
// Grammar (by descending precedence):
//
//	primary  := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')' | '-' primary | '!' primary
//	power    := primary ('^' primary)*            (right associative)
//	term     := power (('*'|'/'|'%') power)*
//	arith    := term (('+'|'-') term)*
//	cmp      := arith (('<'|'<='|'>'|'>='|'=='|'!=') arith)?
//	and      := cmp ('&&' cmp)*
//	or       := and ('||' and)*
//	expr     := or ('?' expr ':' expr)?
func Parse(src string) (Expr, error) {
	return ParseWithLimits(src, nil)
}

// ParseWithLimits parses src under explicit guard limits (nil means
// guard.Default). Nesting beyond MaxExprDepth and sources beyond
// MaxSourceBytes are rejected with guard.ErrLimit errors instead of
// recursing toward a stack overflow.
func ParseWithLimits(src string, lim *guard.Limits) (Expr, error) {
	if err := lim.CheckSource(len(src)); err != nil {
		return nil, fmt.Errorf("expr: %w", err)
	}
	p := &parser{src: src, maxDepth: lim.Or().MaxExprDepth}
	p.next()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("expr: unexpected trailing input %q at offset %d", p.tok.text, p.tok.pos)
	}
	return e, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokNumber
	tokIdent
	tokOp // single- or multi-char operator / punctuation
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src      string
	off      int
	tok      token
	depth    int // current recursion depth, counted at parseExpr/parsePrimary
	maxDepth int
}

// enter bumps the recursion depth, failing once the nesting limit is hit.
// Called on the two recursion anchors of the grammar (parseExpr and
// parsePrimary), so every level of source nesting costs at least one unit.
func (p *parser) enter() error {
	p.depth++
	if p.depth > p.maxDepth {
		return fmt.Errorf("expr: %w", guard.Exceeded("expression depth", p.depth, p.maxDepth))
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) next() {
	for p.off < len(p.src) && unicode.IsSpace(rune(p.src[p.off])) {
		p.off++
	}
	start := p.off
	if p.off >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.off]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		for p.off < len(p.src) && (isDigit(p.src[p.off]) || p.src[p.off] == '.' ||
			p.src[p.off] == 'e' || p.src[p.off] == 'E' ||
			((p.src[p.off] == '+' || p.src[p.off] == '-') && p.off > start &&
				(p.src[p.off-1] == 'e' || p.src[p.off-1] == 'E'))) {
			p.off++
		}
		p.tok = token{kind: tokNumber, text: p.src[start:p.off], pos: start}
	case isIdentStart(c):
		for p.off < len(p.src) && isIdentPart(p.src[p.off]) {
			p.off++
		}
		p.tok = token{kind: tokIdent, text: p.src[start:p.off], pos: start}
	default:
		// Multi-char operators first.
		two := ""
		if p.off+1 < len(p.src) {
			two = p.src[p.off : p.off+2]
		}
		switch two {
		case "<=", ">=", "==", "!=", "&&", "||":
			p.off += 2
			p.tok = token{kind: tokOp, text: two, pos: start}
			return
		}
		p.off++
		p.tok = token{kind: tokOp, text: string(c), pos: start}
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return c == '_' || c == '.' || unicode.IsLetter(rune(c)) || isDigit(c) }

func (p *parser) expect(text string) error {
	if p.tok.kind != tokOp || p.tok.text != text {
		return fmt.Errorf("expr: expected %q, found %q at offset %d", text, p.tok.text, p.tok.pos)
	}
	p.next()
	return nil
}

func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && p.tok.text == "?" {
		p.next()
		thenE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		elseE, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Cond{If: cond, Then: thenE, Else: elseE}, nil
	}
	return cond, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: Or, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: And, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]Op{
	"<": Lt, "<=": Le, ">": Gt, ">=": Ge, "==": Eq, "!=": Ne,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		if op, ok := cmpOps[p.tok.text]; ok {
			p.next()
			r, err := p.parseArith()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseArith() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := Add
		if p.tok.text == "-" {
			op = Sub
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/" || p.tok.text == "%") {
		var op Op
		switch p.tok.text {
		case "*":
			op = Mul
		case "/":
			op = Div
		case "%":
			op = Mod
		}
		p.next()
		r, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePower() (Expr, error) {
	// Anchored like parseExpr/parsePrimary: '^' right-recurses here
	// without passing through either, so chains must be counted too.
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && p.tok.text == "^" {
		p.next()
		exp, err := p.parsePower() // right associative
		if err != nil {
			return nil, err
		}
		return &Binary{Op: Pow, L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.tok.kind == tokNumber:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad number %q at offset %d", p.tok.text, p.tok.pos)
		}
		p.next()
		return Const(v), nil
	case p.tok.kind == tokIdent:
		name := p.tok.text
		p.next()
		if p.tok.kind == tokOp && p.tok.text == "(" {
			p.next()
			var args []Expr
			if !(p.tok.kind == tokOp && p.tok.text == ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.tok.kind == tokOp && p.tok.text == "," {
						p.next()
						continue
					}
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			b, ok := builtins[name]
			if !ok {
				return nil, fmt.Errorf("expr: unknown function %q at offset %d", name, p.tok.pos)
			}
			if len(args) != b.arity {
				return nil, fmt.Errorf("expr: %s expects %d args, got %d", name, b.arity, len(args))
			}
			return &Call{Name: name, Args: args}, nil
		}
		return Var(name), nil
	case p.tok.kind == tokOp && p.tok.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.kind == tokOp && p.tok.text == "-":
		p.next()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if c, ok := x.(Const); ok {
			return Const(-float64(c)), nil
		}
		return &Neg{X: x}, nil
	case p.tok.kind == tokOp && p.tok.text == "!":
		p.next()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: Eq, L: x, R: Const(0)}, nil
	}
	return nil, fmt.Errorf("expr: unexpected token %q at offset %d", p.tok.text, p.tok.pos)
}

// FormatEnv renders an Env compactly for diagnostics, e.g. "{m=4, n=100}".
func FormatEnv(env Env) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range env.Names() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", name, Const(env[name]))
	}
	b.WriteByte('}')
	return b.String()
}
