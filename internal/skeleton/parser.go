package skeleton

import (
	"fmt"
	"strings"

	"skope/internal/expr"
	"skope/internal/guard"
)

// Parse parses skeleton source text under the default guard limits.
// source names the input for diagnostics.
func Parse(source, text string) (*Program, error) {
	return ParseWithLimits(source, text, nil)
}

// ParseWithLimits parses under explicit guard limits (nil means
// guard.Default): source size, block-nesting depth, and the nesting of
// every attribute expression are capped, returning guard.ErrLimit errors.
//
// It runs the same recovering pass as ParseLenient and returns that
// pass's first failure, so it rejects every input for which ParseLenient
// reports a diagnostic, warnings included.
func ParseWithLimits(source, text string, lim *guard.Limits) (*Program, error) {
	p := &sparser{source: source, lim: lim.Or()}
	prog := p.parse(text)
	if p.err != nil {
		return nil, p.err
	}
	return prog, nil
}

// ParseLenient parses skeleton text in error-recovering mode. Instead of
// aborting at the first syntax error it resynchronizes at line and block
// boundaries, records one guard.Diagnostic per recovery, and emits a
// partial program in which unparseable statements become explicit *Hole
// nodes (and unparseable attribute expressions become expr.Hole values).
// It never fails: the returned program is always non-nil, and an input
// with no salvageable content yields an empty program plus diagnostics.
//
// ParseWithLimits runs the same pass, so on input it accepts ParseLenient
// returns a structurally identical program and zero diagnostics, and
// lenient mode on intact sources is bit-identical to strict mode.
//
// Recovery rules:
//   - an unparseable statement line becomes a *Hole at its position;
//   - a malformed for/while/if header still opens its block (so the
//     matching "end" stays aligned) with the unknown quantity replaced by
//     an expr.Hole, which the lenient model build resolves to its prior;
//   - a malformed, duplicate, or nested "def" parses its body for
//     alignment but is not registered;
//   - orphan end/elif/else lines are skipped; blocks left open at EOF are
//     closed implicitly;
//   - blocks beyond the nesting cap are dropped wholesale (one
//     diagnostic), keeping the tree bounded.
func ParseLenient(source, text string, lim *guard.Limits) (*Program, []guard.Diagnostic) {
	p := &sparser{source: source, lim: lim.Or()}
	prog := p.parse(text)
	return prog, p.diags
}

// MustParse parses text and panics on error; intended for embedded skeletons
// in workloads, examples, and tests.
func MustParse(source, text string) *Program {
	prog, err := Parse(source, text)
	if err != nil {
		panic(err)
	}
	return prog
}

type sparser struct {
	source string
	lim    *guard.Limits
	diags  []guard.Diagnostic
	err    error // the first failure, which strict parsing returns
}

// ltok is a lexical token within one line.
type ltok struct {
	text     string
	isString bool // was a quoted string literal
}

// fail records one failure. The diagnostic carries the error text plus
// note, which says how the pass recovered; the error itself, kept for the
// first failure only, is what strict parsing returns.
func (p *sparser) fail(sev guard.Severity, code string, err error, note string) {
	if p.err == nil {
		p.err = err
	}
	p.diags = append(p.diags, guard.Diagnostic{
		Severity: sev, Stage: "skeleton", Code: code, Message: err.Error() + note,
	})
}

// errf positions a parse error at line. It formats through fmt.Errorf,
// so a %w verb keeps the cause (such as an expression's guard.ErrLimit)
// visible to errors.Is.
func (p *sparser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: "+format, append([]any{p.source, line}, args...)...)
}

// scanLine tokenizes one source line. Strings are double-quoted without
// escapes; '#' starts a comment.
func (p *sparser) scanLine(lineNo int, s string) ([]ltok, error) {
	var toks []ltok
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == '#':
			return toks, nil
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			if j >= len(s) {
				return nil, p.errf(lineNo, "unterminated string literal")
			}
			toks = append(toks, ltok{text: s[i+1 : j], isString: true})
			i = j + 1
		case isWordChar(c):
			j := i
			for j < len(s) && isWordChar(s[j]) {
				j++
			}
			toks = append(toks, ltok{text: s[i:j]})
			i = j
		default:
			// Multi-char operators used by expressions.
			for _, op := range []string{"==", "!=", "<=", ">=", "&&", "||"} {
				if strings.HasPrefix(s[i:], op) {
					toks = append(toks, ltok{text: op})
					i += len(op)
					goto next
				}
			}
			toks = append(toks, ltok{text: string(c)})
			i++
		next:
		}
	}
	return toks, nil
}

func isWordChar(c byte) bool {
	return c == '_' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// kv is a parsed key=value attribute list plus positional (bare) tokens.
type kvlist struct {
	keys   []string
	vals   map[string]expr.Expr
	strs   map[string]string // string-valued attributes (labels)
	bare   []ltok
	lineNo int
	p      *sparser
}

// parseKV splits toks into key=value attributes. A new attribute starts at
// any top-level (paren depth 0) IDENT followed by a bare "=" that is not
// part of a comparison. Value tokens are rejoined and parsed as expressions,
// so values may contain spaces. Quoted values become string attributes.
func (p *sparser) parseKV(lineNo int, toks []ltok) (*kvlist, error) {
	kv := &kvlist{
		vals: make(map[string]expr.Expr), strs: make(map[string]string),
		lineNo: lineNo, p: p,
	}
	// Find attribute starts.
	depth := 0
	starts := []int{}
	for i := 0; i < len(toks); i++ {
		switch toks[i].text {
		case "(", "[":
			depth++
		case ")", "]":
			depth--
		}
		if depth == 0 && i+1 < len(toks) && !toks[i].isString && isIdentTok(toks[i].text) &&
			toks[i+1].text == "=" && !toks[i+1].isString {
			starts = append(starts, i)
			i++ // skip '='
		}
	}
	if len(starts) == 0 {
		kv.bare = toks
		return kv, nil
	}
	kv.bare = toks[:starts[0]]
	for si, s := range starts {
		end := len(toks)
		if si+1 < len(starts) {
			end = starts[si+1]
		}
		key := toks[s].text
		valToks := toks[s+2 : end]
		if len(valToks) == 0 {
			return nil, p.errf(lineNo, "attribute %q has empty value", key)
		}
		if len(valToks) == 1 && valToks[0].isString {
			kv.strs[key] = valToks[0].text
			kv.keys = append(kv.keys, key)
			continue
		}
		src := joinToks(valToks)
		e, err := expr.ParseWithLimits(src, p.lim)
		if err != nil {
			p.fail(guard.SevError, "expr-hole", p.errf(lineNo, "attribute %q: %w", key, err), "")
			e = expr.Hole{Text: src}
		}
		kv.vals[key] = e
		kv.keys = append(kv.keys, key)
	}
	return kv, nil
}

func isIdentTok(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func joinToks(toks []ltok) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.text
	}
	return strings.Join(parts, " ")
}

// get returns the expression attribute for key, or def if absent.
func (kv *kvlist) get(key string, def expr.Expr) expr.Expr {
	if e, ok := kv.vals[key]; ok {
		return e
	}
	return def
}

func (kv *kvlist) str(key, def string) string {
	if s, ok := kv.strs[key]; ok {
		return s
	}
	return def
}

// check validates that only allowed attribute keys appear.
func (kv *kvlist) check(allowed ...string) error {
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	for _, k := range kv.keys {
		if !ok[k] {
			return kv.p.errf(kv.lineNo, "unknown attribute %q (allowed: %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// frame is a block-nesting stack entry during parsing.
type frame struct {
	kind string // "def", "for", "while", "if"
	line int
	// For defs.
	fn *FuncDef
	// For loops.
	loop  *Loop
	while *While
	// For ifs.
	ifs     *If
	curBody []Stmt // accumulates statements of the open arm/body
	inElse  bool
	// broken marks a def frame whose registration has already failed
	// (malformed header, duplicate, nested def); its body is parsed for
	// alignment but discarded.
	broken bool
}

// parse is the one parse loop behind ParseWithLimits and ParseLenient.
// It records every failure through fail and recovers as ParseLenient
// documents, so it always returns a program.
func (p *sparser) parse(text string) *Program {
	prog := &Program{ByName: make(map[string]*FuncDef), Source: p.source}
	if err := p.lim.CheckSource(len(text)); err != nil {
		p.fail(guard.SevError, "limit", fmt.Errorf("%s: %w", p.source, err), "")
		return prog
	}
	var stack []*frame
	skip := 0 // depth of blocks dropped at the nesting cap

	place := func(s Stmt) bool {
		if len(stack) == 0 {
			return false
		}
		top := stack[len(stack)-1]
		top.curBody = append(top.curBody, s)
		return true
	}
	outside := func(lineNo int) {
		p.fail(guard.SevError, "outside-function", p.errf(lineNo, "statement outside function definition"), "")
	}
	// hole records a syntax failure and, when inside a block, preserves
	// the lost line as a Hole statement.
	hole := func(lineNo int, raw string, err error) {
		p.fail(guard.SevError, "syntax", err, "")
		place(&Hole{stmtBase: stmtBase{Line: lineNo}, Text: strings.TrimSpace(raw)})
	}
	push := func(f *frame) {
		if err := p.lim.CheckNestDepth(len(stack) + 1); err != nil {
			p.fail(guard.SevError, "limit", p.errf(f.line, "%w", err), "; block and its contents dropped")
			skip++
			return
		}
		stack = append(stack, f)
	}
	closeFrame := func(top *frame) {
		var closed Stmt
		switch top.kind {
		case "def":
			if top.broken {
				return
			}
			top.fn.Body = top.curBody
			prog.Funcs = append(prog.Funcs, top.fn)
			prog.ByName[top.fn.Name] = top.fn
			return
		case "for":
			top.loop.Body = top.curBody
			closed = top.loop
		case "while":
			top.while.Body = top.curBody
			closed = top.while
		case "if":
			if top.inElse {
				top.ifs.Else = top.curBody
			} else {
				top.ifs.Cases[len(top.ifs.Cases)-1].Body = top.curBody
			}
			closed = top.ifs
		}
		if !place(closed) {
			outside(closed.Pos())
		}
	}

	lines := strings.Split(text, "\n")
	for ln, raw := range lines {
		lineNo := ln + 1
		toks, err := p.scanLine(lineNo, raw)
		if err != nil {
			if skip == 0 {
				hole(lineNo, raw, err)
			}
			continue
		}
		if len(toks) == 0 {
			continue
		}
		head := toks[0].text
		rest := toks[1:]
		if skip > 0 {
			// Inside a dropped block: track nesting so the matching end
			// re-aligns, discard everything else.
			switch head {
			case "def", "for", "while", "if":
				skip++
			case "end":
				skip--
			}
			continue
		}
		switch head {
		case "def":
			broken := false
			if len(stack) != 0 {
				p.fail(guard.SevError, "nested-def", p.errf(lineNo, "nested function definitions are not allowed"), "")
				broken = true
			}
			fn, err := p.parseDef(lineNo, rest)
			if err != nil {
				p.fail(guard.SevError, "syntax", err, "")
				fn = &FuncDef{Name: fmt.Sprintf("_recovered@L%d", lineNo), Line: lineNo}
				broken = true
			} else if _, dup := prog.ByName[fn.Name]; dup {
				p.fail(guard.SevError, "duplicate-function", p.errf(lineNo, "duplicate function %q", fn.Name), "")
				broken = true
			}
			push(&frame{kind: "def", line: lineNo, fn: fn, broken: broken})

		case "for":
			loop, err := p.parseFor(lineNo, rest)
			if err != nil {
				p.fail(guard.SevError, "syntax", err, "")
				loop = &Loop{
					stmtBase: stmtBase{Line: lineNo},
					Var:      "_", From: expr.Const(0),
					To: expr.Hole{Text: strings.TrimSpace(raw)},
				}
			}
			push(&frame{kind: "for", line: lineNo, loop: loop})

		case "while":
			w, err := p.parseWhile(lineNo, rest)
			if err != nil {
				p.fail(guard.SevError, "syntax", err, "")
				w = &While{
					stmtBase: stmtBase{Line: lineNo},
					Iters:    expr.Hole{Text: strings.TrimSpace(raw)},
				}
			}
			push(&frame{kind: "while", line: lineNo, while: w})

		case "if":
			cond, err := p.parseCond(lineNo, rest)
			if err != nil {
				p.fail(guard.SevError, "syntax", err, "")
				cond = CondSpec{Kind: CondProb, X: expr.Hole{Text: strings.TrimSpace(raw)}}
			}
			ifs := &If{stmtBase: stmtBase{Line: lineNo}}
			ifs.Cases = append(ifs.Cases, IfCase{Cond: cond, Line: lineNo})
			push(&frame{kind: "if", line: lineNo, ifs: ifs})

		case "elif":
			if len(stack) == 0 || stack[len(stack)-1].kind != "if" {
				p.fail(guard.SevError, "orphan-elif", p.errf(lineNo, "elif outside if"), "")
				continue
			}
			top := stack[len(stack)-1]
			if top.inElse {
				p.fail(guard.SevError, "orphan-elif", p.errf(lineNo, "elif after else"), "")
				continue
			}
			cond, err := p.parseCond(lineNo, rest)
			if err != nil {
				p.fail(guard.SevError, "syntax", err, "")
				cond = CondSpec{Kind: CondProb, X: expr.Hole{Text: strings.TrimSpace(raw)}}
			}
			top.ifs.Cases[len(top.ifs.Cases)-1].Body = top.curBody
			top.curBody = nil
			top.ifs.Cases = append(top.ifs.Cases, IfCase{Cond: cond, Line: lineNo})

		case "else":
			if len(stack) == 0 || stack[len(stack)-1].kind != "if" {
				p.fail(guard.SevError, "orphan-else", p.errf(lineNo, "else outside if"), "")
				continue
			}
			top := stack[len(stack)-1]
			if top.inElse {
				p.fail(guard.SevError, "orphan-else", p.errf(lineNo, "duplicate else"), "")
				continue
			}
			if len(rest) != 0 {
				p.fail(guard.SevWarn, "trailing-tokens", p.errf(lineNo, "unexpected tokens after else"), " (ignored)")
			}
			top.ifs.Cases[len(top.ifs.Cases)-1].Body = top.curBody
			top.curBody = nil
			top.inElse = true

		case "end":
			if len(rest) != 0 {
				p.fail(guard.SevWarn, "trailing-tokens", p.errf(lineNo, "unexpected tokens after end"), " (ignored)")
			}
			if len(stack) == 0 {
				p.fail(guard.SevWarn, "orphan-end", p.errf(lineNo, "end without open block"), " (ignored)")
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closeFrame(top)

		case "comp", "comm", "lib", "call", "set", "var", "return", "break", "continue":
			var s Stmt
			var err error
			switch head {
			case "comp":
				s, err = p.parseComp(lineNo, rest)
			case "comm":
				s, err = p.parseComm(lineNo, rest)
			case "lib":
				s, err = p.parseLib(lineNo, rest)
			case "call":
				s, err = p.parseCall(lineNo, rest)
			case "set":
				s, err = p.parseSet(lineNo, rest)
			case "var":
				s, err = p.parseVar(lineNo, rest)
			default:
				s, err = p.parseJump(lineNo, head, rest)
			}
			if err != nil {
				hole(lineNo, raw, err)
				continue
			}
			if !place(s) {
				outside(lineNo)
			}

		default:
			hole(lineNo, raw, p.errf(lineNo, "unknown statement %q", head))
		}
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p.fail(guard.SevWarn, "unclosed-block", p.errf(top.line, "unclosed %s block", top.kind), " (implicitly closed)")
		closeFrame(top)
	}
	if len(prog.Funcs) == 0 {
		p.fail(guard.SevError, "no-functions", fmt.Errorf("%s: no function definitions", p.source), "")
	}
	return prog
}

// parseDef parses: IDENT ( params )
func (p *sparser) parseDef(lineNo int, toks []ltok) (*FuncDef, error) {
	if len(toks) < 3 || !isIdentTok(toks[0].text) || toks[1].text != "(" || toks[len(toks)-1].text != ")" {
		return nil, p.errf(lineNo, "malformed def; want: def name(p1, p2, ...)")
	}
	fn := &FuncDef{Name: toks[0].text, Line: lineNo}
	inner := toks[2 : len(toks)-1]
	expectIdent := true
	for _, t := range inner {
		if expectIdent {
			if !isIdentTok(t.text) {
				return nil, p.errf(lineNo, "malformed parameter list")
			}
			fn.Params = append(fn.Params, t.text)
			expectIdent = false
		} else {
			if t.text != "," {
				return nil, p.errf(lineNo, "malformed parameter list")
			}
			expectIdent = true
		}
	}
	if expectIdent && len(fn.Params) > 0 {
		return nil, p.errf(lineNo, "trailing comma in parameter list")
	}
	return fn, nil
}

// parseFor parses: IDENT = from : to [: step] [label="..."]
//
// The range uses ':' which is not an expression operator, so the header is
// parsed directly rather than through parseKV. A trailing label="..."
// attribute is stripped first.
func (p *sparser) parseFor(lineNo int, toks []ltok) (*Loop, error) {
	label := ""
	var core []ltok
	for i := 0; i < len(toks); i++ {
		if toks[i].text == "label" && !toks[i].isString &&
			i+2 < len(toks) && toks[i+1].text == "=" && toks[i+2].isString {
			label = toks[i+2].text
			i += 2
			continue
		}
		core = append(core, toks[i])
	}
	if len(core) < 3 || !isIdentTok(core[0].text) || core[0].isString || core[1].text != "=" {
		return nil, p.errf(lineNo, "malformed for; want: for i = from : to [: step]")
	}
	loopVar := core[0].text
	// Split remainder on top-level ':'.
	var parts [][]ltok
	cur := []ltok{}
	depth := 0
	for _, t := range core[2:] {
		switch t.text {
		case "(", "[":
			depth++
		case ")", "]":
			depth--
		}
		if depth == 0 && t.text == ":" {
			parts = append(parts, cur)
			cur = nil
			continue
		}
		cur = append(cur, t)
	}
	parts = append(parts, cur)
	if len(parts) < 2 || len(parts) > 3 {
		return nil, p.errf(lineNo, "for range must be from:to or from:to:step")
	}
	exprs := make([]expr.Expr, len(parts))
	for i, part := range parts {
		if len(part) == 0 {
			return nil, p.errf(lineNo, "empty range component in for header")
		}
		e, err := expr.ParseWithLimits(joinToks(part), p.lim)
		if err != nil {
			return nil, p.errf(lineNo, "for range: %w", err)
		}
		exprs[i] = e
	}
	loop := &Loop{
		stmtBase: stmtBase{Line: lineNo},
		Var:      loopVar, From: exprs[0], To: exprs[1], Label: label,
	}
	if len(exprs) == 3 {
		loop.Step = exprs[2]
	}
	return loop, nil
}

func (p *sparser) parseWhile(lineNo int, toks []ltok) (*While, error) {
	kv, err := p.parseKV(lineNo, toks)
	if err != nil {
		return nil, err
	}
	if err := kv.check("iters", "label"); err != nil {
		return nil, err
	}
	if len(kv.bare) != 0 {
		return nil, p.errf(lineNo, "unexpected tokens in while header")
	}
	iters := kv.get("iters", nil)
	if iters == nil {
		return nil, p.errf(lineNo, "while requires iters=<expected trip count>")
	}
	return &While{stmtBase: stmtBase{Line: lineNo}, Iters: iters, Label: kv.str("label", "")}, nil
}

// parseCond parses an if/elif condition: either prob=<expr> or cond=<expr>,
// or a bare expression (treated as cond).
func (p *sparser) parseCond(lineNo int, toks []ltok) (CondSpec, error) {
	kv, err := p.parseKV(lineNo, toks)
	if err != nil {
		return CondSpec{}, err
	}
	if e, ok := kv.vals["prob"]; ok {
		if err := kv.check("prob"); err != nil {
			return CondSpec{}, err
		}
		return CondSpec{Kind: CondProb, X: e}, nil
	}
	if e, ok := kv.vals["cond"]; ok {
		if err := kv.check("cond"); err != nil {
			return CondSpec{}, err
		}
		return CondSpec{Kind: CondExpr, X: e}, nil
	}
	if len(kv.bare) > 0 && len(kv.keys) == 0 {
		e, err := expr.ParseWithLimits(joinToks(kv.bare), kv.p.lim)
		if err != nil {
			return CondSpec{}, p.errf(lineNo, "if condition: %w", err)
		}
		return CondSpec{Kind: CondExpr, X: e}, nil
	}
	// A bare "k == 1" tokenizes with '=' handled as '=='; but "k = 1" would
	// look like an attribute named k. Reject with a pointed message.
	return CondSpec{}, p.errf(lineNo, "if requires prob=<p>, cond=<expr>, or a bare comparison")
}

func (p *sparser) parseComp(lineNo int, toks []ltok) (*Comp, error) {
	kv, err := p.parseKV(lineNo, toks)
	if err != nil {
		return nil, err
	}
	if err := kv.check("flops", "iops", "loads", "stores", "dsize", "divs", "insts", "vec", "name"); err != nil {
		return nil, err
	}
	if len(kv.bare) != 0 {
		return nil, p.errf(lineNo, "unexpected tokens in comp")
	}
	c := &Comp{
		stmtBase: stmtBase{Line: lineNo},
		Name:     kv.str("name", fmt.Sprintf("L%d", lineNo)),
		M: Metrics{
			FLOPs:  kv.get("flops", expr.Const(0)),
			IOPs:   kv.get("iops", expr.Const(0)),
			Loads:  kv.get("loads", expr.Const(0)),
			Stores: kv.get("stores", expr.Const(0)),
			DSize:  kv.get("dsize", expr.Const(8)),
			Divs:   kv.get("divs", expr.Const(0)),
			Insts:  kv.get("insts", nil),
			Vec:    kv.get("vec", expr.Const(1)),
		},
	}
	return c, nil
}

func (p *sparser) parseComm(lineNo int, toks []ltok) (*Comm, error) {
	kv, err := p.parseKV(lineNo, toks)
	if err != nil {
		return nil, err
	}
	if err := kv.check("bytes", "msgs", "name"); err != nil {
		return nil, err
	}
	if len(kv.bare) != 0 {
		return nil, p.errf(lineNo, "unexpected tokens in comm")
	}
	bytes := kv.get("bytes", nil)
	if bytes == nil {
		return nil, p.errf(lineNo, "comm requires bytes=<expr>")
	}
	return &Comm{
		stmtBase: stmtBase{Line: lineNo},
		Bytes:    bytes,
		Msgs:     kv.get("msgs", expr.Const(1)),
		Name:     kv.str("name", fmt.Sprintf("comm@L%d", lineNo)),
	}, nil
}

func (p *sparser) parseLib(lineNo int, toks []ltok) (*Lib, error) {
	if len(toks) == 0 || !isIdentTok(toks[0].text) {
		return nil, p.errf(lineNo, "malformed lib; want: lib <func> [count=<n>]")
	}
	fn := toks[0].text
	kv, err := p.parseKV(lineNo, toks[1:])
	if err != nil {
		return nil, err
	}
	if err := kv.check("count", "name"); err != nil {
		return nil, err
	}
	if len(kv.bare) != 0 {
		return nil, p.errf(lineNo, "unexpected tokens in lib")
	}
	return &Lib{
		stmtBase: stmtBase{Line: lineNo},
		Func:     fn,
		Count:    kv.get("count", expr.Const(1)),
		Name:     kv.str("name", fmt.Sprintf("%s@L%d", fn, lineNo)),
	}, nil
}

func (p *sparser) parseCall(lineNo int, toks []ltok) (*Call, error) {
	if len(toks) < 3 || !isIdentTok(toks[0].text) || toks[1].text != "(" || toks[len(toks)-1].text != ")" {
		return nil, p.errf(lineNo, "malformed call; want: call name(arg, ...)")
	}
	c := &Call{stmtBase: stmtBase{Line: lineNo}, Func: toks[0].text}
	inner := toks[2 : len(toks)-1]
	if len(inner) == 0 {
		return c, nil
	}
	// Split on top-level commas.
	var cur []ltok
	depth := 0
	flush := func() error {
		if len(cur) == 0 {
			return p.errf(lineNo, "empty argument in call")
		}
		e, err := expr.ParseWithLimits(joinToks(cur), p.lim)
		if err != nil {
			return p.errf(lineNo, "call argument: %w", err)
		}
		c.Args = append(c.Args, e)
		cur = nil
		return nil
	}
	for _, t := range inner {
		switch t.text {
		case "(", "[":
			depth++
		case ")", "]":
			depth--
		}
		if depth == 0 && t.text == "," {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		cur = append(cur, t)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *sparser) parseSet(lineNo int, toks []ltok) (*Set, error) {
	if len(toks) < 3 || !isIdentTok(toks[0].text) || toks[1].text != "=" {
		return nil, p.errf(lineNo, "malformed set; want: set name = expr")
	}
	e, err := expr.ParseWithLimits(joinToks(toks[2:]), p.lim)
	if err != nil {
		return nil, p.errf(lineNo, "set value: %w", err)
	}
	return &Set{stmtBase: stmtBase{Line: lineNo}, Name: toks[0].text, Value: e}, nil
}

// parseVar parses: IDENT [ e1 ] [ e2 ] ... [attrs]
func (p *sparser) parseVar(lineNo int, toks []ltok) (*VarDecl, error) {
	if len(toks) == 0 || !isIdentTok(toks[0].text) {
		return nil, p.errf(lineNo, "malformed var; want: var name[e1][e2] [dsize=8]")
	}
	v := &VarDecl{stmtBase: stmtBase{Line: lineNo}, Name: toks[0].text, DSize: expr.Const(8)}
	i := 1
	for i < len(toks) && toks[i].text == "[" {
		depth := 1
		j := i + 1
		for j < len(toks) && depth > 0 {
			switch toks[j].text {
			case "[":
				depth++
			case "]":
				depth--
			}
			if depth == 0 {
				break
			}
			j++
		}
		if j >= len(toks) {
			return nil, p.errf(lineNo, "unterminated [ in var declaration")
		}
		e, err := expr.ParseWithLimits(joinToks(toks[i+1:j]), p.lim)
		if err != nil {
			return nil, p.errf(lineNo, "var extent: %w", err)
		}
		v.Extents = append(v.Extents, e)
		i = j + 1
	}
	kv, err := p.parseKV(lineNo, toks[i:])
	if err != nil {
		return nil, err
	}
	if err := kv.check("dsize"); err != nil {
		return nil, err
	}
	if len(kv.bare) != 0 {
		return nil, p.errf(lineNo, "unexpected tokens in var declaration")
	}
	v.DSize = kv.get("dsize", expr.Const(8))
	return v, nil
}

// parseJump parses a return/break/continue statement body.
func (p *sparser) parseJump(lineNo int, head string, toks []ltok) (Stmt, error) {
	kv, err := p.parseKV(lineNo, toks)
	if err != nil {
		return nil, err
	}
	if err := kv.check("prob"); err != nil {
		return nil, err
	}
	if len(kv.bare) != 0 {
		return nil, p.errf(lineNo, "unexpected tokens after %s", head)
	}
	prob := kv.get("prob", nil)
	switch head {
	case "return":
		return &Return{stmtBase: stmtBase{Line: lineNo}, Prob: prob}, nil
	case "break":
		return &Break{stmtBase: stmtBase{Line: lineNo}, Prob: prob}, nil
	default:
		return &Continue{stmtBase: stmtBase{Line: lineNo}, Prob: prob}, nil
	}
}
