package minilang

import "fmt"

// Check performs semantic analysis: name resolution, light type checking,
// and structural validation. On success the AST is annotated (expression
// result types, resolved declarations) and safe for the translator,
// interpreter and simulator to consume without further checks.
//
// Rules:
//   - arrays are global; elements are accessed with a full index list;
//   - int and float mix freely in arithmetic (result float); comparisons
//     and logical operators yield int;
//   - assignment to an int variable truncates float values;
//   - user (non-builtin) function calls may appear only as standalone
//     statements or as the entire right-hand side of an assignment, so call
//     boundaries stay explicit for cost attribution;
//   - recursion is rejected (the skeleton pipeline inlines call trees);
//   - break/continue must be inside loops; main() must exist, have no
//     parameters, and return nothing.
func Check(p *Program) error {
	c := &checker{p: p}
	for _, g := range p.Globals {
		if err := c.checkGlobal(g); err != nil {
			return err
		}
	}
	for _, f := range p.Funcs {
		if err := c.checkFunc(f); err != nil {
			return err
		}
	}
	main, ok := p.FuncByName["main"]
	if !ok {
		return fmt.Errorf("%s: no main function", p.Source)
	}
	if len(main.Params) != 0 || main.Ret != TypeVoid {
		return fmt.Errorf("%s:%s: main must take no parameters and return nothing", p.Source, main.Pos)
	}
	return c.checkRecursion()
}

type checker struct {
	p  *Program
	fn *FuncDecl
	// scopes is a stack of local scopes mapping name -> type.
	scopes    []map[string]BaseType
	loopDepth int
}

func (c *checker) errf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%s:%s: %s", c.p.Source, pos, fmt.Sprintf(format, args...))
}

func (c *checker) checkGlobal(g *GlobalDecl) error {
	if g.Type.Base == TypeVoid {
		return c.errf(g.Pos, "global %q has no type", g.Name)
	}
	// Extents may reference only literals and previously declared scalar
	// globals, so initialization order is well defined.
	for _, e := range g.Type.Extents {
		if err := c.checkExtent(g, e); err != nil {
			return err
		}
	}
	if g.Init != nil {
		if err := c.checkExtent(g, g.Init); err != nil {
			return err
		}
	}
	return nil
}

// checkExtent validates a global extent/initializer expression: constants
// and previously declared scalar globals combined with arithmetic.
func (c *checker) checkExtent(g *GlobalDecl, e Expr) error {
	switch t := e.(type) {
	case *IntLit:
		return nil
	case *FloatLit:
		return nil
	case *VarRef:
		prev, ok := c.p.GlobalByName[t.Name]
		if !ok {
			return c.errf(t.Pos, "global %q references unknown name %q", g.Name, t.Name)
		}
		if prev == g {
			return c.errf(t.Pos, "global %q references itself", g.Name)
		}
		if prev.Type.IsArray() {
			return c.errf(t.Pos, "global %q references array %q in a constant expression", g.Name, t.Name)
		}
		if !declaredBefore(c.p, prev, g) {
			return c.errf(t.Pos, "global %q references %q before its declaration", g.Name, t.Name)
		}
		t.Global = true
		t.T = prev.Type.Base
		return nil
	case *Binary:
		if t.Op.IsLogical() {
			return c.errf(t.Pos, "logical operator in constant expression")
		}
		if err := c.checkExtent(g, t.L); err != nil {
			return err
		}
		if err := c.checkExtent(g, t.R); err != nil {
			return err
		}
		t.T = numericResult(t.Op, t.L.ResultType(), t.R.ResultType())
		return nil
	case *Unary:
		if err := c.checkExtent(g, t.X); err != nil {
			return err
		}
		t.T = t.X.ResultType()
		return nil
	}
	return c.errf(e.ExprPos(), "unsupported expression in global declaration")
}

func declaredBefore(p *Program, a, b *GlobalDecl) bool {
	for _, g := range p.Globals {
		if g == a {
			return true
		}
		if g == b {
			return false
		}
	}
	return false
}

func (c *checker) checkFunc(f *FuncDecl) error {
	c.fn = f
	c.scopes = []map[string]BaseType{{}}
	c.loopDepth = 0
	for _, prm := range f.Params {
		if prm.Base == TypeVoid {
			return c.errf(f.Pos, "parameter %q has no type", prm.Name)
		}
		if _, dup := c.scopes[0][prm.Name]; dup {
			return c.errf(f.Pos, "duplicate parameter %q", prm.Name)
		}
		c.scopes[0][prm.Name] = prm.Base
	}
	return c.checkBlock(f.Body)
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]BaseType{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(pos Pos, name string, t BaseType) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return c.errf(pos, "duplicate declaration of %q", name)
	}
	top[name] = t
	return nil
}

// lookupLocal resolves name in the local scope stack.
func (c *checker) lookupLocal(name string) (BaseType, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return TypeVoid, false
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch t := s.(type) {
	case *VarDecl:
		if t.Init != nil {
			// A declaration may be initialized by a whole user call, like
			// an assignment RHS.
			if err := c.checkExpr(t.Init, ctxCall); err != nil {
				return err
			}
		}
		return c.declare(t.Pos, t.Name, t.Base)

	case *Assign:
		if err := c.checkExpr(t.RHS, ctxCall); err != nil {
			return err
		}
		switch lhs := t.LHS.(type) {
		case *VarRef:
			if err := c.checkExpr(lhs, ctxValue); err != nil {
				return err
			}
			if lhs.Global {
				g := c.p.GlobalByName[lhs.Name]
				if g.Type.IsArray() {
					return c.errf(t.Pos, "cannot assign whole array %q", lhs.Name)
				}
			}
		case *Index:
			if err := c.checkExpr(lhs, ctxValue); err != nil {
				return err
			}
		default:
			return c.errf(t.Pos, "left side of assignment is not assignable")
		}
		return nil

	case *For:
		for _, e := range []Expr{t.From, t.To} {
			if err := c.checkExpr(e, ctxValue); err != nil {
				return err
			}
		}
		if t.Step != nil {
			if err := c.checkExpr(t.Step, ctxValue); err != nil {
				return err
			}
		}
		c.push()
		defer c.pop()
		if err := c.declare(t.Pos, t.Var, TypeInt); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(t.Body)

	case *While:
		if err := c.checkExpr(t.Cond, ctxValue); err != nil {
			return err
		}
		c.loopDepth++
		defer func() { c.loopDepth-- }()
		return c.checkBlock(t.Body)

	case *If:
		if err := c.checkExpr(t.Cond, ctxValue); err != nil {
			return err
		}
		if err := c.checkBlock(t.Then); err != nil {
			return err
		}
		if t.Else != nil {
			return c.checkBlock(t.Else)
		}
		return nil

	case *ExprStmt:
		return c.checkExpr(t.X, ctxStmt)

	case *Return:
		if c.fn.Ret == TypeVoid {
			if t.X != nil {
				return c.errf(t.Pos, "%s returns no value", c.fn.Name)
			}
			return nil
		}
		if t.X == nil {
			return c.errf(t.Pos, "%s must return a %s", c.fn.Name, c.fn.Ret)
		}
		return c.checkExpr(t.X, ctxValue)

	case *Break:
		if c.loopDepth == 0 {
			return c.errf(t.Pos, "break outside loop")
		}
		return nil

	case *Continue:
		if c.loopDepth == 0 {
			return c.errf(t.Pos, "continue outside loop")
		}
		return nil
	}
	return c.errf(s.StmtPos(), "unhandled statement %T", s)
}

// Expression contexts: ctxValue is a nested value position (no user calls),
// ctxCall is the whole RHS of an assignment (user calls returning values
// allowed), ctxStmt is statement position (void user calls allowed).
const (
	ctxValue = iota
	ctxCall
	ctxStmt
)

// checkExpr resolves and types e under the given expression context.
func (c *checker) checkExpr(e Expr, ectx int) error {
	switch t := e.(type) {
	case *IntLit, *FloatLit:
		return nil

	case *VarRef:
		if bt, ok := c.lookupLocal(t.Name); ok {
			t.T = bt
			return nil
		}
		if g, ok := c.p.GlobalByName[t.Name]; ok {
			if g.Type.IsArray() {
				return c.errf(t.Pos, "array %q used without index", t.Name)
			}
			t.Global = true
			t.T = g.Type.Base
			return nil
		}
		return c.errf(t.Pos, "undefined variable %q", t.Name)

	case *Index:
		g, ok := c.p.GlobalByName[t.Name]
		if !ok {
			return c.errf(t.Pos, "undefined array %q", t.Name)
		}
		if !g.Type.IsArray() {
			return c.errf(t.Pos, "%q is not an array", t.Name)
		}
		if len(t.Indices) != len(g.Type.Extents) {
			return c.errf(t.Pos, "array %q has %d dimensions, %d indices given",
				t.Name, len(g.Type.Extents), len(t.Indices))
		}
		for _, ix := range t.Indices {
			if err := c.checkExpr(ix, ctxValue); err != nil {
				return err
			}
		}
		t.T = g.Type.Base
		return nil

	case *Binary:
		if err := c.checkExpr(t.L, ctxValue); err != nil {
			return err
		}
		if err := c.checkExpr(t.R, ctxValue); err != nil {
			return err
		}
		if t.Op.IsComparison() || t.Op.IsLogical() {
			t.T = TypeInt
			return nil
		}
		t.T = numericResult(t.Op, t.L.ResultType(), t.R.ResultType())
		return nil

	case *Unary:
		if err := c.checkExpr(t.X, ctxValue); err != nil {
			return err
		}
		if t.Op == "!" {
			t.T = TypeInt
		} else {
			t.T = t.X.ResultType()
		}
		return nil

	case *Call:
		if arity, ok := Builtins[t.Name]; ok {
			if len(t.Args) != arity {
				return c.errf(t.Pos, "%s expects %d arguments, got %d", t.Name, arity, len(t.Args))
			}
			if t.Name == "exchange" && ectx != ctxStmt {
				return c.errf(t.Pos, "exchange() must be a standalone statement")
			}
			for _, a := range t.Args {
				if err := c.checkExpr(a, ctxValue); err != nil {
					return err
				}
			}
			t.Builtin = true
			t.T = TypeFloat
			return nil
		}
		f, ok := c.p.FuncByName[t.Name]
		if !ok {
			return c.errf(t.Pos, "call to undefined function %q", t.Name)
		}
		if ectx == ctxValue {
			return c.errf(t.Pos, "call to %q must be a standalone statement or the whole right-hand side of an assignment", t.Name)
		}
		if len(t.Args) != len(f.Params) {
			return c.errf(t.Pos, "%s expects %d arguments, got %d", t.Name, len(f.Params), len(t.Args))
		}
		for _, a := range t.Args {
			if err := c.checkExpr(a, ctxValue); err != nil {
				return err
			}
		}
		if f.Ret == TypeVoid && ectx != ctxStmt {
			return c.errf(t.Pos, "void function %q used as a value", t.Name)
		}
		t.Decl = f
		t.T = f.Ret
		return nil
	}
	return c.errf(e.ExprPos(), "unhandled expression %T", e)
}

// numericResult implements the int/float promotion rules. Integer division
// truncates (C-like); any float operand promotes the result.
func numericResult(op BinOp, l, r BaseType) BaseType {
	if l == TypeFloat || r == TypeFloat {
		return TypeFloat
	}
	_ = op
	return TypeInt
}

// checkRecursion rejects call cycles: the skeleton pipeline inlines callee
// trees, so recursion would not terminate (the paper targets scientific
// array codes where this holds).
func (c *checker) checkRecursion() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(f *FuncDecl) error
	visit = func(f *FuncDecl) error {
		switch color[f.Name] {
		case gray:
			return fmt.Errorf("%s: recursion involving %q is not supported", c.p.Source, f.Name)
		case black:
			return nil
		}
		color[f.Name] = gray
		var err error
		walkCalls(f.Body, func(call *Call) {
			if err != nil || call.Builtin || call.Decl == nil {
				return
			}
			err = visit(call.Decl)
		})
		if err != nil {
			return err
		}
		color[f.Name] = black
		return nil
	}
	for _, f := range c.p.Funcs {
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// walkCalls visits every Call expression in a block, recursively.
func walkCalls(b *Block, visit func(*Call)) {
	for _, s := range b.Stmts {
		walkStmtCalls(s, visit)
	}
}

func walkStmtCalls(s Stmt, visit func(*Call)) {
	switch t := s.(type) {
	case *VarDecl:
		if t.Init != nil {
			walkExprCalls(t.Init, visit)
		}
	case *Assign:
		walkExprCalls(t.LHS, visit)
		walkExprCalls(t.RHS, visit)
	case *For:
		walkExprCalls(t.From, visit)
		walkExprCalls(t.To, visit)
		if t.Step != nil {
			walkExprCalls(t.Step, visit)
		}
		walkCalls(t.Body, visit)
	case *While:
		walkExprCalls(t.Cond, visit)
		walkCalls(t.Body, visit)
	case *If:
		walkExprCalls(t.Cond, visit)
		walkCalls(t.Then, visit)
		if t.Else != nil {
			walkCalls(t.Else, visit)
		}
	case *ExprStmt:
		walkExprCalls(t.X, visit)
	case *Return:
		if t.X != nil {
			walkExprCalls(t.X, visit)
		}
	}
}

func walkExprCalls(e Expr, visit func(*Call)) {
	switch t := e.(type) {
	case *Binary:
		walkExprCalls(t.L, visit)
		walkExprCalls(t.R, visit)
	case *Unary:
		walkExprCalls(t.X, visit)
	case *Index:
		for _, ix := range t.Indices {
			walkExprCalls(ix, visit)
		}
	case *Call:
		for _, a := range t.Args {
			walkExprCalls(a, visit)
		}
		visit(t)
	}
}
