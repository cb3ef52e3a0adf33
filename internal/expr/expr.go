// Package expr implements the symbolic expression trees used throughout the
// SKOPE-style toolchain. Code skeletons express loop bounds, branch
// probabilities, data sizes, and instruction counts as expressions over named
// input variables (e.g. "n*m/4"); the Bayesian Execution Tree evaluates these
// expressions against a runtime context during execution-flow modeling.
//
// Expressions are immutable trees. Evaluation takes an Env (variable
// bindings) and yields a float64. A small recursive-descent parser accepts a
// C-like grammar with the usual arithmetic precedence, comparisons,
// min/max/ceil/floor/sqrt/log2/abs builtins, and the ternary ?: operator.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Env binds variable names to numeric values for expression evaluation.
type Env map[string]float64

// Clone returns an independent copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Names returns the variable names bound in the environment, sorted.
func (e Env) Names() []string {
	names := make([]string, 0, len(e))
	for k := range e {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Expr is an immutable symbolic expression.
type Expr interface {
	// Eval computes the numeric value of the expression under env. It
	// returns an error if a referenced variable is unbound or an operation
	// is undefined (e.g. division by zero).
	Eval(env Env) (float64, error)
	// Vars appends the free variable names of the expression to dst.
	Vars(dst map[string]bool)
	// String renders the expression in parseable form.
	String() string
}

// Const is a numeric literal.
type Const float64

// Eval implements Expr.
func (c Const) Eval(Env) (float64, error) { return float64(c), nil }

// Vars implements Expr.
func (c Const) Vars(map[string]bool) {}

func (c Const) String() string {
	f := float64(c)
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// Var is a reference to a named context variable.
type Var string

// Eval implements Expr.
func (v Var) Eval(env Env) (float64, error) {
	val, ok := env[string(v)]
	if !ok {
		return 0, fmt.Errorf("expr: unbound variable %q", string(v))
	}
	return val, nil
}

// Vars implements Expr.
func (v Var) Vars(dst map[string]bool) { dst[string(v)] = true }

func (v Var) String() string { return string(v) }

// Op identifies a binary operator.
type Op int

// Binary operators. Comparison operators evaluate to 1 (true) or 0 (false).
const (
	Add Op = iota
	Sub
	Mul
	Div
	Mod
	Pow
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	And
	Or
)

var opNames = map[Op]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%", Pow: "^",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "==", Ne: "!=",
	And: "&&", Or: "||",
}

func (o Op) String() string { return opNames[o] }

// Binary applies Op to two sub-expressions.
type Binary struct {
	Op   Op
	L, R Expr
}

// Eval implements Expr.
func (b *Binary) Eval(env Env) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	return applyOp(b.Op, l, r)
}

func applyOp(op Op, l, r float64) (float64, error) {
	switch op {
	case Add:
		return l + r, nil
	case Sub:
		return l - r, nil
	case Mul:
		return l * r, nil
	case Div:
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero")
		}
		return l / r, nil
	case Mod:
		if r == 0 {
			return 0, fmt.Errorf("expr: modulo by zero")
		}
		return math.Mod(l, r), nil
	case Pow:
		return math.Pow(l, r), nil
	case Lt:
		return boolVal(l < r), nil
	case Le:
		return boolVal(l <= r), nil
	case Gt:
		return boolVal(l > r), nil
	case Ge:
		return boolVal(l >= r), nil
	case Eq:
		return boolVal(l == r), nil
	case Ne:
		return boolVal(l != r), nil
	case And:
		return boolVal(l != 0 && r != 0), nil
	case Or:
		return boolVal(l != 0 || r != 0), nil
	}
	return 0, fmt.Errorf("expr: unknown operator %d", op)
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Vars implements Expr.
func (b *Binary) Vars(dst map[string]bool) {
	b.L.Vars(dst)
	b.R.Vars(dst)
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Neg is unary negation.
type Neg struct{ X Expr }

// Eval implements Expr.
func (n *Neg) Eval(env Env) (float64, error) {
	v, err := n.X.Eval(env)
	return -v, err
}

// Vars implements Expr.
func (n *Neg) Vars(dst map[string]bool) { n.X.Vars(dst) }

func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.X) }

// Call is a builtin function application.
type Call struct {
	Name string
	Args []Expr
}

type builtin struct {
	arity int
	fn    func(args []float64) (float64, error)
}

var builtins = map[string]builtin{
	"min":   {2, func(a []float64) (float64, error) { return math.Min(a[0], a[1]), nil }},
	"max":   {2, func(a []float64) (float64, error) { return math.Max(a[0], a[1]), nil }},
	"ceil":  {1, func(a []float64) (float64, error) { return math.Ceil(a[0]), nil }},
	"floor": {1, func(a []float64) (float64, error) { return math.Floor(a[0]), nil }},
	"abs":   {1, func(a []float64) (float64, error) { return math.Abs(a[0]), nil }},
	"sqrt": {1, func(a []float64) (float64, error) {
		if a[0] < 0 {
			return 0, fmt.Errorf("expr: sqrt of negative value %g", a[0])
		}
		return math.Sqrt(a[0]), nil
	}},
	"log2": {1, func(a []float64) (float64, error) {
		if a[0] <= 0 {
			return 0, fmt.Errorf("expr: log2 of non-positive value %g", a[0])
		}
		return math.Log2(a[0]), nil
	}},
}

// Eval implements Expr.
func (c *Call) Eval(env Env) (float64, error) {
	b, ok := builtins[c.Name]
	if !ok {
		return 0, fmt.Errorf("expr: unknown function %q", c.Name)
	}
	if len(c.Args) != b.arity {
		return 0, fmt.Errorf("expr: %s expects %d args, got %d", c.Name, b.arity, len(c.Args))
	}
	vals := make([]float64, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return b.fn(vals)
}

// Vars implements Expr.
func (c *Call) Vars(dst map[string]bool) {
	for _, a := range c.Args {
		a.Vars(dst)
	}
}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(args, ", "))
}

// Cond is the ternary conditional operator: If != 0 ? Then : Else.
type Cond struct {
	If, Then, Else Expr
}

// Eval implements Expr.
func (c *Cond) Eval(env Env) (float64, error) {
	p, err := c.If.Eval(env)
	if err != nil {
		return 0, err
	}
	if p != 0 {
		return c.Then.Eval(env)
	}
	return c.Else.Eval(env)
}

// Vars implements Expr.
func (c *Cond) Vars(dst map[string]bool) {
	c.If.Vars(dst)
	c.Then.Vars(dst)
	c.Else.Vars(dst)
}

func (c *Cond) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", c.If, c.Then, c.Else)
}

// FreeVars returns the sorted free variable names of e.
func FreeVars(e Expr) []string {
	set := make(map[string]bool)
	e.Vars(set)
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// IsConst reports whether e has no free variables, and if so its value.
func IsConst(e Expr) (float64, bool) {
	set := make(map[string]bool)
	e.Vars(set)
	if len(set) != 0 {
		return 0, false
	}
	v, err := e.Eval(nil)
	if err != nil {
		return 0, false
	}
	return v, true
}
