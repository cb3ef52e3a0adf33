package minilang

import "fmt"

// BaseType is a scalar type.
type BaseType int

// Scalar types. TypeVoid is the "return type" of procedures.
const (
	TypeVoid BaseType = iota
	TypeInt
	TypeFloat
)

func (t BaseType) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeVoid:
		return "void"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Type is a scalar or array type. Arrays carry extent expressions, which
// for globals must be constant after global-initializer evaluation.
type Type struct {
	Base    BaseType
	Extents []Expr // nil for scalars
}

// IsArray reports whether the type has extents.
func (t Type) IsArray() bool { return len(t.Extents) > 0 }

func (t Type) String() string {
	s := ""
	for range t.Extents {
		s += "[]"
	}
	return s + t.Base.String()
}

// Program is a parsed minilang compilation unit.
type Program struct {
	Source  string
	Globals []*GlobalDecl
	Funcs   []*FuncDecl

	GlobalByName map[string]*GlobalDecl
	FuncByName   map[string]*FuncDecl
}

// GlobalDecl declares a module-level scalar or array.
type GlobalDecl struct {
	Name string
	Type Type
	Init Expr // optional for scalars; must be nil for arrays
	Pos  Pos
}

// Param is a scalar function parameter.
type Param struct {
	Name string
	Base BaseType
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Params []Param
	Ret    BaseType // TypeVoid for procedures
	Body   *Block
	Pos    Pos
}

// Block is a brace-delimited statement list.
type Block struct {
	Stmts []Stmt
}

// Stmt is a statement node.
type Stmt interface {
	StmtPos() Pos
	stmt()
}

type stmtBase struct{ Pos Pos }

// StmtPos returns the statement's source position.
func (s stmtBase) StmtPos() Pos { return s.Pos }
func (s stmtBase) stmt()        {}

// VarDecl declares a local scalar.
type VarDecl struct {
	stmtBase
	Name string
	Base BaseType
	Init Expr // optional
}

// Assign stores RHS into LHS (a scalar variable or array element).
type Assign struct {
	stmtBase
	LHS Expr // *VarRef or *Index
	RHS Expr
}

// For is a counted loop: Var runs From .. To (exclusive), step Step (1 if
// nil). Vec marks the loop as compiler-vectorizable (the simulator applies
// the machine's SIMD width to FP work in its directly-nested straight-line
// statements; the analytical model deliberately ignores the hint).
type For struct {
	stmtBase
	Var  string
	From Expr
	To   Expr
	Step Expr // nil = 1
	Vec  bool
	Body *Block
}

// While loops while Cond is true.
type While struct {
	stmtBase
	Cond Expr
	Body *Block
}

// If is a conditional with optional else (either *Block or a nested *If for
// else-if chains, normalized by the parser to ElseBlock possibly holding a
// single If statement).
type If struct {
	stmtBase
	Cond Expr
	Then *Block
	Else *Block // nil if absent
}

// ExprStmt evaluates an expression for its effects (function calls).
type ExprStmt struct {
	stmtBase
	X Expr
}

// Return exits the enclosing function with an optional value.
type Return struct {
	stmtBase
	X Expr // nil for bare return
}

// Break exits the innermost loop.
type Break struct{ stmtBase }

// Continue skips to the next iteration of the innermost loop.
type Continue struct{ stmtBase }

// Expr is an expression node. Type information is filled in by Check.
type Expr interface {
	ExprPos() Pos
	// ResultType returns the type computed by semantic analysis
	// (TypeVoid before Check runs).
	ResultType() BaseType
	expr()
}

type exprBase struct {
	Pos Pos
	T   BaseType
}

// ExprPos returns the expression's source position.
func (e exprBase) ExprPos() Pos         { return e.Pos }
func (e exprBase) ResultType() BaseType { return e.T }
func (e exprBase) expr()                {}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	exprBase
	Val float64
}

// VarRef references a scalar variable (local, parameter, or global).
type VarRef struct {
	exprBase
	Name string
	// Global is set by Check when the reference resolves to a global.
	Global bool
}

// Index references an element of a global array.
type Index struct {
	exprBase
	Name    string
	Indices []Expr
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpAnd: "&&", OpOr: "||",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsComparison reports whether the operator yields a boolean (int 0/1).
func (o BinOp) IsComparison() bool {
	switch o {
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
		return true
	}
	return false
}

// IsLogical reports whether the operator is && or ||.
func (o BinOp) IsLogical() bool { return o == OpAnd || o == OpOr }

// Binary applies a binary operator.
type Binary struct {
	exprBase
	Op   BinOp
	L, R Expr
}

// Unary applies negation (-) or logical not (!).
type Unary struct {
	exprBase
	Op string // "-" or "!"
	X  Expr
}

// Call invokes a builtin math function or a user function.
type Call struct {
	exprBase
	Name string
	Args []Expr
	// Builtin is set by Check for math-library calls.
	Builtin bool
	// Decl is resolved by Check for user calls.
	Decl *FuncDecl
}
