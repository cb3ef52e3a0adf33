package minilang

import "fmt"

// Segment is a straight-line run of simple statements within one block — a
// source basic block. Segments are the unit of cost attribution shared by
// the static translator (which emits one skeleton comp per segment) and the
// timing simulator (which attributes measured cycles per segment), so the
// analytical projection and the measured profile key on identical block
// identities.
type Segment struct {
	// Stmts are the member statements, in order.
	Stmts []Stmt
	// FuncName is the enclosing function.
	FuncName string
	// Pos is the position of the first statement.
	Pos Pos
}

// Label returns the block label: "L<line>" of the first statement.
func (s *Segment) Label() string { return fmt.Sprintf("L%d", s.Pos.Line) }

// BlockID returns "<func>/L<line>", the stable profile-matching identity.
func (s *Segment) BlockID() string { return s.FuncName + "/" + s.Label() }

// SegmentsOf splits the direct statements of a block into segments. A
// simple statement is a scalar declaration, an assignment, or an expression
// statement that performs no user-function call; control statements and
// user calls terminate segments and belong to none.
func SegmentsOf(funcName string, b *Block) []Segment {
	var out []Segment
	var cur []Stmt
	flush := func() {
		if len(cur) > 0 {
			out = append(out, Segment{Stmts: cur, FuncName: funcName, Pos: cur[0].StmtPos()})
			cur = nil
		}
	}
	for _, s := range b.Stmts {
		if IsSimpleStmt(s) {
			cur = append(cur, s)
			continue
		}
		flush()
	}
	flush()
	return out
}

// IsSimpleStmt reports whether s belongs in a straight-line segment. User
// calls and exchange() communication phases break segments: both transfer
// control (or time) out of the block and are modeled at their call sites.
func IsSimpleStmt(s Stmt) bool {
	switch t := s.(type) {
	case *VarDecl:
		return t.Init == nil || !containsNonSimple(t.Init)
	case *Assign:
		return !containsNonSimple(t.RHS) && !containsNonSimple(t.LHS)
	case *ExprStmt:
		return !containsNonSimple(t.X)
	}
	return false
}

func containsNonSimple(e Expr) bool {
	found := false
	walkExprCalls(e, func(c *Call) {
		if !c.Builtin || c.Name == "exchange" {
			found = true
		}
	})
	return found
}

// OpCounts is a static operation census of an expression or statement: the
// translator's estimate of the instruction mix of one execution.
type OpCounts struct {
	// FLOPs counts floating-point arithmetic operations.
	FLOPs int
	// Divs counts floating-point divisions (a subset of FLOPs).
	Divs int
	// IOPs counts integer operations (including comparisons and index
	// arithmetic).
	IOPs int
	// Loads and Stores count array element accesses.
	Loads, Stores int
	// Lib counts builtin math-library invocations by name.
	Lib map[string]int
}

// Add accumulates o into c.
func (c *OpCounts) Add(o OpCounts) {
	c.FLOPs += o.FLOPs
	c.Divs += o.Divs
	c.IOPs += o.IOPs
	c.Loads += o.Loads
	c.Stores += o.Stores
	for k, v := range o.Lib {
		if c.Lib == nil {
			c.Lib = map[string]int{}
		}
		c.Lib[k] += v
	}
}

// Insts returns the total static instruction estimate.
func (c OpCounts) Insts() int {
	n := c.FLOPs + c.IOPs + c.Loads + c.Stores
	for _, v := range c.Lib {
		n += v
	}
	return n
}

func countExpr(e Expr, store bool, c *OpCounts) {
	switch t := e.(type) {
	case *IntLit, *FloatLit:
	case *VarRef:
		// Scalars are register-resident: no memory traffic counted, which
		// mirrors the paper's "stack variables are not captured" caveat.
	case *Index:
		for _, ix := range t.Indices {
			countExpr(ix, false, c)
			// Address computation: one integer multiply-add per dimension.
			c.IOPs++
		}
		if store {
			c.Stores++
		} else {
			c.Loads++
		}
	case *Binary:
		countExpr(t.L, false, c)
		countExpr(t.R, false, c)
		isFloat := t.L.ResultType() == TypeFloat || t.R.ResultType() == TypeFloat
		if isFloat && !t.Op.IsLogical() {
			c.FLOPs++
			if t.Op == OpDiv {
				c.Divs++
			}
		} else {
			c.IOPs++
		}
	case *Unary:
		countExpr(t.X, false, c)
		if t.X.ResultType() == TypeFloat && t.Op == "-" {
			c.FLOPs++
		} else {
			c.IOPs++
		}
	case *Call:
		for _, a := range t.Args {
			countExpr(a, false, c)
		}
		if t.Builtin {
			if c.Lib == nil {
				c.Lib = map[string]int{}
			}
			c.Lib[t.Name]++
		}
		// User calls are modeled at their call site by the translator, not
		// charged to the segment.
	}
}

// CountStmt statically counts the operations of one execution of a simple
// statement.
func CountStmt(s Stmt) OpCounts {
	var c OpCounts
	switch t := s.(type) {
	case *VarDecl:
		if t.Init != nil {
			countExpr(t.Init, false, &c)
		}
	case *Assign:
		countExpr(t.RHS, false, &c)
		countExpr(t.LHS, true, &c)
	case *ExprStmt:
		countExpr(t.X, false, &c)
	}
	return c
}

// CountSegment sums CountStmt over a segment's statements.
func CountSegment(seg *Segment) OpCounts {
	var c OpCounts
	for _, s := range seg.Stmts {
		c.Add(CountStmt(s))
	}
	return c
}
