package interp

import (
	"fmt"

	"skope/internal/minilang"
)

// The engine never walks the minilang AST. New lowers the checked program
// once into the nodes below, resolving everything that stays the same
// between executions of a statement:
//
//   - every local (parameters, var declarations, loop variables) is a slot
//     in a per-call []float64 frame, and every scalar global a slot of the
//     engine's globals;
//   - every array reference holds its *Array;
//   - every simple statement holds the block ID of its segment, and every
//     if, for, while and exchange() its own block ID and Site, interned as
//     indexes into Engine.blockIDs;
//   - every operation holds its OpClass, vectorization context and int
//     truncation.
//
// Executing a statement therefore formats no string, looks up no map and
// allocates nothing; only a user-function call allocates, for its frame.

// noBlock marks a statement that switches no attribution block and, as the
// current block, forces the next block switch to be reported.
const noBlock = -1

type exprKind uint8

const (
	exConst    exprKind = iota
	exLocal             // frame slot
	exGlobal            // engine global slot
	exIndex             // array element
	exBinary            // arithmetic or comparison
	exLogical           // short-circuit && or ||
	exNot               // !x
	exNeg               // -x
	exBuiltin           // math-library call
	exExchange          // exchange(bytes, msgs)
	exCall              // user-function call
)

// expr is a lowered expression. Each kind uses the fields noted; the
// fields the evaluation of the common kinds reads come first, in the
// struct's first 64 bytes.
type expr struct {
	kind exprKind
	// isInt truncates an exBinary result, or an int element stored through
	// an exIndex.
	isInt bool
	lib   builtin        // exBuiltin
	op    minilang.BinOp // exBinary, exLogical
	// vec is the vectorization context of the operations this node
	// reports: the level of the innermost enclosing counted loop of its
	// function, VecNone outside loops.
	vec VecLevel
	// class is the OpClass an exBinary or exNeg node reports.
	class OpClass
	slot  int     // exLocal, exGlobal
	val   float64 // exConst
	x, y  *expr   // operands; builtin and exchange arguments
	arr   *Array  // exIndex
	index []*expr // exIndex: one index per dimension

	block int          // exExchange: the comm block
	pos   minilang.Pos // for runtime error texts
	// name is the array (exIndex) or library function (exBuiltin) name.
	name string
	fn   *function // exCall
	args []*expr   // exCall
}

type stmtKind uint8

const (
	stSetLocal  stmtKind = iota // var declaration or scalar local assignment
	stSetGlobal                 // scalar global assignment
	stSetIndex                  // array element assignment
	stExpr
	stFor
	stWhile
	stIf
	stReturn
	stBreak
	stContinue
)

// stmt is a lowered statement. Each kind uses the fields noted.
type stmt struct {
	kind stmtKind
	pos  minilang.Pos
	// seg is the segment block a simple statement enters, or noBlock.
	seg int
	// isInt truncates the stored (set) or returned (stReturn) value.
	isInt bool
	// slot is the stored-to slot of stSetLocal, stSetGlobal and stFor.
	slot int
	// x is the stored value, expression statement, branch or while
	// condition, or returned value (nil for a bare return).
	x    *expr
	elem *expr // stSetIndex: the element stored to
	// from, to and step (nil for 1) bound a stFor.
	from, to, step *expr
	// block and site identify an if, for or while for attribution and
	// profiling.
	block int
	site  string
	body  []*stmt // stFor, stWhile, stIf's then branch
	els   []*stmt // stIf's else branch, nil if absent
}

// function is a lowered user function.
type function struct {
	slots  int // frame size
	params []param
	body   []*stmt
}

type param struct {
	slot  int
	isInt bool
}

// builtin enumerates the math-library functions the engine evaluates.
type builtin uint8

const (
	libExp builtin = iota
	libLog
	libSqrt
	libSin
	libCos
	libAbs
	libFloor
	libPow
	libMin
	libMax
	libMod
	libRand
)

var builtins = map[string]builtin{
	"exp": libExp, "log": libLog, "sqrt": libSqrt, "sin": libSin, "cos": libCos,
	"abs": libAbs, "floor": libFloor, "pow": libPow, "min": libMin, "max": libMax,
	"mod": libMod, "rand": libRand,
}

// lowerer carries the resolution tables of one lowering pass. None of them
// outlives New.
type lowerer struct {
	e       *Engine
	globals map[string]int // scalar global slots
	funcs   map[*minilang.FuncDecl]*function
	blocks  map[string]int // interned block IDs

	// The function being lowered: its name, whether it returns int, its
	// local slots by name, and the vectorization context of the code being
	// lowered.
	fname  string
	retInt bool
	locals map[string]int
	vec    VecLevel
}

// lower resolves prog into e: global slots, the lowered functions, and
// e.main. Global initializers must have run, so arrays have storage.
func (e *Engine) lower(prog *minilang.Program) error {
	l := &lowerer{
		e:       e,
		globals: make(map[string]int),
		funcs:   make(map[*minilang.FuncDecl]*function, len(prog.Funcs)),
		blocks:  make(map[string]int),
	}
	for _, g := range prog.Globals {
		if !g.Type.IsArray() {
			l.globals[g.Name] = len(e.globalNames)
			e.globalNames = append(e.globalNames, g.Name)
		}
	}
	e.globals = make([]float64, len(e.globalNames))
	// Create every function first, so calls resolve whatever the order of
	// declaration.
	for _, f := range prog.Funcs {
		l.funcs[f] = &function{}
	}
	for _, f := range prog.Funcs {
		if err := l.function(f); err != nil {
			return fmt.Errorf("%s: %s: %v", prog.Source, f.Name, err)
		}
	}
	main := prog.FuncByName["main"]
	if main == nil {
		return fmt.Errorf("%s: no main function", prog.Source)
	}
	e.main = l.funcs[main]
	return nil
}

func (l *lowerer) function(f *minilang.FuncDecl) error {
	fn := l.funcs[f]
	l.fname, l.retInt = f.Name, f.Ret == minilang.TypeInt
	l.locals = make(map[string]int)
	l.vec = VecNone
	for _, p := range f.Params {
		fn.params = append(fn.params, param{slot: l.local(p.Name), isInt: p.Base == minilang.TypeInt})
	}
	body, err := l.block(f.Body)
	if err != nil {
		return err
	}
	fn.body = body
	fn.slots = len(l.locals)
	return nil
}

// local returns the frame slot of a local name. A function has one slot
// per distinct name, so an inner declaration that reuses an outer local's
// name shares its slot, and the inner value outlives the inner block (the
// coverage program of the event golden pins this).
func (l *lowerer) local(name string) int {
	s, ok := l.locals[name]
	if !ok {
		s = len(l.locals)
		l.locals[name] = s
	}
	return s
}

// intern returns the index of a block ID in e.blockIDs; equal IDs share an
// index, so the engine compares attribution blocks as integers.
func (l *lowerer) intern(id string) int {
	b, ok := l.blocks[id]
	if !ok {
		b = len(l.e.blockIDs)
		l.e.blockIDs = append(l.e.blockIDs, id)
		l.blocks[id] = b
	}
	return b
}

// block lowers a statement list.
func (l *lowerer) block(b *minilang.Block) ([]*stmt, error) {
	seg := make(map[minilang.Stmt]int)
	segs := minilang.SegmentsOf(l.fname, b)
	for i := range segs {
		id := l.intern(segs[i].BlockID())
		for _, s := range segs[i].Stmts {
			seg[s] = id
		}
	}
	out := make([]*stmt, len(b.Stmts))
	for i, s := range b.Stmts {
		st, err := l.stmt(s)
		if err != nil {
			return nil, err
		}
		st.seg = noBlock
		if id, ok := seg[s]; ok {
			st.seg = id
		}
		out[i] = st
	}
	return out, nil
}

func (l *lowerer) stmt(s minilang.Stmt) (*stmt, error) {
	st := &stmt{pos: s.StmtPos()}
	var err error
	switch t := s.(type) {
	case *minilang.VarDecl:
		st.kind = stSetLocal
		st.isInt = t.Base == minilang.TypeInt
		st.x = &expr{kind: exConst}
		if t.Init != nil {
			if st.x, err = l.expr(t.Init); err != nil {
				return nil, err
			}
		}
		st.slot = l.local(t.Name)

	case *minilang.Assign:
		if st.x, err = l.expr(t.RHS); err != nil {
			return nil, err
		}
		switch lhs := t.LHS.(type) {
		case *minilang.VarRef:
			st.isInt = lhs.ResultType() == minilang.TypeInt
			if lhs.Global {
				st.kind, st.slot = stSetGlobal, l.globals[lhs.Name]
			} else {
				st.kind, st.slot = stSetLocal, l.local(lhs.Name)
			}
		case *minilang.Index:
			st.kind = stSetIndex
			if st.elem, err = l.index(lhs); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%s: not assignable", t.LHS.ExprPos())
		}

	case *minilang.ExprStmt:
		st.kind = stExpr
		if st.x, err = l.expr(t.X); err != nil {
			return nil, err
		}

	case *minilang.For:
		st.kind = stFor
		st.block = l.intern(fmt.Sprintf("%s/for@L%d", l.fname, t.Pos.Line))
		st.site = Site(l.fname, t.Pos)
		if st.from, err = l.expr(t.From); err != nil {
			return nil, err
		}
		if st.to, err = l.expr(t.To); err != nil {
			return nil, err
		}
		if t.Step != nil {
			if st.step, err = l.expr(t.Step); err != nil {
				return nil, err
			}
		}
		st.slot = l.local(t.Var)
		// The loop's vector context applies to its own body only: a
		// nested loop re-decides from its own annotation or shape.
		outer := l.vec
		l.vec = loopVec(t)
		st.body, err = l.block(t.Body)
		l.vec = outer
		if err != nil {
			return nil, err
		}

	case *minilang.While:
		st.kind = stWhile
		st.block = l.intern(fmt.Sprintf("%s/while@L%d", l.fname, t.Pos.Line))
		st.site = Site(l.fname, t.Pos)
		if st.x, err = l.expr(t.Cond); err != nil {
			return nil, err
		}
		if st.body, err = l.block(t.Body); err != nil {
			return nil, err
		}

	case *minilang.If:
		st.kind = stIf
		st.block = l.intern(fmt.Sprintf("%s/if@L%d", l.fname, t.Pos.Line))
		st.site = Site(l.fname, t.Pos)
		if st.x, err = l.expr(t.Cond); err != nil {
			return nil, err
		}
		if st.body, err = l.block(t.Then); err != nil {
			return nil, err
		}
		if t.Else != nil {
			if st.els, err = l.block(t.Else); err != nil {
				return nil, err
			}
		}

	case *minilang.Return:
		st.kind = stReturn
		st.isInt = l.retInt
		if t.X != nil {
			if st.x, err = l.expr(t.X); err != nil {
				return nil, err
			}
		}

	case *minilang.Break:
		st.kind = stBreak

	case *minilang.Continue:
		st.kind = stContinue

	default:
		return nil, fmt.Errorf("%s: unhandled statement %T", s.StmtPos(), s)
	}
	return st, nil
}

// loopVec classifies a counted loop: @vec annotations are honoured by
// every machine; a clean body — a single straight-line segment with no
// control flow or user calls — is auto-vectorizable by aggressive
// compilers.
func loopVec(t *minilang.For) VecLevel {
	if t.Vec {
		return VecAnnotated
	}
	if len(t.Body.Stmts) == 0 {
		return VecNone
	}
	for _, s := range t.Body.Stmts {
		if !minilang.IsSimpleStmt(s) {
			return VecNone
		}
	}
	return VecAuto
}

func (l *lowerer) index(t *minilang.Index) (*expr, error) {
	arr := l.e.Arrays[t.Name]
	if arr == nil {
		return nil, fmt.Errorf("%s: no storage for array %q", t.Pos, t.Name)
	}
	x := &expr{kind: exIndex, arr: arr, name: t.Name, pos: t.Pos, vec: l.vec,
		isInt: t.ResultType() == minilang.TypeInt}
	for _, ix := range t.Indices {
		lx, err := l.expr(ix)
		if err != nil {
			return nil, err
		}
		x.index = append(x.index, lx)
	}
	return x, nil
}

func (l *lowerer) expr(x minilang.Expr) (*expr, error) {
	switch t := x.(type) {
	case *minilang.IntLit:
		return &expr{kind: exConst, val: float64(t.Val)}, nil

	case *minilang.FloatLit:
		return &expr{kind: exConst, val: t.Val}, nil

	case *minilang.VarRef:
		if t.Global {
			return &expr{kind: exGlobal, slot: l.globals[t.Name]}, nil
		}
		return &expr{kind: exLocal, slot: l.local(t.Name)}, nil

	case *minilang.Index:
		return l.index(t)

	case *minilang.Binary:
		lx, err := l.expr(t.L)
		if err != nil {
			return nil, err
		}
		rx, err := l.expr(t.R)
		if err != nil {
			return nil, err
		}
		if t.Op == minilang.OpAnd || t.Op == minilang.OpOr {
			return &expr{kind: exLogical, op: t.Op, x: lx, y: rx, vec: l.vec}, nil
		}
		class := OpInt
		if t.L.ResultType() == minilang.TypeFloat || t.R.ResultType() == minilang.TypeFloat {
			class = OpFloat
			if t.Op == minilang.OpDiv {
				class = OpFloatDiv
			}
		}
		return &expr{kind: exBinary, op: t.Op, x: lx, y: rx, class: class, vec: l.vec,
			isInt: t.ResultType() == minilang.TypeInt, pos: t.Pos}, nil

	case *minilang.Unary:
		ox, err := l.expr(t.X)
		if err != nil {
			return nil, err
		}
		if t.Op == "!" {
			return &expr{kind: exNot, x: ox, vec: l.vec}, nil
		}
		class := OpInt
		if t.X.ResultType() == minilang.TypeFloat {
			class = OpFloat
		}
		return &expr{kind: exNeg, x: ox, class: class, vec: l.vec}, nil

	case *minilang.Call:
		args := make([]*expr, len(t.Args))
		for i, a := range t.Args {
			la, err := l.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = la
		}
		if !t.Builtin {
			return &expr{kind: exCall, fn: l.funcs[t.Decl], args: args}, nil
		}
		if t.Name == "exchange" {
			// Communication is attributed to its own block, matching the
			// skeleton translator's comm statement.
			return &expr{kind: exExchange, x: args[0], y: args[1],
				block: l.intern(fmt.Sprintf("%s/comm@L%d", l.fname, t.Pos.Line))}, nil
		}
		lib, ok := builtins[t.Name]
		if !ok {
			return nil, fmt.Errorf("%s: unknown builtin %q", t.Pos, t.Name)
		}
		b := &expr{kind: exBuiltin, lib: lib, name: t.Name, pos: t.Pos, vec: l.vec}
		if len(args) > 0 {
			b.x = args[0]
		}
		if len(args) > 1 {
			b.y = args[1]
		}
		return b, nil
	}
	return nil, fmt.Errorf("%s: unhandled expression %T", x.ExprPos(), x)
}
