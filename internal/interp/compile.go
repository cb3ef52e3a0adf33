package interp

import (
	"fmt"
	"math"

	"skope/internal/minilang"
)

// New compiles the checked program once into Go closures, and Run only
// calls them: nothing walks the AST at run time. Compiling resolves
// everything that stays the same between executions of a statement:
//
//   - every local (parameters, var declarations, loop variables) is a slot
//     in a per-call []float64 frame, and every scalar global a slot of the
//     engine's globals;
//   - every array reference captures its *Array;
//   - every simple statement captures the block ID of its segment, and
//     every if, for, while and exchange() its own block ID and Site, with
//     block IDs interned as indexes into Engine.blockIDs;
//   - every operation captures its OpClass, vectorization context and int
//     truncation.
//
// Executing a statement therefore formats no string, looks up no map and
// allocates nothing; only a user-function call allocates, for its frame.
//
// Closures return plain values. A runtime error panics with a
// runtimeError where it is detected, and Run alone recovers it; any other
// panic passes through Run unchanged.
//
// The profiler keeps only branch outcomes and loop trip counts, so when
// the observer is a *Profiler the compiled code reports only Branch and
// LoopTrips; any other observer, a type that embeds *Profiler included,
// receives the full stream. On that profiler path alone, +, - and * and
// element addressing of rank 1 to 3 compile to dedicated closures that
// read local and constant operands inline.

// noBlock marks a statement that switches no attribution block and, as the
// current block, forces the next block switch to be reported. Without a
// full event stream every block is noBlock.
const noBlock = -1

// eval computes an expression and exec runs a statement, in the frame of
// the current call; exec reports how control leaves the statement.
type (
	eval func(fr []float64) float64
	exec func(fr []float64) control
)

// function is a compiled user function.
type function struct {
	slots  int // frame size
	params []param
	body   []exec
}

type param struct {
	slot  int
	isInt bool
}

// call runs fn in frame fr, whose parameter slots are already set.
func (e *Engine) call(fn *function, fr []float64) float64 {
	if runStmts(fr, fn.body) == ctrlReturn {
		return e.ret
	}
	return 0
}

// runStmts executes a statement list until a statement transfers control.
func runStmts(fr []float64, body []exec) control {
	for _, s := range body {
		if c := s(fr); c != ctrlNone {
			return c
		}
	}
	return ctrlNone
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

// compiler carries the resolution tables of one compilation. None of them
// outlives New.
type compiler struct {
	e *Engine
	// ev receives every event other than Branch and LoopTrips; nil when the
	// observer is a *Profiler, which ignores them.
	ev      Observer
	globals map[string]int // scalar global slots
	funcs   map[*minilang.FuncDecl]*function
	blocks  map[string]int // interned block IDs
	err     error          // the first compile error

	// The function being compiled: its name, whether it returns int, its
	// local slots by name, and the vectorization context of the code being
	// compiled.
	fname  string
	retInt bool
	locals map[string]int
	vec    VecLevel
}

// compile resolves prog into e: global slots, the compiled functions, and
// e.main. Global initializers must have run, so arrays have storage.
func (e *Engine) compile(prog *minilang.Program) error {
	c := &compiler{
		e:       e,
		ev:      e.obs,
		globals: make(map[string]int),
		funcs:   make(map[*minilang.FuncDecl]*function, len(prog.Funcs)),
		blocks:  make(map[string]int),
	}
	if _, ok := e.obs.(*Profiler); ok {
		c.ev = nil
	}
	for _, g := range prog.Globals {
		if !g.Type.IsArray() {
			c.globals[g.Name] = len(e.globalNames)
			e.globalNames = append(e.globalNames, g.Name)
		}
	}
	e.globals = make([]float64, len(e.globalNames))
	// Create every function first, so calls resolve whatever the order of
	// declaration.
	for _, f := range prog.Funcs {
		c.funcs[f] = &function{}
	}
	for _, f := range prog.Funcs {
		c.function(f)
		if c.err != nil {
			return fmt.Errorf("%s: %s: %v", prog.Source, f.Name, c.err)
		}
	}
	main := prog.FuncByName["main"]
	if main == nil {
		return fmt.Errorf("%s: no main function", prog.Source)
	}
	e.main = c.funcs[main]
	return nil
}

// fail records a compile error and returns a placeholder expression.
func (c *compiler) fail(pos minilang.Pos, format string, args ...any) eval {
	if c.err == nil {
		c.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
	return func([]float64) float64 { return 0 }
}

func (c *compiler) function(f *minilang.FuncDecl) {
	fn := c.funcs[f]
	c.fname, c.retInt = f.Name, f.Ret == minilang.TypeInt
	c.locals = make(map[string]int)
	c.vec = VecNone
	for _, p := range f.Params {
		fn.params = append(fn.params, param{slot: c.local(p.Name), isInt: p.Base == minilang.TypeInt})
	}
	fn.body = c.block(f.Body)
	fn.slots = len(c.locals)
}

// local returns the frame slot of a local name. A function has one slot
// per distinct name, so an inner declaration that reuses an outer local's
// name shares its slot, and the inner value outlives the inner block (the
// coverage program of the event golden pins this).
func (c *compiler) local(name string) int {
	s, ok := c.locals[name]
	if !ok {
		s = len(c.locals)
		c.locals[name] = s
	}
	return s
}

// intern returns the index of a block ID in e.blockIDs; equal IDs share an
// index, so the engine compares attribution blocks as integers. Without a
// full event stream every block is noBlock.
func (c *compiler) intern(id string) int {
	if c.ev == nil {
		return noBlock
	}
	b, ok := c.blocks[id]
	if !ok {
		b = len(c.e.blockIDs)
		c.e.blockIDs = append(c.e.blockIDs, id)
		c.blocks[id] = b
	}
	return b
}

// block compiles a statement list.
func (c *compiler) block(b *minilang.Block) []exec {
	seg := make(map[minilang.Stmt]int)
	for _, s := range minilang.SegmentsOf(c.fname, b) {
		id := c.intern(s.BlockID())
		for _, st := range s.Stmts {
			seg[st] = id
		}
	}
	out := make([]exec, len(b.Stmts))
	for i, s := range b.Stmts {
		id, ok := seg[s]
		if !ok {
			id = noBlock
		}
		out[i] = c.stmt(s, id)
	}
	return out
}

// stmt compiles one statement; seg is the segment block a simple statement
// enters, or noBlock.
func (c *compiler) stmt(s minilang.Stmt, seg int) exec {
	e, pos := c.e, s.StmtPos()
	switch t := s.(type) {
	case *minilang.VarDecl:
		x := c.expr(&minilang.FloatLit{})
		if t.Init != nil {
			x = c.expr(t.Init)
		}
		return setLocal(e, pos, seg, c.local(t.Name), t.Base == minilang.TypeInt, x)

	case *minilang.Assign:
		x := c.expr(t.RHS)
		switch lhs := t.LHS.(type) {
		case *minilang.VarRef:
			isInt := lhs.ResultType() == minilang.TypeInt
			if !lhs.Global {
				return setLocal(e, pos, seg, c.local(lhs.Name), isInt, x)
			}
			g, slot := e.globals, c.globals[lhs.Name]
			return func(fr []float64) control {
				e.begin(pos, seg)
				v := x(fr)
				if isInt {
					v = math.Trunc(v)
				}
				g[slot] = v
				return ctrlNone
			}
		case *minilang.Index:
			arr, at := c.element(lhs)
			isInt, ev := lhs.ResultType() == minilang.TypeInt, c.ev
			return func(fr []float64) control {
				e.begin(pos, seg)
				v := x(fr)
				off := at(fr)
				if isInt {
					v = math.Trunc(v)
				}
				if ev != nil {
					ev.Access(arr.Base+uint64(off)*uint64(arr.Elem), arr.Elem, true)
				}
				arr.Data[off] = v
				return ctrlNone
			}
		}
		c.fail(pos, "not assignable")

	case *minilang.ExprStmt:
		x := c.expr(t.X)
		return func(fr []float64) control {
			e.begin(pos, seg)
			x(fr)
			return ctrlNone
		}

	case *minilang.For:
		return c.forStmt(t)

	case *minilang.While:
		block := c.intern(fmt.Sprintf("%s/while@L%d", c.fname, t.Pos.Line))
		site, obs := Site(c.fname, t.Pos), e.obs
		cond, body := c.expr(t.Cond), c.block(t.Body)
		return func(fr []float64) control {
			e.tick(pos)
			var trips int64
			for {
				e.enter(block)
				if cond(fr) == 0 {
					break
				}
				trips++
				switch runStmts(fr, body) {
				case ctrlBreak:
					obs.LoopTrips(site, trips)
					return ctrlNone
				case ctrlReturn:
					obs.LoopTrips(site, trips)
					return ctrlReturn
				}
				e.tick(pos)
			}
			obs.LoopTrips(site, trips)
			return ctrlNone
		}

	case *minilang.If:
		block := c.intern(fmt.Sprintf("%s/if@L%d", c.fname, t.Pos.Line))
		site, obs := Site(c.fname, t.Pos), e.obs
		cond, then := c.expr(t.Cond), c.block(t.Then)
		var els []exec
		if t.Else != nil {
			els = c.block(t.Else)
		}
		return func(fr []float64) control {
			e.tick(pos)
			e.enter(block)
			taken := cond(fr) != 0
			obs.Branch(site, taken)
			if taken {
				return runStmts(fr, then)
			}
			return runStmts(fr, els)
		}

	case *minilang.Return:
		var x eval
		if t.X != nil {
			x = c.expr(t.X)
		}
		isInt := c.retInt
		return func(fr []float64) control {
			e.tick(pos)
			v := 0.0
			if x != nil {
				v = x(fr)
			}
			if isInt {
				v = math.Trunc(v)
			}
			e.ret = v
			return ctrlReturn
		}

	case *minilang.Break:
		return func([]float64) control {
			e.tick(pos)
			return ctrlBreak
		}

	case *minilang.Continue:
		return func([]float64) control {
			e.tick(pos)
			return ctrlContinue
		}

	default:
		c.fail(pos, "unhandled statement %T", s)
	}
	return func([]float64) control { return ctrlNone }
}

// setLocal compiles a store to a local: a var declaration or an
// assignment.
func setLocal(e *Engine, pos minilang.Pos, seg, slot int, isInt bool, x eval) exec {
	return func(fr []float64) control {
		e.begin(pos, seg)
		v := x(fr)
		if isInt {
			v = math.Trunc(v)
		}
		fr[slot] = v
		return ctrlNone
	}
}

func (c *compiler) forStmt(t *minilang.For) exec {
	e, pos := c.e, t.Pos
	block := c.intern(fmt.Sprintf("%s/for@L%d", c.fname, t.Pos.Line))
	site, obs, ev := Site(c.fname, t.Pos), e.obs, c.ev
	from, to := c.expr(t.From), c.expr(t.To)
	step := c.expr(&minilang.IntLit{Val: 1})
	if t.Step != nil {
		step = c.expr(t.Step)
	}
	slot := c.local(t.Var)
	// The loop's vector context applies to its own body only: a nested
	// loop re-decides from its own annotation or shape.
	outer := c.vec
	c.vec = loopVec(t)
	body := c.block(t.Body)
	c.vec = outer

	return func(fr []float64) control {
		e.tick(pos)
		e.enter(block)
		lo, hi, st := from(fr), to(fr), math.Trunc(step(fr))
		switch {
		case st == 0:
			e.fail(pos, "for step is zero")
		case math.IsNaN(st):
			e.fail(pos, "for step is %g", st)
		// A NaN bound fails every comparison, so the loop would silently
		// run zero trips.
		case math.IsNaN(lo):
			e.fail(pos, "for start is %g", lo)
		case math.IsNaN(hi):
			e.fail(pos, "for bound is %g", hi)
		}
		i, hi := math.Trunc(lo), math.Trunc(hi)
		var trips int64
		for (st > 0 && i < hi) || (st < 0 && i > hi) {
			if ev != nil {
				// Loop bookkeeping: compare + increment.
				e.enter(block)
				ev.Op(OpInt, VecNone)
				ev.Op(OpInt, VecNone)
			}
			fr[slot] = i
			trips++
			switch runStmts(fr, body) {
			case ctrlBreak:
				obs.LoopTrips(site, trips)
				return ctrlNone
			case ctrlReturn:
				obs.LoopTrips(site, trips)
				return ctrlReturn
			}
			i += st
			e.tick(pos)
		}
		obs.LoopTrips(site, trips)
		return ctrlNone
	}
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

func (c *compiler) expr(x minilang.Expr) eval {
	e := c.e
	switch t := x.(type) {
	case *minilang.IntLit:
		v := float64(t.Val)
		return func([]float64) float64 { return v }

	case *minilang.FloatLit:
		v := t.Val
		return func([]float64) float64 { return v }

	case *minilang.VarRef:
		if t.Global {
			g, slot := e.globals, c.globals[t.Name]
			return func([]float64) float64 { return g[slot] }
		}
		slot := c.local(t.Name)
		return func(fr []float64) float64 { return fr[slot] }

	case *minilang.Index:
		arr, at := c.element(t)
		if ev := c.ev; ev != nil {
			return func(fr []float64) float64 {
				off := at(fr)
				ev.Access(arr.Base+uint64(off)*uint64(arr.Elem), arr.Elem, false)
				return arr.Data[off]
			}
		}
		return func(fr []float64) float64 { return arr.Data[at(fr)] }

	case *minilang.Binary:
		return c.binary(t)

	case *minilang.Unary:
		v, ev, vec := c.expr(t.X), c.ev, c.vec
		if t.Op == "!" {
			return func(fr []float64) float64 {
				x := v(fr)
				if ev != nil {
					ev.Op(OpInt, vec)
				}
				return b2f(x == 0)
			}
		}
		class := OpInt
		if t.X.ResultType() == minilang.TypeFloat {
			class = OpFloat
		}
		return func(fr []float64) float64 {
			x := v(fr)
			if ev != nil {
				ev.Op(class, vec)
			}
			return -x
		}

	case *minilang.Call:
		return c.call(t)
	}
	return c.fail(x.ExprPos(), "unhandled expression %T", x)
}

func (c *compiler) binary(t *minilang.Binary) eval {
	e, ev, vec := c.e, c.ev, c.vec
	if t.Op == minilang.OpAnd || t.Op == minilang.OpOr {
		l, r, and := c.expr(t.L), c.expr(t.R), t.Op == minilang.OpAnd
		return func(fr []float64) float64 {
			v := l(fr)
			if ev != nil {
				ev.Op(OpInt, vec)
			}
			if and && v == 0 {
				return 0
			}
			if !and && v != 0 {
				return 1
			}
			return b2f(r(fr) != 0)
		}
	}
	isInt := t.ResultType() == minilang.TypeInt
	if ev == nil {
		if f := c.arith(t.Op, isInt, t.L, t.R); f != nil {
			return f
		}
	}
	class := OpInt
	if t.L.ResultType() == minilang.TypeFloat || t.R.ResultType() == minilang.TypeFloat {
		class = OpFloat
		if t.Op == minilang.OpDiv {
			class = OpFloatDiv
		}
	}
	l, r, op, pos := c.expr(t.L), c.expr(t.R), t.Op, t.Pos
	return func(fr []float64) float64 {
		a, b := l(fr), r(fr)
		if ev != nil {
			ev.Op(class, vec)
		}
		v, err := applyBinary(op, isInt, a, b)
		if err != nil {
			e.fail(pos, "%v", err)
		}
		return v
	}
}

// arith compiles +, - and * on the profiler path to one closure per
// operator and type; it returns nil for any other operator.
func (c *compiler) arith(op minilang.BinOp, isInt bool, l, r minilang.Expr) eval {
	if op != minilang.OpAdd && op != minilang.OpSub && op != minilang.OpMul {
		return nil
	}
	a, b := c.operand(l), c.operand(r)
	switch {
	case op == minilang.OpAdd && isInt:
		return func(fr []float64) float64 { return math.Trunc(a.read(fr) + b.read(fr)) }
	case op == minilang.OpAdd:
		return func(fr []float64) float64 { return a.read(fr) + b.read(fr) }
	case op == minilang.OpSub && isInt:
		return func(fr []float64) float64 { return math.Trunc(a.read(fr) - b.read(fr)) }
	case op == minilang.OpSub:
		return func(fr []float64) float64 { return a.read(fr) - b.read(fr) }
	case isInt:
		return func(fr []float64) float64 { return math.Trunc(a.read(fr) * b.read(fr)) }
	}
	return func(fr []float64) float64 { return a.read(fr) * b.read(fr) }
}

// operand is an operand of arithmetic or indexing on the profiler path:
// its closure, or, for a local or a constant, what the using closure reads
// inline.
type operand struct {
	f    eval
	slot int // the local's frame slot; -1 for a constant
	val  float64
}

func (o operand) read(fr []float64) float64 {
	if o.f != nil {
		return o.f(fr)
	}
	if o.slot >= 0 {
		return fr[o.slot]
	}
	return o.val
}

func (c *compiler) operand(x minilang.Expr) operand {
	switch t := x.(type) {
	case *minilang.IntLit:
		return operand{slot: -1, val: float64(t.Val)}
	case *minilang.FloatLit:
		return operand{slot: -1, val: t.Val}
	case *minilang.VarRef:
		if !t.Global {
			return operand{slot: c.local(t.Name)}
		}
	}
	return operand{f: c.expr(x)}
}

// element compiles the address of an array element: the array, and a
// closure that evaluates and range-checks the indexes and returns the
// element's flat offset.
func (c *compiler) element(t *minilang.Index) (*Array, func(fr []float64) int64) {
	e, pos, name := c.e, t.Pos, t.Name
	arr := e.Arrays[t.Name]
	if arr == nil {
		c.fail(pos, "no storage for array %q", t.Name)
		return &Array{Data: make([]float64, 1)}, func([]float64) int64 { return 0 }
	}
	ext := arr.Extents
	if c.ev == nil && len(t.Indices) <= 3 {
		ix := make([]operand, 3)
		for d, x := range t.Indices {
			ix[d] = c.operand(x)
		}
		i, j, k := ix[0], ix[1], ix[2]
		switch len(t.Indices) {
		case 1:
			ni := float64(ext[0])
			return arr, func(fr []float64) int64 {
				v := i.read(fr)
				if !(v > -1 && v < ni) {
					e.indexErr(pos, name, ext, 0, v)
				}
				return int64(v)
			}
		case 2:
			ni, nj := float64(ext[0]), float64(ext[1])
			return arr, func(fr []float64) int64 {
				v := i.read(fr)
				if !(v > -1 && v < ni) {
					e.indexErr(pos, name, ext, 0, v)
				}
				w := j.read(fr)
				if !(w > -1 && w < nj) {
					e.indexErr(pos, name, ext, 1, w)
				}
				return int64(v)*ext[1] + int64(w)
			}
		case 3:
			ni, nj, nk := float64(ext[0]), float64(ext[1]), float64(ext[2])
			return arr, func(fr []float64) int64 {
				v := i.read(fr)
				if !(v > -1 && v < ni) {
					e.indexErr(pos, name, ext, 0, v)
				}
				w := j.read(fr)
				if !(w > -1 && w < nj) {
					e.indexErr(pos, name, ext, 1, w)
				}
				u := k.read(fr)
				if !(u > -1 && u < nk) {
					e.indexErr(pos, name, ext, 2, u)
				}
				return (int64(v)*ext[1]+int64(w))*ext[2] + int64(u)
			}
		}
	}
	idx := make([]eval, len(t.Indices))
	for d, x := range t.Indices {
		idx[d] = c.expr(x)
	}
	ev, vec := c.ev, c.vec
	return arr, func(fr []float64) int64 {
		var off int64
		for d, x := range idx {
			v := x(fr)
			// Address arithmetic: one int op per dimension.
			if ev != nil {
				ev.Op(OpInt, vec)
			}
			// The index is v truncated toward zero. Check its range in
			// floating point, which also rejects NaN and infinities: Go
			// leaves their conversion to int64 implementation-defined.
			n := ext[d]
			if !(v > -1 && v < float64(n)) {
				e.indexErr(pos, name, ext, d, v)
			}
			off = off*n + int64(v)
		}
		return off
	}
}

func (c *compiler) call(t *minilang.Call) eval {
	e, ev := c.e, c.ev
	args := make([]eval, len(t.Args))
	for i, a := range t.Args {
		args[i] = c.expr(a)
	}
	if !t.Builtin {
		callee := c.funcs[t.Decl]
		return func(fr []float64) float64 {
			// The callee's frame is its only allocation; arguments land in
			// their parameter slots directly.
			frame := make([]float64, callee.slots)
			for i, a := range args {
				v := a(fr)
				p := callee.params[i]
				if p.isInt {
					v = math.Trunc(v)
				}
				frame[p.slot] = v
			}
			v := e.call(callee, frame)
			// Attribution moved to the callee: force re-attribution on
			// return.
			e.cur = noBlock
			return v
		}
	}
	if t.Name == "exchange" {
		// Communication is attributed to its own block, matching the
		// skeleton translator's comm statement.
		block := c.intern(fmt.Sprintf("%s/comm@L%d", c.fname, t.Pos.Line))
		bytes, msgs := args[0], args[1]
		return func(fr []float64) float64 {
			b, m := bytes(fr), msgs(fr)
			if ev != nil {
				e.enter(block)
				ev.Comm(b, m)
			}
			return 0
		}
	}
	lib, ok := builtins[t.Name]
	if !ok {
		return c.fail(t.Pos, "unknown builtin %q", t.Name)
	}
	var a, b eval
	if len(args) > 0 {
		a = args[0]
	}
	if len(args) > 1 {
		b = args[1]
	}
	name, pos, vec := t.Name, t.Pos, c.vec
	return func(fr []float64) float64 {
		var x, y float64
		if a != nil {
			x = a(fr)
		}
		if b != nil {
			y = b(fr)
		}
		if ev != nil {
			ev.LibCall(name, vec)
		}
		return e.callBuiltin(lib, pos, x, y)
	}
}
