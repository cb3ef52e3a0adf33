// Package interp implements the execution engine for minilang programs,
// parameterized by an Observer that receives fine-grained dynamic events:
// arithmetic operations, memory accesses with concrete addresses, library
// calls, branch outcomes, and loop trip counts. New lowers the checked
// program once into resolved nodes (lower.go); Run executes only those.
//
// Two consumers plug into the engine:
//
//   - the branch profiler (Profile in this package), the paper's gcov
//     substitute: it listens only to branch and loop events and produces the
//     hardware-independent statistics folded into code skeletons;
//   - the machine timing simulator (package sim), the paper's physical
//     validation machine substitute: it listens to every event, drives a
//     cache hierarchy with the observed addresses, and attributes cycles to
//     source blocks.
package interp

import (
	"context"
	"fmt"
	"math"

	"skope/internal/guard"
	"skope/internal/minilang"
)

// OpClass classifies dynamic arithmetic operations.
type OpClass int

// Operation classes reported to observers.
const (
	OpFloat    OpClass = iota // FP add/sub/mul/compare
	OpFloatDiv                // FP division
	OpInt                     // integer op (arith, compare, addressing)
)

func (c OpClass) String() string {
	switch c {
	case OpFloat:
		return "fp"
	case OpFloatDiv:
		return "fdiv"
	case OpInt:
		return "int"
	}
	return "op?"
}

// VecLevel describes the vectorization context of a dynamic operation.
// Machine models decide what to credit: VecAnnotated loops (@vec) are
// vectorized by every compiler; VecAuto loops (clean single-segment bodies
// without control flow) are vectorized only by aggressive compilers (the
// paper's "highly vectorized by default" Xeon toolchain vs the selective
// IBM XL on BG/Q).
type VecLevel int

// Vectorization contexts.
const (
	VecNone VecLevel = iota
	VecAuto
	VecAnnotated
)

func (v VecLevel) String() string {
	switch v {
	case VecNone:
		return "scalar"
	case VecAuto:
		return "auto-vec"
	case VecAnnotated:
		return "annotated-vec"
	}
	return "vec?"
}

// Observer receives dynamic execution events. Implementations must be cheap;
// the engine calls them in the hot path.
type Observer interface {
	// EnterBlock reports that subsequent events belong to the source block
	// with the given ID ("<func>/L<line>" for segments, "<func>/for@L<n>"
	// and "<func>/if@L<n>" for control overhead).
	EnterBlock(id string)
	// Op reports one arithmetic operation with its vectorization context.
	Op(class OpClass, vec VecLevel)
	// Access reports a data memory access at a byte address.
	Access(addr uint64, size int, store bool)
	// LibCall reports a math-library invocation with its vector context.
	LibCall(name string, vec VecLevel)
	// Comm reports a communication phase: msgs messages totaling bytes
	// bytes (the exchange() builtin; multi-node modeling extension).
	Comm(bytes, msgs float64)
	// Branch reports an if outcome at the given site.
	Branch(site string, taken bool)
	// LoopTrips reports a completed loop execution and its trip count.
	LoopTrips(site string, trips int64)
}

// NopObserver is an Observer that ignores everything; embed it to implement
// only some events.
type NopObserver struct{}

// EnterBlock implements Observer.
func (NopObserver) EnterBlock(string) {}

// Op implements Observer.
func (NopObserver) Op(OpClass, VecLevel) {}

// Access implements Observer.
func (NopObserver) Access(uint64, int, bool) {}

// LibCall implements Observer.
func (NopObserver) LibCall(string, VecLevel) {}

// Comm implements Observer.
func (NopObserver) Comm(float64, float64) {}

// Branch implements Observer.
func (NopObserver) Branch(string, bool) {}

// LoopTrips implements Observer.
func (NopObserver) LoopTrips(string, int64) {}

// Site formats a control-site key: "<func>@<line>:<col>". Branch and loop
// statistics are keyed by site.
func Site(funcName string, pos minilang.Pos) string {
	return fmt.Sprintf("%s@%d:%d", funcName, pos.Line, pos.Col)
}

// Array is a runtime global array: flat row-major float64 storage plus its
// simulated base address.
type Array struct {
	Data    []float64
	Extents []int64
	Base    uint64
	Elem    int // element size in bytes (8)
}

// Options configure an engine run.
type Options struct {
	// MaxSteps bounds total executed statements to catch runaway loops
	// (default 2^34).
	MaxSteps int64
	// Seed seeds the deterministic rand() stream (default 1).
	Seed uint64
	// Observer receives events; nil means no observation.
	Observer Observer
	// Ctx bounds the run: cancellation or a deadline stops execution within
	// ctxCheckMask+1 statements (default context.Background()).
	Ctx context.Context
}

// Engine executes a checked minilang program.
type Engine struct {
	src string // the program's source name, for error texts
	obs Observer

	// Globals holds scalar globals by name: values set before Run are the
	// program's inputs, and Run leaves the final values here.
	Globals map[string]float64
	// Arrays holds array globals by name. Run reads and writes these
	// arrays' Data in place.
	Arrays map[string]*Array

	rng      uint64
	steps    int64
	maxSteps int64
	ctx      context.Context

	// The lowered program: main, the scalar global slots and their names,
	// and the attribution block IDs that lowered nodes index.
	main        *function
	globals     []float64
	globalNames []string
	blockIDs    []string
	// cur is the index of the current attribution block, or noBlock.
	cur int
}

// New prepares an engine: evaluates global initializers in declaration
// order, allocates arrays, and lowers the program for execution. The
// program must have passed minilang.Check.
func New(prog *minilang.Program, opts *Options) (*Engine, error) {
	e := &Engine{
		src:      prog.Source,
		Globals:  make(map[string]float64),
		Arrays:   make(map[string]*Array),
		rng:      1,
		maxSteps: 1 << 34,
		ctx:      context.Background(),
		cur:      noBlock,
	}
	if opts != nil {
		if opts.MaxSteps > 0 {
			e.maxSteps = opts.MaxSteps
		}
		if opts.Seed != 0 {
			e.rng = opts.Seed
		}
		if opts.Ctx != nil {
			e.ctx = opts.Ctx
		}
		e.obs = opts.Observer
	}
	if e.obs == nil {
		e.obs = NopObserver{}
	}

	// Initialize globals in order; array extents may reference previously
	// declared scalars.
	var base uint64 = 1 << 12 // leave page zero unused
	for _, g := range prog.Globals {
		if !g.Type.IsArray() {
			v := 0.0
			if g.Init != nil {
				var err error
				v, err = e.constEval(g.Init)
				if err != nil {
					return nil, fmt.Errorf("%s: global %s: %v", prog.Source, g.Name, err)
				}
			}
			if g.Type.Base == minilang.TypeInt {
				v = math.Trunc(v)
			}
			e.Globals[g.Name] = v
			continue
		}
		arr := &Array{Elem: 8}
		total := int64(1)
		for _, ex := range g.Type.Extents {
			v, err := e.constEval(ex)
			if err != nil {
				return nil, fmt.Errorf("%s: extent of %s: %v", prog.Source, g.Name, err)
			}
			n := int64(math.Trunc(v))
			if n <= 0 {
				return nil, fmt.Errorf("%s: array %s has non-positive extent %d", prog.Source, g.Name, n)
			}
			arr.Extents = append(arr.Extents, n)
			total *= n
			if total > 1<<31 {
				return nil, fmt.Errorf("%s: array %s too large (%d elements)", prog.Source, g.Name, total)
			}
		}
		arr.Data = make([]float64, total)
		arr.Base = base
		base += uint64(total*int64(arr.Elem)+4095) &^ 4095 // page-align next array
		e.Arrays[g.Name] = arr
	}

	if err := e.lower(prog); err != nil {
		return nil, err
	}
	return e, nil
}

// constEval evaluates global-declaration expressions (literals, previously
// initialized globals, arithmetic).
func (e *Engine) constEval(x minilang.Expr) (float64, error) {
	switch t := x.(type) {
	case *minilang.IntLit:
		return float64(t.Val), nil
	case *minilang.FloatLit:
		return t.Val, nil
	case *minilang.VarRef:
		v, ok := e.Globals[t.Name]
		if !ok {
			return 0, fmt.Errorf("reference to uninitialized global %q", t.Name)
		}
		return v, nil
	case *minilang.Binary:
		l, err := e.constEval(t.L)
		if err != nil {
			return 0, err
		}
		r, err := e.constEval(t.R)
		if err != nil {
			return 0, err
		}
		return applyBinary(t.Op, t.ResultType() == minilang.TypeInt, l, r)
	case *minilang.Unary:
		v, err := e.constEval(t.X)
		if err != nil {
			return 0, err
		}
		if t.Op == "!" {
			return b2f(v == 0), nil
		}
		return -v, nil
	}
	return 0, fmt.Errorf("unsupported constant expression %T", x)
}

// Run executes main(). It may be called once per engine.
func (e *Engine) Run() error {
	for i, name := range e.globalNames {
		e.globals[i] = e.Globals[name]
	}
	_, err := e.call(e.main, make([]float64, e.main.slots))
	for i, name := range e.globalNames {
		e.Globals[name] = e.globals[i]
	}
	return err
}

// Steps returns the number of statements executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// control is the non-local control outcome of statement execution.
type control int

const (
	ctrlNone control = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func (e *Engine) errf(pos minilang.Pos, format string, args ...any) error {
	return fmt.Errorf("%s:%s: runtime: %s", e.src, pos, fmt.Sprintf(format, args...))
}

// ctxCheckMask gates the cancellation check to every 1024th statement: fine
// enough that a deadline lands within microseconds, coarse enough to keep
// ctx.Err() out of the interpreter's hot path.
const ctxCheckMask = 1<<10 - 1

// budget charges one statement against the step budget and, periodically,
// against the run's context deadline.
func (e *Engine) budget(pos minilang.Pos) error {
	e.steps++
	if e.steps > e.maxSteps || e.steps&ctxCheckMask == 0 {
		return e.checkpoint(pos)
	}
	return nil
}

// checkpoint is budget's slow path: the step limit, then the periodic
// fault-injection point (no-op unless a test arms "interp.step") and
// context check.
func (e *Engine) checkpoint(pos minilang.Pos) error {
	if e.steps > e.maxSteps {
		return e.errf(pos, "step budget exceeded (%d); runaway loop?", e.maxSteps)
	}
	guard.Hit("interp.step", e.src)
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("%s:%s: %w", e.src, pos, err)
	}
	return nil
}

// enter switches attribution to block b, if needed.
func (e *Engine) enter(b int) {
	if b != e.cur {
		e.cur = b
		e.obs.EnterBlock(e.blockIDs[b])
	}
}

// call runs fn in frame fr, whose parameter slots are already set.
func (e *Engine) call(fn *function, fr []float64) (float64, error) {
	ret, ctrl, err := e.execBlock(fr, fn.body)
	if err != nil {
		return 0, err
	}
	if ctrl == ctrlReturn {
		return ret, nil
	}
	return 0, nil
}

func (e *Engine) execBlock(fr []float64, body []*stmt) (float64, control, error) {
	for _, s := range body {
		ret, ctrl, err := e.exec(fr, s)
		if err != nil || ctrl != ctrlNone {
			return ret, ctrl, err
		}
	}
	return 0, ctrlNone, nil
}

func (e *Engine) exec(fr []float64, s *stmt) (float64, control, error) {
	if err := e.budget(s.pos); err != nil {
		return 0, ctrlNone, err
	}
	if s.seg != noBlock {
		e.enter(s.seg)
	}
	switch s.kind {
	case stSetLocal, stSetGlobal:
		v, err := e.eval(fr, s.x)
		if err != nil {
			return 0, ctrlNone, err
		}
		if s.isInt {
			v = math.Trunc(v)
		}
		if s.kind == stSetLocal {
			fr[s.slot] = v
		} else {
			e.globals[s.slot] = v
		}
		return 0, ctrlNone, nil

	case stSetIndex:
		v, err := e.eval(fr, s.x)
		if err != nil {
			return 0, ctrlNone, err
		}
		x := s.elem
		off, err := e.element(fr, x)
		if err != nil {
			return 0, ctrlNone, err
		}
		if x.isInt {
			v = math.Trunc(v)
		}
		e.obs.Access(x.arr.Base+uint64(off)*uint64(x.arr.Elem), x.arr.Elem, true)
		x.arr.Data[off] = v
		return 0, ctrlNone, nil

	case stExpr:
		_, err := e.eval(fr, s.x)
		return 0, ctrlNone, err

	case stFor:
		return e.execFor(fr, s)

	case stWhile:
		return e.execWhile(fr, s)

	case stIf:
		e.enter(s.block)
		cond, err := e.eval(fr, s.x)
		if err != nil {
			return 0, ctrlNone, err
		}
		taken := cond != 0
		e.obs.Branch(s.site, taken)
		if taken {
			return e.execBlock(fr, s.body)
		}
		if s.els != nil {
			return e.execBlock(fr, s.els)
		}
		return 0, ctrlNone, nil

	case stReturn:
		if s.x != nil {
			v, err := e.eval(fr, s.x)
			if err != nil {
				return 0, ctrlNone, err
			}
			if s.isInt {
				v = math.Trunc(v)
			}
			return v, ctrlReturn, nil
		}
		return 0, ctrlReturn, nil

	case stBreak:
		return 0, ctrlBreak, nil

	case stContinue:
		return 0, ctrlContinue, nil
	}
	return 0, ctrlNone, e.errf(s.pos, "unhandled statement kind %d", s.kind)
}

func (e *Engine) execFor(fr []float64, s *stmt) (float64, control, error) {
	e.enter(s.block)
	from, err := e.eval(fr, s.from)
	if err != nil {
		return 0, ctrlNone, err
	}
	to, err := e.eval(fr, s.to)
	if err != nil {
		return 0, ctrlNone, err
	}
	step := 1.0
	if s.step != nil {
		step, err = e.eval(fr, s.step)
		if err != nil {
			return 0, ctrlNone, err
		}
	}
	step = math.Trunc(step)
	if step == 0 {
		return 0, ctrlNone, e.errf(s.pos, "for step is zero")
	}
	if math.IsNaN(step) {
		return 0, ctrlNone, e.errf(s.pos, "for step is %g", step)
	}
	// A NaN bound fails every comparison, so the loop would silently run
	// zero trips.
	if math.IsNaN(from) {
		return 0, ctrlNone, e.errf(s.pos, "for start is %g", from)
	}
	if math.IsNaN(to) {
		return 0, ctrlNone, e.errf(s.pos, "for bound is %g", to)
	}
	i := math.Trunc(from)
	to = math.Trunc(to)
	var trips int64
	for (step > 0 && i < to) || (step < 0 && i > to) {
		// Loop bookkeeping: compare + increment.
		e.enter(s.block)
		e.obs.Op(OpInt, VecNone)
		e.obs.Op(OpInt, VecNone)
		fr[s.slot] = i
		trips++
		ret, ctrl, err := e.execBlock(fr, s.body)
		if err != nil {
			return 0, ctrlNone, err
		}
		switch ctrl {
		case ctrlBreak:
			e.obs.LoopTrips(s.site, trips)
			return 0, ctrlNone, nil
		case ctrlReturn:
			e.obs.LoopTrips(s.site, trips)
			return ret, ctrlReturn, nil
		}
		i += step
		if err := e.budget(s.pos); err != nil {
			return 0, ctrlNone, err
		}
	}
	e.obs.LoopTrips(s.site, trips)
	return 0, ctrlNone, nil
}

func (e *Engine) execWhile(fr []float64, s *stmt) (float64, control, error) {
	var trips int64
	for {
		e.enter(s.block)
		cond, err := e.eval(fr, s.x)
		if err != nil {
			return 0, ctrlNone, err
		}
		if cond == 0 {
			break
		}
		trips++
		ret, ctrl, err := e.execBlock(fr, s.body)
		if err != nil {
			return 0, ctrlNone, err
		}
		switch ctrl {
		case ctrlBreak:
			e.obs.LoopTrips(s.site, trips)
			return 0, ctrlNone, nil
		case ctrlReturn:
			e.obs.LoopTrips(s.site, trips)
			return ret, ctrlReturn, nil
		}
		if err := e.budget(s.pos); err != nil {
			return 0, ctrlNone, err
		}
	}
	e.obs.LoopTrips(s.site, trips)
	return 0, ctrlNone, nil
}

// element evaluates and bounds-checks an exIndex node's index list and
// returns the element's flat offset in x.arr.
func (e *Engine) element(fr []float64, x *expr) (int64, error) {
	var off int64
	for d, ix := range x.index {
		v, err := e.eval(fr, ix)
		if err != nil {
			return 0, err
		}
		// Address arithmetic: one int op per dimension.
		e.obs.Op(OpInt, x.vec)
		// The index is v truncated toward zero. Check its range in
		// floating point, which also rejects NaN and infinities: Go leaves
		// their conversion to int64 implementation-defined.
		n := x.arr.Extents[d]
		if !(v > -1 && v < float64(n)) {
			return 0, e.indexErr(x, d, v)
		}
		off = off*n + int64(v)
	}
	return off, nil
}

// indexErr reports why v is not a valid index in dimension d of x.
func (e *Engine) indexErr(x *expr, d int, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return e.errf(x.pos, "index %g is not finite in dimension %d of %q", v, d, x.name)
	}
	return e.errf(x.pos, "index %.0f out of range [0,%d) in dimension %d of %q",
		math.Trunc(v), x.arr.Extents[d], d, x.name)
}

func (e *Engine) eval(fr []float64, x *expr) (float64, error) {
	switch x.kind {
	case exConst:
		return x.val, nil

	case exLocal:
		return fr[x.slot], nil

	case exGlobal:
		return e.globals[x.slot], nil

	case exIndex:
		off, err := e.element(fr, x)
		if err != nil {
			return 0, err
		}
		e.obs.Access(x.arr.Base+uint64(off)*uint64(x.arr.Elem), x.arr.Elem, false)
		return x.arr.Data[off], nil

	case exBinary:
		l, err := e.eval(fr, x.x)
		if err != nil {
			return 0, err
		}
		r, err := e.eval(fr, x.y)
		if err != nil {
			return 0, err
		}
		e.obs.Op(x.class, x.vec)
		v, err := applyBinary(x.op, x.isInt, l, r)
		if err != nil {
			return 0, e.errf(x.pos, "%v", err)
		}
		return v, nil

	case exLogical:
		l, err := e.eval(fr, x.x)
		if err != nil {
			return 0, err
		}
		e.obs.Op(OpInt, x.vec)
		if x.op == minilang.OpAnd && l == 0 {
			return 0, nil
		}
		if x.op == minilang.OpOr && l != 0 {
			return 1, nil
		}
		r, err := e.eval(fr, x.y)
		if err != nil {
			return 0, err
		}
		return b2f(r != 0), nil

	case exNot:
		v, err := e.eval(fr, x.x)
		if err != nil {
			return 0, err
		}
		e.obs.Op(OpInt, x.vec)
		return b2f(v == 0), nil

	case exNeg:
		v, err := e.eval(fr, x.x)
		if err != nil {
			return 0, err
		}
		e.obs.Op(x.class, x.vec)
		return -v, nil

	case exBuiltin:
		var a, b float64
		var err error
		if x.x != nil {
			if a, err = e.eval(fr, x.x); err != nil {
				return 0, err
			}
		}
		if x.y != nil {
			if b, err = e.eval(fr, x.y); err != nil {
				return 0, err
			}
		}
		e.obs.LibCall(x.name, x.vec)
		return e.callBuiltin(x, a, b)

	case exExchange:
		bytes, err := e.eval(fr, x.x)
		if err != nil {
			return 0, err
		}
		msgs, err := e.eval(fr, x.y)
		if err != nil {
			return 0, err
		}
		e.enter(x.block)
		e.obs.Comm(bytes, msgs)
		return 0, nil

	case exCall:
		// The callee's frame is its only allocation; arguments land in
		// their parameter slots directly.
		callee := x.fn
		frame := make([]float64, callee.slots)
		for i, a := range x.args {
			v, err := e.eval(fr, a)
			if err != nil {
				return 0, err
			}
			p := callee.params[i]
			if p.isInt {
				v = math.Trunc(v)
			}
			frame[p.slot] = v
		}
		v, err := e.call(callee, frame)
		// Attribution moved to the callee: force re-attribution on return.
		e.cur = noBlock
		return v, err
	}
	return 0, e.errf(x.pos, "unhandled expression kind %d", x.kind)
}

func applyBinary(op minilang.BinOp, isInt bool, l, r float64) (float64, error) {
	switch op {
	case minilang.OpAdd:
		return truncIf(l+r, isInt), nil
	case minilang.OpSub:
		return truncIf(l-r, isInt), nil
	case minilang.OpMul:
		return truncIf(l*r, isInt), nil
	case minilang.OpDiv:
		if isInt {
			if r == 0 {
				return 0, fmt.Errorf("integer division by zero")
			}
			return math.Trunc(l / r), nil
		}
		return l / r, nil // IEEE semantics for float
	case minilang.OpRem:
		if r == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return math.Mod(l, r), nil
	case minilang.OpLt:
		return b2f(l < r), nil
	case minilang.OpLe:
		return b2f(l <= r), nil
	case minilang.OpGt:
		return b2f(l > r), nil
	case minilang.OpGe:
		return b2f(l >= r), nil
	case minilang.OpEq:
		return b2f(l == r), nil
	case minilang.OpNe:
		return b2f(l != r), nil
	}
	return 0, fmt.Errorf("unhandled operator %s", op)
}

func truncIf(v float64, isInt bool) float64 {
	if isInt {
		return math.Trunc(v)
	}
	return v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// callBuiltin applies an exBuiltin node's function to its evaluated
// arguments (a and b; unused ones are zero).
func (e *Engine) callBuiltin(x *expr, a, b float64) (float64, error) {
	switch x.lib {
	case libExp:
		return math.Exp(a), nil
	case libLog:
		if a <= 0 {
			return 0, e.errf(x.pos, "log of non-positive value %g", a)
		}
		return math.Log(a), nil
	case libSqrt:
		if a < 0 {
			return 0, e.errf(x.pos, "sqrt of negative value %g", a)
		}
		return math.Sqrt(a), nil
	case libSin:
		return math.Sin(a), nil
	case libCos:
		return math.Cos(a), nil
	case libAbs:
		return math.Abs(a), nil
	case libFloor:
		return math.Floor(a), nil
	case libPow:
		return math.Pow(a, b), nil
	case libMin:
		return math.Min(a, b), nil
	case libMax:
		return math.Max(a, b), nil
	case libMod:
		if b == 0 {
			return 0, e.errf(x.pos, "mod by zero")
		}
		return math.Mod(a, b), nil
	case libRand:
		return e.nextRand(), nil
	}
	return 0, e.errf(x.pos, "unknown builtin %q", x.name)
}

// nextRand is a deterministic xorshift64* stream in [0, 1).
func (e *Engine) nextRand() float64 {
	x := e.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rng = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}
