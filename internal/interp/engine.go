// Package interp implements the execution engine for minilang programs,
// parameterized by an Observer that receives fine-grained dynamic events:
// arithmetic operations, memory accesses with concrete addresses, library
// calls, branch outcomes, and loop trip counts. New compiles the checked
// program once into Go closures (compile.go); Run only calls them. A
// runtime error unwinds the closures as a panic of the package's own type,
// which Run alone recovers and returns; no other panic is recovered.
//
// Two consumers plug into the engine:
//
//   - the branch profiler (Profile in this package), the paper's gcov
//     substitute: it listens only to branch and loop events and produces the
//     hardware-independent statistics folded into code skeletons. For a
//     *Profiler, New compiles the program without the other events, so the
//     profiling run pays only for what the profile keeps;
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
	// nextCheck is the step at which tick next takes its slow path: the
	// next multiple of ctxCheckMask+1, or the first step past the budget.
	nextCheck int64
	ctx       context.Context

	// The compiled program: main, the scalar global slots and their names,
	// and the attribution block IDs that compiled statements index.
	main        *function
	globals     []float64
	globalNames []string
	blockIDs    []string
	// cur is the index of the current attribution block, or noBlock.
	cur int
	// ret is the value of the return statement that ended the latest call.
	ret float64
}

// New prepares an engine: evaluates global initializers in declaration
// order, allocates arrays, and compiles the program for execution. The
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
	e.nextCheck = min(ctxCheckMask+1, e.maxSteps+1)
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
				v, err = ConstEval(g.Init, e.Globals)
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
			v, err := ConstEval(ex, e.Globals)
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

	if err := e.compile(prog); err != nil {
		return nil, err
	}
	return e, nil
}

// ConstEval evaluates a global-declaration expression — literals, the
// scalar globals already initialized in env, arithmetic and comparisons —
// under the interpreter's rules: integer division by zero is an error,
// float division follows IEEE.
func ConstEval(x minilang.Expr, env map[string]float64) (float64, error) {
	switch t := x.(type) {
	case *minilang.IntLit:
		return float64(t.Val), nil
	case *minilang.FloatLit:
		return t.Val, nil
	case *minilang.VarRef:
		v, ok := env[t.Name]
		if !ok {
			return 0, fmt.Errorf("reference to uninitialized global %q", t.Name)
		}
		return v, nil
	case *minilang.Binary:
		l, err := ConstEval(t.L, env)
		if err != nil {
			return 0, err
		}
		r, err := ConstEval(t.R, env)
		if err != nil {
			return 0, err
		}
		return applyBinary(t.Op, t.ResultType() == minilang.TypeInt, l, r)
	case *minilang.Unary:
		v, err := ConstEval(t.X, env)
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
func (e *Engine) Run() (err error) {
	for i, name := range e.globalNames {
		e.globals[i] = e.Globals[name]
	}
	defer func() {
		// Only a runtimeError becomes Run's error; any other panic
		// continues to the caller unchanged.
		if r := recover(); r != nil {
			re, ok := r.(runtimeError)
			if !ok {
				panic(r)
			}
			err = re.err
		}
		for i, name := range e.globalNames {
			e.Globals[name] = e.globals[i]
		}
	}()
	e.call(e.main, make([]float64, e.main.slots))
	return nil
}

// runtimeError carries a runtime error from the compiled closure that
// detects it to Run, which alone recovers it.
type runtimeError struct{ err error }

// Steps returns the number of statements executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// control is how control leaves a statement.
type control int

const (
	ctrlNone control = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// fail stops the run with a runtime error at pos.
func (e *Engine) fail(pos minilang.Pos, format string, args ...any) {
	panic(runtimeError{fmt.Errorf("%s:%s: runtime: %s", e.src, pos, fmt.Sprintf(format, args...))})
}

// ctxCheckMask gates the cancellation check to every 1024th statement: fine
// enough that a deadline lands within microseconds, coarse enough to keep
// ctx.Err() out of the interpreter's hot path.
const ctxCheckMask = 1<<10 - 1

// tick charges one statement against the step budget and, periodically,
// against the run's context deadline.
func (e *Engine) tick(pos minilang.Pos) {
	e.steps++
	if e.steps >= e.nextCheck {
		e.checkpoint(pos)
	}
}

// checkpoint is tick's slow path: the step limit, then the periodic
// fault-injection point (no-op unless a test arms "interp.step") and
// context check.
func (e *Engine) checkpoint(pos minilang.Pos) {
	if e.steps > e.maxSteps {
		e.fail(pos, "step budget exceeded (%d); runaway loop?", e.maxSteps)
	}
	e.nextCheck = min(e.steps+ctxCheckMask+1, e.maxSteps+1)
	guard.Hit("interp.step", e.src)
	if err := e.ctx.Err(); err != nil {
		panic(runtimeError{fmt.Errorf("%s:%s: %w", e.src, pos, err)})
	}
}

// begin is tick for a statement that belongs to the segment block seg
// (noBlock for none): it also switches attribution to seg. Its one call
// keeps it small enough to inline.
func (e *Engine) begin(pos minilang.Pos, seg int) {
	e.steps++
	if e.steps >= e.nextCheck || seg != e.cur {
		e.beginSlow(pos, seg)
	}
}

// beginSlow is begin's slow path.
func (e *Engine) beginSlow(pos minilang.Pos, seg int) {
	if e.steps >= e.nextCheck {
		e.checkpoint(pos)
	}
	if seg != noBlock {
		e.enter(seg)
	}
}

// enter switches attribution to block b, if needed.
func (e *Engine) enter(b int) {
	if b != e.cur {
		e.cur = b
		e.obs.EnterBlock(e.blockIDs[b])
	}
}

// indexErr panics with why v is not a valid index in dimension d of the
// array name with extents ext.
func (e *Engine) indexErr(pos minilang.Pos, name string, ext []int64, d int, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.fail(pos, "index %g is not finite in dimension %d of %q", v, d, name)
	}
	e.fail(pos, "index %.0f out of range [0,%d) in dimension %d of %q",
		math.Trunc(v), ext[d], d, name)
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

// callBuiltin applies a math-library function to its evaluated arguments
// (a and b; unused ones are zero).
func (e *Engine) callBuiltin(lib builtin, pos minilang.Pos, a, b float64) float64 {
	switch lib {
	case libExp:
		return math.Exp(a)
	case libLog:
		if a <= 0 {
			e.fail(pos, "log of non-positive value %g", a)
		}
		return math.Log(a)
	case libSqrt:
		if a < 0 {
			e.fail(pos, "sqrt of negative value %g", a)
		}
		return math.Sqrt(a)
	case libSin:
		return math.Sin(a)
	case libCos:
		return math.Cos(a)
	case libAbs:
		return math.Abs(a)
	case libFloor:
		return math.Floor(a)
	case libPow:
		return math.Pow(a, b)
	case libMin:
		return math.Min(a, b)
	case libMax:
		return math.Max(a, b)
	case libMod:
		if b == 0 {
			e.fail(pos, "mod by zero")
		}
		return math.Mod(a, b)
	}
	return e.nextRand()
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
