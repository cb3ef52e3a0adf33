// Package translate implements the static half of the paper's application
// analysis engine: a source-to-source translator from minilang programs to
// SKOPE-style code skeletons (the role played by the ROSE compiler pass in
// the paper). It statically characterizes each straight-line segment's
// instruction mix and array accesses, preserves the control structure
// (loops, branches, calls), and folds in the branch profiler's statistics
// (fall-through probabilities, expected trip counts) exactly as the paper's
// gcov pass feeds SKOPE.
//
// Block identities are shared with the timing simulator: a source segment
// starting at line N of function f becomes skeleton comp "f/LN"; library
// calls inside it become "f/LN:<func>"; loop and branch control overhead
// blocks ("f/for@LN", "f/if@LN") exist only on the measured side — the
// first-order model deliberately ignores them, one of the paper's stated
// inaccuracy sources (§VII-C).
package translate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"skope/internal/expr"
	"skope/internal/interp"
	"skope/internal/minilang"
	"skope/internal/skeleton"
)

// Result is a completed translation.
type Result struct {
	// Text is the generated skeleton source.
	Text string
	// Prog is the parsed and validated skeleton.
	Prog *skeleton.Program
	// Input is the initial BET context: the program's global scalars.
	Input expr.Env
	// Warnings lists lossy translations (unevaluable call arguments,
	// profile-estimated loop bounds for which no profile entry existed).
	Warnings []string
}

// Translate converts a checked minilang program into a code skeleton,
// using prof for data-dependent branch probabilities and loop trip counts.
// prof may be nil only for programs whose control flow is fully static.
func Translate(prog *minilang.Program, prof *interp.Profile) (*Result, error) {
	input, err := InputEnv(prog)
	if err != nil {
		return nil, err
	}
	tr := &translator{prog: prog, prof: prof, input: input, dirtyGlobals: dirtyGlobals(prog)}
	text, err := tr.run()
	if err != nil {
		return nil, err
	}
	sk, err := skeleton.Parse(prog.Source+".skel", text)
	if err != nil {
		return nil, fmt.Errorf("translate: generated skeleton does not parse: %v\n%s", err, text)
	}
	if err := skeleton.Validate(sk); err != nil {
		return nil, fmt.Errorf("translate: generated skeleton invalid: %v\n%s", err, text)
	}
	return &Result{Text: text, Prog: sk, Input: input, Warnings: tr.warnings}, nil
}

// InputEnv evaluates the program's scalar globals — the input context the
// BET is built with (array dimensions and input-size parameters) — with
// the interpreter's constant evaluator, so the context is exactly the
// profiling run's initial globals.
func InputEnv(prog *minilang.Program) (expr.Env, error) {
	env := expr.Env{}
	for _, g := range prog.Globals {
		if g.Type.IsArray() {
			continue
		}
		v := 0.0
		if g.Init != nil {
			var err error
			v, err = interp.ConstEval(g.Init, env)
			if err != nil {
				return nil, fmt.Errorf("translate: global %s: %v", g.Name, err)
			}
		}
		if g.Type.Base == minilang.TypeInt {
			v = math.Trunc(v)
		}
		env[g.Name] = v
	}
	return env, nil
}

type translator struct {
	prog     *minilang.Program
	prof     *interp.Profile
	input    expr.Env
	warnings []string
	b        strings.Builder
	// dirtyGlobals are scalar globals assigned anywhere at runtime: their
	// input-context values may be stale, so they start untracked in every
	// function (local set statements can re-track them within one
	// function's linear flow).
	dirtyGlobals map[string]bool
}

func (tr *translator) warnf(pos minilang.Pos, format string, args ...any) {
	tr.warnings = append(tr.warnings,
		fmt.Sprintf("%s:%s: %s", tr.prog.Source, pos, fmt.Sprintf(format, args...)))
}

func (tr *translator) run() (string, error) {
	fmt.Fprintf(&tr.b, "# skeleton generated from %s\n", tr.prog.Source)
	for fi, f := range tr.prog.Funcs {
		if fi > 0 {
			tr.b.WriteByte('\n')
		}
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = p.Name
		}
		fmt.Fprintf(&tr.b, "def %s(%s)\n", f.Name, strings.Join(params, ", "))
		// Array declarations are documented in main. Extents are evaluated
		// at program initialization, when every scalar global still holds
		// its declared value, so the full input context is usable here.
		if f.Name == "main" {
			initTracked := map[string]bool{}
			for name := range tr.input {
				initTracked[name] = true
			}
			for _, g := range tr.prog.Globals {
				if !g.Type.IsArray() {
					continue
				}
				fmt.Fprintf(&tr.b, "  var %s", g.Name)
				for _, ex := range g.Type.Extents {
					s, ok := tr.exprString(ex, initTracked)
					if !ok {
						s = "1"
					}
					fmt.Fprintf(&tr.b, "[%s]", s)
				}
				tr.b.WriteByte('\n')
			}
		}
		tracked := map[string]bool{}
		for name := range tr.input {
			if !tr.dirtyGlobals[name] {
				tracked[name] = true
			}
		}
		for _, p := range f.Params {
			tracked[p.Name] = true
		}
		if err := tr.block(f, f.Body, 1, tracked, false); err != nil {
			return "", err
		}
		tr.b.WriteString("end\n")
	}
	return tr.b.String(), nil
}

// block emits the skeleton statements for one minilang block. tracked is
// the set of scalar names whose values the BET can evaluate; it is mutated
// in statement order (the skeleton set statements keep it in sync).
func (tr *translator) block(f *minilang.FuncDecl, b *minilang.Block, depth int, tracked map[string]bool, vec bool) error {
	ind := strings.Repeat("  ", depth)
	segs := minilang.SegmentsOf(f.Name, b)
	segStart := map[minilang.Stmt]*minilang.Segment{}
	for i := range segs {
		segStart[segs[i].Stmts[0]] = &segs[i]
	}
	inSeg := map[minilang.Stmt]bool{}
	for i := range segs {
		for _, s := range segs[i].Stmts {
			inSeg[s] = true
		}
	}

	for _, s := range b.Stmts {
		if seg, ok := segStart[s]; ok {
			tr.emitSegment(f, seg, ind, tracked, vec)
			continue
		}
		if inSeg[s] {
			continue // already covered by its segment's comp
		}
		if err := tr.control(f, s, depth, tracked, vec); err != nil {
			return err
		}
	}
	return nil
}

// emitSegment emits set statements for tracked scalar dataflow, the comp
// summary, and lib statements for builtin calls.
func (tr *translator) emitSegment(f *minilang.FuncDecl, seg *minilang.Segment, ind string, tracked map[string]bool, vec bool) {
	// Dataflow first: keep control-relevant scalars evaluable.
	for _, s := range seg.Stmts {
		var name string
		var rhs minilang.Expr
		switch t := s.(type) {
		case *minilang.VarDecl:
			name, rhs = t.Name, t.Init
		case *minilang.Assign:
			if vr, ok := t.LHS.(*minilang.VarRef); ok {
				name, rhs = vr.Name, t.RHS
			}
		}
		if name == "" {
			continue
		}
		if rhs == nil {
			tracked[name] = true // zero-initialized declaration
			fmt.Fprintf(&tr.b, "%sset %s = 0\n", ind, name)
			continue
		}
		if text, ok := tr.exprString(rhs, tracked); ok {
			tracked[name] = true
			fmt.Fprintf(&tr.b, "%sset %s = %s\n", ind, name, text)
		} else {
			// Data-dependent value: the BET cannot evaluate it.
			delete(tracked, name)
		}
	}

	c := minilang.CountSegment(seg)
	fmt.Fprintf(&tr.b, "%scomp", ind)
	writeCount := func(key string, v int) {
		if v != 0 {
			fmt.Fprintf(&tr.b, " %s=%d", key, v)
		}
	}
	writeCount("flops", c.FLOPs)
	writeCount("iops", c.IOPs)
	writeCount("loads", c.Loads)
	writeCount("stores", c.Stores)
	writeCount("divs", c.Divs)
	writeCount("insts", c.Insts())
	if vec {
		fmt.Fprintf(&tr.b, " vec=8")
	}
	fmt.Fprintf(&tr.b, " name=%q\n", seg.Label())

	libNames := make([]string, 0, len(c.Lib))
	for name := range c.Lib {
		libNames = append(libNames, name)
	}
	sort.Strings(libNames)
	for _, name := range libNames {
		fmt.Fprintf(&tr.b, "%slib %s count=%d name=%q\n", ind, name, c.Lib[name], seg.Label()+":"+name)
	}
}

// control emits a control statement (loop, branch, call, jump).
func (tr *translator) control(f *minilang.FuncDecl, s minilang.Stmt, depth int, tracked map[string]bool, vec bool) error {
	ind := strings.Repeat("  ", depth)
	switch t := s.(type) {
	case *minilang.For:
		return tr.forLoop(f, t, depth, tracked)

	case *minilang.While:
		site := interp.Site(f.Name, t.Pos)
		iters, ok := tr.profiledTrips(site)
		if !ok {
			tr.warnf(t.Pos, "while loop has no profile entry; assuming 1 iteration")
			iters = 1
		}
		fmt.Fprintf(&tr.b, "%swhile iters=%s label=%q\n", ind, expr.Const(iters), fmt.Sprintf("while@L%d", t.Pos.Line))
		inner := cloneSet(tracked)
		if err := tr.block(f, t.Body, depth+1, inner, false); err != nil {
			return err
		}
		fmt.Fprintf(&tr.b, "%send\n", ind)
		tr.untrackAssigned(t.Body, tracked)
		return nil

	case *minilang.If:
		site := interp.Site(f.Name, t.Pos)
		p := 0.5
		if tr.prof != nil {
			if st, ok := tr.prof.Branches[site]; ok {
				p = st.Prob()
			} else {
				tr.warnf(t.Pos, "branch has no profile entry; assuming p=0.5")
			}
		} else {
			tr.warnf(t.Pos, "no profile supplied; branch assumed p=0.5")
		}
		fmt.Fprintf(&tr.b, "%sif prob=%s\n", ind, expr.Const(p))
		thenTracked := cloneSet(tracked)
		if err := tr.block(f, t.Then, depth+1, thenTracked, vec); err != nil {
			return err
		}
		if t.Else != nil {
			fmt.Fprintf(&tr.b, "%selse\n", ind)
			elseTracked := cloneSet(tracked)
			if err := tr.block(f, t.Else, depth+1, elseTracked, vec); err != nil {
				return err
			}
		}
		fmt.Fprintf(&tr.b, "%send\n", ind)
		tr.untrackAssigned(t.Then, tracked)
		if t.Else != nil {
			tr.untrackAssigned(t.Else, tracked)
		}
		return nil

	case *minilang.ExprStmt:
		// Control statements outside segments are user calls or
		// exchange() communication phases.
		if call, ok := t.X.(*minilang.Call); ok {
			if call.Builtin && call.Name == "exchange" {
				tr.emitComm(f, call, ind, tracked)
				return nil
			}
			if !call.Builtin {
				tr.emitCall(f, call, ind, tracked)
				return nil
			}
		}
		return fmt.Errorf("translate: %s:%s: unexpected expression statement outside segment", tr.prog.Source, t.Pos)

	case *minilang.Assign:
		// Assignment with a user-call RHS: the call is modeled; the
		// assigned variable becomes untracked.
		if call, ok := t.RHS.(*minilang.Call); ok && !call.Builtin {
			tr.emitCall(f, call, ind, tracked)
			if vr, ok := t.LHS.(*minilang.VarRef); ok {
				delete(tracked, vr.Name)
			}
			return nil
		}
		return fmt.Errorf("translate: %s:%s: unexpected assignment outside segment", tr.prog.Source, t.Pos)

	case *minilang.VarDecl:
		if t.Init != nil {
			if call, ok := t.Init.(*minilang.Call); ok && !call.Builtin {
				tr.emitCall(f, call, ind, tracked)
				delete(tracked, t.Name)
				return nil
			}
		}
		return fmt.Errorf("translate: %s:%s: unexpected declaration outside segment", tr.prog.Source, t.Pos)

	case *minilang.Return:
		fmt.Fprintf(&tr.b, "%sreturn\n", ind)
		return nil
	case *minilang.Break:
		fmt.Fprintf(&tr.b, "%sbreak\n", ind)
		return nil
	case *minilang.Continue:
		fmt.Fprintf(&tr.b, "%scontinue\n", ind)
		return nil
	}
	return fmt.Errorf("translate: %s:%s: unhandled statement %T", tr.prog.Source, s.StmtPos(), s)
}

func (tr *translator) forLoop(f *minilang.FuncDecl, t *minilang.For, depth int, tracked map[string]bool) error {
	ind := strings.Repeat("  ", depth)
	label := fmt.Sprintf("for@L%d", t.Pos.Line)
	from, okF := tr.exprString(t.From, tracked)
	to, okT := tr.exprString(t.To, tracked)
	step, okS := "", true
	if t.Step != nil {
		step, okS = tr.exprString(t.Step, tracked)
	}
	inner := cloneSet(tracked)
	if okF && okT && okS {
		fmt.Fprintf(&tr.b, "%sfor %s = %s : %s", ind, t.Var, from, to)
		if t.Step != nil {
			fmt.Fprintf(&tr.b, " : %s", step)
		}
		fmt.Fprintf(&tr.b, " label=%q\n", label)
		inner[t.Var] = true
	} else {
		// Data-dependent bounds: fall back to the profiled trip count, as
		// the paper does for loops with uncertain boundaries.
		site := interp.Site(f.Name, t.Pos)
		iters, ok := tr.profiledTrips(site)
		if !ok {
			tr.warnf(t.Pos, "for loop with data-dependent bounds has no profile entry; assuming 1 iteration")
			iters = 1
		}
		fmt.Fprintf(&tr.b, "%swhile iters=%s label=%q\n", ind, expr.Const(iters), label)
		delete(inner, t.Var)
	}
	if err := tr.block(f, t.Body, depth+1, inner, t.Vec); err != nil {
		return err
	}
	fmt.Fprintf(&tr.b, "%send\n", ind)
	tr.untrackAssigned(t.Body, tracked)
	return nil
}

func (tr *translator) profiledTrips(site string) (float64, bool) {
	if tr.prof == nil {
		return 0, false
	}
	st, ok := tr.prof.Loops[site]
	if !ok {
		return 0, false
	}
	return st.Mean(), true
}

// emitComm translates exchange(bytes, msgs) into a skeleton comm statement
// whose block ID matches the simulator's attribution.
func (tr *translator) emitComm(f *minilang.FuncDecl, call *minilang.Call, ind string, tracked map[string]bool) {
	args := make([]string, 2)
	for i, a := range call.Args {
		if s, ok := tr.exprString(a, tracked); ok {
			args[i] = s
		} else {
			tr.warnf(call.Pos, "exchange argument %d is data-dependent; passing 0", i+1)
			args[i] = "0"
		}
	}
	fmt.Fprintf(&tr.b, "%scomm bytes=%s msgs=%s name=%q\n",
		ind, args[0], args[1], fmt.Sprintf("comm@L%d", call.Pos.Line))
}

func (tr *translator) emitCall(f *minilang.FuncDecl, call *minilang.Call, ind string, tracked map[string]bool) {
	args := make([]string, len(call.Args))
	for i, a := range call.Args {
		if s, ok := tr.exprString(a, tracked); ok {
			args[i] = s
		} else {
			tr.warnf(call.Pos, "argument %d of call to %s is data-dependent; passing 0", i+1, call.Name)
			args[i] = "0"
		}
	}
	fmt.Fprintf(&tr.b, "%scall %s(%s)\n", ind, call.Name, strings.Join(args, ", "))
}

// untrackAssigned conservatively removes every scalar assigned anywhere in
// a nested block from the tracked set: after a loop or branch, the BET's
// linear context cannot know their values.
func (tr *translator) untrackAssigned(b *minilang.Block, tracked map[string]bool) {
	for _, s := range b.Stmts {
		switch t := s.(type) {
		case *minilang.Assign:
			if vr, ok := t.LHS.(*minilang.VarRef); ok {
				delete(tracked, vr.Name)
			}
		case *minilang.VarDecl:
			delete(tracked, t.Name)
		case *minilang.For:
			tr.untrackAssigned(t.Body, tracked)
		case *minilang.While:
			tr.untrackAssigned(t.Body, tracked)
		case *minilang.If:
			tr.untrackAssigned(t.Then, tracked)
			if t.Else != nil {
				tr.untrackAssigned(t.Else, tracked)
			}
		}
	}
}

// exprString converts a minilang expression to skeleton expression syntax.
// It returns ok=false when the expression depends on values the BET cannot
// evaluate (array elements, untracked scalars, calls).
func (tr *translator) exprString(e minilang.Expr, tracked map[string]bool) (string, bool) {
	switch t := e.(type) {
	case *minilang.IntLit:
		return fmt.Sprintf("%d", t.Val), true
	case *minilang.FloatLit:
		return expr.Const(t.Val).String(), true
	case *minilang.VarRef:
		// Globals are in the input context unless assigned at runtime
		// (dirty); locals must be tracked through set statements.
		if tracked[t.Name] {
			return t.Name, true
		}
		return "", false
	case *minilang.Binary:
		l, okL := tr.exprString(t.L, tracked)
		r, okR := tr.exprString(t.R, tracked)
		if !okL || !okR {
			return "", false
		}
		op := t.Op.String()
		if t.Op == minilang.OpDiv && t.ResultType() == minilang.TypeInt {
			// Integer division truncates; skeleton division is exact.
			return fmt.Sprintf("floor((%s) / (%s))", l, r), true
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r), true
	case *minilang.Unary:
		x, ok := tr.exprString(t.X, tracked)
		if !ok {
			return "", false
		}
		if t.Op == "!" {
			return fmt.Sprintf("!(%s)", x), true
		}
		return fmt.Sprintf("(-%s)", x), true
	}
	return "", false
}

// dirtyGlobals returns the scalar globals assigned anywhere in the program.
func dirtyGlobals(prog *minilang.Program) map[string]bool {
	dirty := map[string]bool{}
	var walkBlock func(b *minilang.Block)
	walkStmt := func(s minilang.Stmt) {
		if a, ok := s.(*minilang.Assign); ok {
			if vr, ok := a.LHS.(*minilang.VarRef); ok && vr.Global {
				dirty[vr.Name] = true
			}
		}
	}
	walkBlock = func(b *minilang.Block) {
		for _, s := range b.Stmts {
			walkStmt(s)
			switch t := s.(type) {
			case *minilang.For:
				walkBlock(t.Body)
			case *minilang.While:
				walkBlock(t.Body)
			case *minilang.If:
				walkBlock(t.Then)
				if t.Else != nil {
					walkBlock(t.Else)
				}
			}
		}
	}
	for _, f := range prog.Funcs {
		walkBlock(f.Body)
	}
	return dirty
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}
