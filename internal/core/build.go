package core

import (
	"context"
	"fmt"
	"math"

	"skope/internal/bst"
	"skope/internal/expr"
	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

// Options configure BET construction.
type Options struct {
	// Entry is the entry function name (default "main").
	Entry string
	// MaxContexts bounds the number of simultaneously live contexts per
	// statement; exceeding it is an error (default 256, matching
	// guard.Default). The paper's bound on context blowup is 2^B for B
	// independent branches; real workloads stay near 1.
	MaxContexts int
	// MaxNodes bounds the BET size (default 1 << 20, matching
	// guard.Default).
	MaxNodes int
	// Lenient substitutes paper-motivated priors for missing or corrupt
	// quantities — a uniform 0.5 for unevaluable branch probabilities, one
	// iteration for unevaluable trip counts, zero work for unevaluable
	// metrics, parser holes modeled as empty blocks — recording each
	// substitution as a diagnostic and marking the affected nodes assumed,
	// instead of failing the build. Resource limits (MaxContexts,
	// MaxNodes), cancellation, a missing entry function, and recursion
	// remain fatal in both modes.
	Lenient bool
}

func (o *Options) withDefaults() Options {
	def := guard.Default()
	out := Options{Entry: "main", MaxContexts: def.MaxContexts, MaxNodes: def.MaxBETNodes}
	if o == nil {
		return out
	}
	if o.Entry != "" {
		out.Entry = o.Entry
	}
	if o.MaxContexts > 0 {
		out.MaxContexts = o.MaxContexts
	}
	if o.MaxNodes > 0 {
		out.MaxNodes = o.MaxNodes
	}
	out.Lenient = o.Lenient
	return out
}

// ctxCheckInterval is how many BET nodes are built between context
// deadline checks — fine enough that cancellation lands within
// microseconds, coarse enough to keep the check off the profile.
const ctxCheckInterval = 1024

// Build constructs the Bayesian Execution Tree for the program underlying
// tree, with the given input bindings (array dimensions, developer hints).
// ctx bounds the construction: cancellation or a deadline is honored at
// statement granularity, so even pathologically large trees stop promptly.
func Build(ctx context.Context, tree *bst.Tree, input expr.Env, opts *Options) (*BET, error) {
	o := opts.withDefaults()
	entry, err := tree.Func(o.Entry)
	if err != nil {
		return nil, err
	}
	var preDiags []guard.Diagnostic
	if o.Lenient {
		ds, err := skeleton.ValidateLenient(tree.Prog, o.Entry)
		if err != nil {
			return nil, err
		}
		preDiags = ds
	} else if err := skeleton.ValidateEntry(tree.Prog, o.Entry); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bet: %s: %w", tree.Prog.Source, err)
	}
	b := &builder{
		bet:   &BET{Tree: tree},
		opts:  o,
		input: input.Clone(),
		ctx:   ctx,
		diags: preDiags,
	}
	root := b.newNode(entry, nil, b.input.Clone(), 1)
	// The entry function executes once with the full input context.
	if _, _, err := b.body(root, entry.Children, []ectx{{env: b.input.Clone(), prob: 1}}); err != nil {
		return nil, err
	}
	b.bet.Root = root
	b.bet.nodes = b.nodes
	b.bet.Diagnostics = b.diags
	guard.SortDiagnostics(b.bet.Diagnostics)
	b.bet.computeENR()
	b.bet.computeConfidence()
	return b.bet, nil
}

// ectx is a live execution context during construction: bindings plus the
// probability of being in this context, relative to one execution of the
// node whose body is being processed.
type ectx struct {
	env  expr.Env
	prob float64
}

// escape accumulates probability mass diverted out of a statement sequence
// by return/break/continue, in the same relative scale as the input ctxs.
type escape struct {
	ret, brk, cont float64
}

const probEps = 1e-12

type builder struct {
	bet     *BET
	opts    Options
	input   expr.Env
	nodes   int
	ctx     context.Context
	checked int // node count at the last context-deadline check

	// diags accumulates lenient-mode prior substitutions; seen dedupes
	// them (the same statement is revisited once per live context and per
	// inlined call site).
	diags []guard.Diagnostic
	seen  map[string]bool
}

// assume records one lenient-mode prior substitution: the node (when one
// exists) is marked Assumed and a deduplicated diagnostic is appended.
func (b *builder) assume(sev guard.Severity, sn *bst.Node, n *Node, code, format string, args ...any) {
	if n != nil {
		n.Assumed = true
	}
	d := guard.Diagnostic{
		Severity: sev, Stage: "bet", Code: code, BlockID: sn.BlockID(),
		Message: fmt.Sprintf("%s:%d (%s): %s",
			b.bet.Tree.Prog.Source, sn.Line, sn.Label(), fmt.Sprintf(format, args...)),
	}
	key := d.String()
	if b.seen == nil {
		b.seen = make(map[string]bool)
	}
	if b.seen[key] {
		return
	}
	b.seen[key] = true
	b.diags = append(b.diags, d)
}

// checkCtx honors cancellation at block granularity plus every
// ctxCheckInterval nodes within huge flat bodies. The guard.Hit call is a
// fault-injection point (no-op unless a test arms "core.body") that lets
// tests cancel or fail mid-construction deterministically.
func (b *builder) checkCtx(where string) error {
	guard.Hit("core.body", where)
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("bet: %s (%s): %w", b.bet.Tree.Prog.Source, where, err)
	}
	b.checked = b.nodes
	return nil
}

func (b *builder) newNode(bn *bst.Node, parent *Node, env expr.Env, prob float64) *Node {
	b.nodes++
	n := &Node{ID: b.nodes, BST: bn, Parent: parent, Env: env, Prob: prob, Iters: 1}
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	return n
}

func (b *builder) errf(bn *bst.Node, format string, args ...any) error {
	return fmt.Errorf("bet: %s:%d (%s): %s",
		b.bet.Tree.Prog.Source, bn.Line, bn.Label(), fmt.Sprintf(format, args...))
}

// body models the execution of a statement list under parent, starting from
// the given contexts. It returns the continuation contexts (those that fall
// through the end of the list) and the escaped probability mass.
func (b *builder) body(parent *Node, stmts []*bst.Node, ctxs []ectx) ([]ectx, escape, error) {
	var esc escape
	if err := b.checkCtx(parent.BST.Label()); err != nil {
		return nil, esc, err
	}
	live := ctxs
	for _, sn := range stmts {
		if b.nodes > b.opts.MaxNodes {
			return nil, esc, fmt.Errorf("bet: %s:%d (%s): %w",
				b.bet.Tree.Prog.Source, sn.Line, sn.Label(),
				guard.Exceeded("BET nodes", b.nodes, b.opts.MaxNodes))
		}
		if b.nodes-b.checked >= ctxCheckInterval {
			if err := b.checkCtx(sn.Label()); err != nil {
				return nil, esc, err
			}
		}
		live = prune(live)
		if len(live) == 0 {
			break
		}
		if len(live) > b.opts.MaxContexts {
			return nil, esc, fmt.Errorf("bet: %s:%d (%s): context explosion: %w",
				b.bet.Tree.Prog.Source, sn.Line, sn.Label(),
				guard.Exceeded("live contexts", len(live), b.opts.MaxContexts))
		}
		var err error
		live, err = b.stmt(parent, sn, live, &esc)
		if err != nil {
			return nil, esc, err
		}
	}
	return prune(live), esc, nil
}

// stmt models one statement under every live context, returning the updated
// context set.
func (b *builder) stmt(parent *Node, sn *bst.Node, live []ectx, esc *escape) ([]ectx, error) {
	switch sn.Kind {
	case bst.KindComp:
		comp := sn.Stmt.(*skeleton.Comp)
		for _, c := range live {
			w, err := evalWork(comp.M, c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "%v", err)
				}
				w = hw.BlockWork{Vec: 1}
			}
			n := b.newNode(sn, parent, c.env, c.prob)
			n.Work = w
			if err != nil {
				b.assume(guard.SevWarn, sn, n, "assumed-work", "%v; assuming zero work", err)
			}
		}
		return live, nil

	case bst.KindLib:
		lib := sn.Stmt.(*skeleton.Lib)
		for _, c := range live {
			cnt, err := evalNonNeg(lib.Count, c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "lib count: %v", err)
				}
				cnt = 1
			}
			n := b.newNode(sn, parent, c.env, c.prob)
			n.LibFunc = lib.Func
			n.LibCount = cnt
			if err != nil {
				b.assume(guard.SevWarn, sn, n, "assumed-lib-count", "lib count: %v; assuming 1 invocation", err)
			}
		}
		return live, nil

	case bst.KindComm:
		comm := sn.Stmt.(*skeleton.Comm)
		for _, c := range live {
			bytes, berr := evalNonNeg(comm.Bytes, c.env)
			if berr != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "comm bytes: %v", berr)
				}
				bytes = 0
			}
			msgs, merr := evalNonNeg(comm.Msgs, c.env)
			if merr != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "comm msgs: %v", merr)
				}
				msgs = 1
			}
			n := b.newNode(sn, parent, c.env, c.prob)
			n.CommBytes = bytes
			n.CommMsgs = msgs
			if berr != nil {
				b.assume(guard.SevWarn, sn, n, "assumed-comm", "comm bytes: %v; assuming 0 bytes", berr)
			}
			if merr != nil {
				b.assume(guard.SevWarn, sn, n, "assumed-comm", "comm msgs: %v; assuming 1 message", merr)
			}
		}
		return live, nil

	case bst.KindVar:
		for _, c := range live {
			b.newNode(sn, parent, c.env, c.prob)
		}
		return live, nil

	case bst.KindSet:
		set := sn.Stmt.(*skeleton.Set)
		out := make([]ectx, 0, len(live))
		for _, c := range live {
			v, err := set.Value.Eval(c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "set %s: %v", set.Name, err)
				}
				n := b.newNode(sn, parent, c.env, c.prob)
				b.assume(guard.SevWarn, sn, n, "assumed-binding",
					"set %s: %v; binding dropped", set.Name, err)
				out = append(out, ectx{env: c.env, prob: c.prob})
				continue
			}
			b.newNode(sn, parent, c.env, c.prob)
			env := c.env.Clone()
			env[set.Name] = v
			out = append(out, ectx{env: env, prob: c.prob})
		}
		return mergeCtxs(out), nil

	case bst.KindLoop, bst.KindWhile:
		return b.loop(parent, sn, live, esc)

	case bst.KindBranch:
		return b.branch(parent, sn, live, esc)

	case bst.KindCall:
		return b.call(parent, sn, live)

	case bst.KindReturn:
		st := sn.Stmt.(*skeleton.Return)
		return b.jump(parent, sn, live, st.Prob, &esc.ret)

	case bst.KindBreak:
		st := sn.Stmt.(*skeleton.Break)
		return b.jump(parent, sn, live, st.Prob, &esc.brk)

	case bst.KindContinue:
		st := sn.Stmt.(*skeleton.Continue)
		return b.jump(parent, sn, live, st.Prob, &esc.cont)

	case bst.KindHole:
		if !b.opts.Lenient {
			return nil, b.errf(sn, "cannot model a parser hole in strict mode")
		}
		h := sn.Stmt.(*skeleton.Hole)
		for _, c := range live {
			n := b.newNode(sn, parent, c.env, c.prob)
			b.assume(guard.SevError, sn, n, "hole",
				"unparseable statement %q modeled as zero work", h.Text)
		}
		return live, nil
	}
	return nil, b.errf(sn, "unhandled BST node kind %s", sn.Kind)
}

// jump models return/break/continue: a fraction p of each live context's
// probability escapes; the remainder continues past the statement.
func (b *builder) jump(parent *Node, sn *bst.Node, live []ectx, probX expr.Expr, sink *float64) ([]ectx, error) {
	out := make([]ectx, 0, len(live))
	for _, c := range live {
		p := 1.0
		var perr error
		if probX != nil {
			v, err := evalProb(probX, c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "prob: %v", err)
				}
				perr, v = err, 0.5
			}
			p = v
		}
		n := b.newNode(sn, parent, c.env, c.prob)
		if perr != nil {
			b.assume(guard.SevWarn, sn, n, "assumed-jump-prob",
				"prob: %v; assuming 0.5", perr)
		}
		*sink += c.prob * p
		out = append(out, ectx{env: c.env, prob: c.prob * (1 - p)})
	}
	return out, nil
}

// loop models a counted or statistical loop under each context: a single
// BET node whose children model ONE representative iteration (loop
// variables bound to their expected value over the range), with the
// expected iteration count attached. break/return mass inside the body
// truncates the expectation per the geometric formula.
func (b *builder) loop(parent *Node, sn *bst.Node, live []ectx, esc *escape) ([]ectx, error) {
	out := make([]ectx, 0, len(live))
	for _, c := range live {
		n := b.newNode(sn, parent, c.env, c.prob)
		bodyEnv := c.env.Clone()
		var rangeIters float64
		switch sn.Kind {
		case bst.KindLoop:
			lp := sn.Stmt.(*skeleton.Loop)
			iters, mid, err := loopRange(lp, c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "%v", err)
				}
				// The static bound was not evaluable under this context;
				// fall back to the minimal prior of one iteration. The
				// loop variable stays unbound, so body quantities that
				// depend on it degrade through their own fallbacks.
				b.assume(guard.SevWarn, sn, n, "assumed-trip-count",
					"%v; assuming 1 iteration", err)
				rangeIters = 1
				break
			}
			rangeIters = iters
			if iters > 0 {
				bodyEnv[lp.Var] = mid
			}
		case bst.KindWhile:
			wh := sn.Stmt.(*skeleton.While)
			iters, err := evalNonNeg(wh.Iters, c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "while iters: %v", err)
				}
				iters = 1
				b.assume(guard.SevWarn, sn, n, "assumed-trip-count",
					"while iters: %v; assuming 1 iteration", err)
			}
			rangeIters = iters
		}
		if rangeIters <= 0 {
			n.Iters = 0
			out = append(out, c)
			continue
		}
		_, bodyEsc, err := b.body(n, sn.Children, []ectx{{env: bodyEnv, prob: 1}})
		if err != nil {
			return nil, err
		}
		// Per-iteration early-exit probability: break exits the loop,
		// return exits the whole function through the loop. The two are
		// competing risks within one iteration (the escape masses are
		// disjoint), so the iteration survives with probability
		// q = 1 - r - b and the loop exits via return with probability
		// r/(r+b) x (1 - q^n).
		r := clamp01(bodyEsc.ret)
		brk := clamp01(bodyEsc.brk)
		pExit := clamp01(r + brk)
		n.Iters = expectedIters(rangeIters, pExit)
		if r > 0 {
			pRetTotal := clamp01(r / pExit * (1 - math.Pow(1-pExit, rangeIters)))
			esc.ret += c.prob * pRetTotal
			c = ectx{env: c.env, prob: c.prob * (1 - pRetTotal)}
		}
		out = append(out, c)
	}
	return out, nil
}

// expectedIters implements the reconstructed §IV-B formula: a loop of range
// n with per-iteration exit probability p runs a truncated-geometric
// expected (1-(1-p)^n)/p iterations, and exactly n when p = 0.
func expectedIters(n, p float64) float64 {
	if p <= 0 {
		return n
	}
	if p >= 1 {
		return 1
	}
	return (1 - math.Pow(1-p, n)) / p
}

// branch models an if/elif/else chain: for each context, one branch node
// whose children are the arm bodies modeled under conditional probability.
// Deterministic conditions (cond=...) evaluate under the context bindings;
// statistical ones (prob=...) use the profiled fall-through probability.
// Contexts surviving different arms are merged by identical bindings.
func (b *builder) branch(parent *Node, sn *bst.Node, live []ectx, esc *escape) ([]ectx, error) {
	var out []ectx
	for _, c := range live {
		n := b.newNode(sn, parent, c.env, c.prob)
		remaining := 1.0
		for _, arm := range sn.Children {
			var pArm float64
			var armErr error
			switch arm.Kind {
			case bst.KindCase:
				cond := arm.Case.Cond
				switch cond.Kind {
				case skeleton.CondExpr:
					v, err := cond.X.Eval(c.env)
					if err != nil {
						if !b.opts.Lenient {
							return nil, b.errf(arm, "branch condition: %v", err)
						}
						// Uniform branch prior: the condition is not
						// evaluable, so the arm takes half the remaining
						// mass.
						armErr = err
						pArm = remaining * 0.5
						break
					}
					if v != 0 {
						pArm = remaining
					}
				case skeleton.CondProb:
					p, err := evalProb(cond.X, c.env)
					if err != nil {
						if !b.opts.Lenient {
							return nil, b.errf(arm, "branch probability: %v", err)
						}
						armErr = err
						p = 0.5
					}
					pArm = remaining * p
				}
			case bst.KindElse:
				pArm = remaining
			}
			remaining = clamp01(remaining - pArm)
			if pArm <= probEps {
				if armErr != nil {
					b.assume(guard.SevWarn, arm, nil, "assumed-branch-prob",
						"%v; assuming uniform prior 0.5", armErr)
				}
				continue
			}
			// One group node per taken arm; its statements execute with
			// probability 1 relative to the arm being taken.
			armNode := b.newNode(arm, n, c.env, pArm)
			if armErr != nil {
				b.assume(guard.SevWarn, arm, armNode, "assumed-branch-prob",
					"%v; assuming uniform prior 0.5", armErr)
			}
			armOut, armEsc, err := b.body(armNode, arm.Children, []ectx{{env: c.env, prob: 1}})
			if err != nil {
				return nil, err
			}
			esc.ret += c.prob * pArm * armEsc.ret
			esc.brk += c.prob * pArm * armEsc.brk
			esc.cont += c.prob * pArm * armEsc.cont
			for _, ac := range armOut {
				out = append(out, ectx{env: ac.env, prob: c.prob * pArm * ac.prob})
			}
		}
		// Mass that took no arm (no else, or conditions false) falls
		// through with the original bindings.
		if remaining > probEps {
			out = append(out, ectx{env: c.env, prob: c.prob * remaining})
		}
	}
	return mergeCtxs(out), nil
}

// call mounts the callee's BST under a call node for each context,
// rebinding the callee parameters from the evaluated arguments. Return mass
// is absorbed at the call boundary; the caller continues unaffected (the
// skeleton language has no cross-function side effects).
func (b *builder) call(parent *Node, sn *bst.Node, live []ectx) ([]ectx, error) {
	callStmt := sn.Stmt.(*skeleton.Call)
	calleeRoot, err := b.bet.Tree.Func(callStmt.Func)
	if err != nil {
		if !b.opts.Lenient {
			return nil, b.errf(sn, "%v", err)
		}
		// Undefined callee: model the call as an empty assumed block.
		for _, c := range live {
			n := b.newNode(sn, parent, c.env, c.prob)
			b.assume(guard.SevError, sn, n, "assumed-call",
				"%v; call modeled as empty", err)
		}
		return live, nil
	}
	callee := calleeRoot.Fn
	for _, c := range live {
		n := b.newNode(sn, parent, c.env, c.prob)
		// Callee context: global input bindings overlaid with parameters.
		env := b.input.Clone()
		for i, param := range callee.Params {
			if i >= len(callStmt.Args) {
				// Reachable only in lenient mode: strict builds validated
				// arity up front.
				b.assume(guard.SevWarn, sn, n, "assumed-argument",
					"missing argument %d (%s); assuming 0", i+1, param)
				env[param] = 0
				continue
			}
			v, err := callStmt.Args[i].Eval(c.env)
			if err != nil {
				if !b.opts.Lenient {
					return nil, b.errf(sn, "argument %d: %v", i+1, err)
				}
				b.assume(guard.SevWarn, sn, n, "assumed-argument",
					"argument %d: %v; assuming 0", i+1, err)
				v = 0
			}
			env[param] = v
		}
		if _, _, err := b.body(n, calleeRoot.Children, []ectx{{env: env, prob: 1}}); err != nil {
			return nil, err
		}
	}
	return live, nil
}

// loopRange computes the iteration count and the expected loop-variable
// value for a counted loop under env. Negative steps iterate downward.
func loopRange(lp *skeleton.Loop, env expr.Env) (iters, mid float64, err error) {
	from, err := lp.From.Eval(env)
	if err != nil {
		return 0, 0, fmt.Errorf("loop from: %v", err)
	}
	to, err := lp.To.Eval(env)
	if err != nil {
		return 0, 0, fmt.Errorf("loop to: %v", err)
	}
	step := 1.0
	if lp.Step != nil {
		step, err = lp.Step.Eval(env)
		if err != nil {
			return 0, 0, fmt.Errorf("loop step: %v", err)
		}
	}
	if step == 0 {
		return 0, 0, fmt.Errorf("loop step is zero")
	}
	// The raw quotient, not its ceiling: bounds are often *expected*
	// values (an outer loop variable bound to its mean), where rounding
	// would bias the expectation. For integer-divisible concrete bounds
	// the quotient is already exact; for a non-divisible constant step the
	// model undercounts by at most one fractional iteration.
	iters = (to - from) / step
	if iters < 0 {
		iters = 0
	}
	// Expected value of the loop variable over the iteration range.
	mid = from + step*(iters-1)/2
	return iters, mid, nil
}

// evalWork evaluates comp metrics under a context, clamping negatives.
func evalWork(m skeleton.Metrics, env expr.Env) (hw.BlockWork, error) {
	var w hw.BlockWork
	fields := []struct {
		name string
		e    expr.Expr
		dst  *float64
	}{
		{"flops", m.FLOPs, &w.FLOPs},
		{"iops", m.IOPs, &w.IOPs},
		{"loads", m.Loads, &w.Loads},
		{"stores", m.Stores, &w.Stores},
		{"dsize", m.DSize, &w.DSizeB},
		{"divs", m.Divs, &w.Divs},
		{"vec", m.Vec, &w.Vec},
	}
	for _, f := range fields {
		if f.e == nil {
			continue
		}
		v, err := f.e.Eval(env)
		if err != nil {
			return w, fmt.Errorf("%s: %v", f.name, err)
		}
		if v < 0 {
			v = 0
		}
		*f.dst = v
	}
	if w.Vec < 1 {
		w.Vec = 1
	}
	return w, nil
}

func evalNonNeg(e expr.Expr, env expr.Env) (float64, error) {
	v, err := e.Eval(env)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, nil
	}
	return v, nil
}

func evalProb(e expr.Expr, env expr.Env) (float64, error) {
	v, err := e.Eval(env)
	if err != nil {
		return 0, err
	}
	return clamp01(v), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// prune drops contexts with negligible probability.
func prune(ctxs []ectx) []ectx {
	out := ctxs[:0]
	for _, c := range ctxs {
		if c.prob > probEps {
			out = append(out, c)
		}
	}
	return out
}

// mergeCtxs merges contexts with identical bindings, summing probabilities.
// Order of first occurrence is preserved for determinism.
func mergeCtxs(ctxs []ectx) []ectx {
	if len(ctxs) <= 1 {
		return ctxs
	}
	idx := make(map[string]int, len(ctxs))
	var out []ectx
	for _, c := range ctxs {
		k := envKey(c.env)
		if i, ok := idx[k]; ok {
			out[i].prob += c.prob
			continue
		}
		idx[k] = len(out)
		out = append(out, c)
	}
	return out
}
