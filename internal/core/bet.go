// Package core implements the paper's primary contribution: the Bayesian
// Execution Tree (BET), an analytical model of a workload's dynamic
// execution flow built from its Block Skeleton Tree and an input context
// (§IV).
//
// A BET node represents the dynamic execution of a code block under a given
// context — a set of variable bindings plus the conditional probability of
// reaching the node given one execution of its parent. Construction
// conceptually traverses the BST from the entry function, mounting callee
// trees at call sites, WITHOUT iterating loops: a loop contributes a single
// node annotated with its expected iteration count, so model construction
// and analysis time are independent of the input data size.
//
// Probabilistic branch outcomes (from the branch profiler or developer
// hints) fork contexts; contexts with identical bindings re-merge after the
// branch, which keeps the tree close to source size (the paper reports the
// BET averaging 88% of source statements and never exceeding 2x).
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"skope/internal/bst"
	"skope/internal/expr"
	"skope/internal/guard"
	"skope/internal/hw"
)

// Node is one BET node: the dynamic execution of a code block in a context.
type Node struct {
	// ID is unique within the BET, assigned in construction order.
	ID int
	// BST is the block-skeleton-tree node this execution instantiates.
	BST *bst.Node
	// Parent is the enclosing dynamic block (nil at the root).
	Parent *Node
	// Children are the dynamic sub-blocks, in execution order.
	Children []*Node

	// Env is the context bindings under which the block executes (loop
	// variables are bound to their expected value over the iteration
	// range).
	Env expr.Env
	// Prob is the conditional probability of executing this node given one
	// execution of its parent.
	Prob float64
	// Iters is the expected number of iterations (1 for non-loop nodes).
	// For loops with probabilistic break it is the truncated-geometric
	// expectation (1-(1-p)^n)/p.
	Iters float64
	// ENR is the expected number of repetitions of this node over the
	// whole execution (the paper's ENR), filled in by computeENR:
	// ENR = ENR(parent) * Iters(parent) * Prob.
	ENR float64

	// Work is the per-invocation workload of comp nodes (zero otherwise).
	Work hw.BlockWork
	// LibFunc and LibCount describe lib nodes: the library function called
	// and the expected invocation count per execution of the node.
	LibFunc  string
	LibCount float64

	// CommBytes and CommMsgs describe comm nodes: the data volume and
	// message count per execution (multi-node projection extension).
	CommBytes, CommMsgs float64

	// Assumed marks a node whose quantities came from a fallback prior
	// rather than the skeleton/profile (lenient builds only): a missing
	// branch probability, an unevaluable trip count or work expression, or
	// a parser hole. Descendants of an assumed node inherit its
	// uncertainty when confidence is computed.
	Assumed bool
}

// Kind returns the BST kind of the node.
func (n *Node) Kind() bst.Kind { return n.BST.Kind }

// Label returns the BST label of the node.
func (n *Node) Label() string { return n.BST.Label() }

// BlockID returns the stable block identity for profile matching.
func (n *Node) BlockID() string { return n.BST.BlockID() }

// Path returns the chain of nodes from the root to n, inclusive — the
// back-trace used for hot-path extraction (§V-C).
func (n *Node) Path() []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	out := make([]*Node, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// BET is the Bayesian Execution Tree for one workload and input.
type BET struct {
	// Root is the dynamic execution of the entry function.
	Root *Node
	// Tree is the BST the BET was built from.
	Tree *bst.Tree

	// Confidence is the measured-vs-assumed coverage of the tree: the
	// fraction of expected dynamic executions (ENR mass over comp, lib,
	// comm and hole leaves) that rests on modeled quantities rather than
	// fallback priors. A strict build is always 1.0; a lenient build drops
	// below 1.0 by exactly the ENR share under assumed nodes.
	Confidence float64
	// Diagnostics records every prior substitution and hole the (lenient)
	// build papered over, deterministically sorted. Empty for strict
	// builds and for lenient builds of intact inputs.
	Diagnostics []guard.Diagnostic

	nodes int
}

// NumNodes returns the number of nodes in the BET.
func (b *BET) NumNodes() int { return b.nodes }

// SizeRatio returns NumNodes divided by the static statement count of the
// skeleton — the paper's §IV-B size metric (average 0.88, bounded by 2).
func (b *BET) SizeRatio() float64 {
	return float64(b.nodes) / float64(b.Tree.Prog.StaticStatements())
}

// Walk visits n and its descendants in pre-order. Returning false prunes
// the subtree.
func Walk(n *Node, visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, visit)
	}
}

// Leaves returns all comp, lib, and comm nodes of the BET in execution
// order — the hot-spot candidates.
func (b *BET) Leaves() []*Node {
	var out []*Node
	Walk(b.Root, func(n *Node) bool {
		switch n.Kind() {
		case bst.KindComp, bst.KindLib, bst.KindComm:
			out = append(out, n)
		}
		return true
	})
	return out
}

// Dump renders the BET structure with probabilities, iteration counts and
// context values — the Figure 2(c) view.
func (b *BET) Dump() string {
	var sb strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		ind := strings.Repeat("  ", depth)
		fmt.Fprintf(&sb, "%s%s %s p=%.3g", ind, n.Kind(), n.Label(), n.Prob)
		if n.Kind() == bst.KindLoop || n.Kind() == bst.KindWhile {
			fmt.Fprintf(&sb, " iters=%.4g", n.Iters)
		}
		if n.ENR != 0 {
			fmt.Fprintf(&sb, " enr=%.4g", n.ENR)
		}
		if len(n.Env) > 0 && depth <= 3 {
			fmt.Fprintf(&sb, " ctx=%s", expr.FormatEnv(n.Env))
		}
		sb.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(b.Root, 0)
	return sb.String()
}

// envKey returns a canonical string for a context's bindings, used to merge
// equivalent contexts after branches: each name in sorted order, '=', and
// the value's 8-byte bit pattern. Two bindings key alike exactly when
// their values print alike under %g: every float prints distinctly except
// the NaNs, which are all keyed as one. The key's length, and so what
// building it allocates, does not depend on the values' magnitudes.
func envKey(env expr.Env) string {
	names := make([]string, 0, len(env))
	size := 0
	for k := range env {
		names = append(names, k)
		size += len(k) + 1 + 8
	}
	sort.Strings(names)
	buf := make([]byte, 0, size)
	for _, k := range names {
		v := env[k]
		if math.IsNaN(v) {
			v = math.NaN()
		}
		buf = append(buf, k...)
		buf = append(buf, '=')
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return string(buf)
}

// computeENR fills in Node.ENR over the whole tree:
// ENR(root) = 1; ENR(child) = ENR(parent) * Iters(parent) * Prob(child).
func (b *BET) computeENR() {
	var rec func(n *Node, enr float64)
	rec = func(n *Node, enr float64) {
		n.ENR = enr
		for _, c := range n.Children {
			rec(c, enr*n.Iters*c.Prob)
		}
	}
	b.Root.Prob = 1
	rec(b.Root, 1)
}

// computeConfidence fills in BET.Confidence after computeENR: one minus
// the ENR-weighted share of leaf executions (comp/lib/comm/hole) that sit
// at or below an assumed node. Runs for strict builds too, where no node
// is assumed and the result is exactly 1.0 — the score is derived, never
// perturbing the modeled times.
func (b *BET) computeConfidence() {
	var total, assumed float64
	var rec func(n *Node, tainted bool)
	rec = func(n *Node, tainted bool) {
		tainted = tainted || n.Assumed
		switch n.Kind() {
		case bst.KindComp, bst.KindLib, bst.KindComm, bst.KindHole:
			total += n.ENR
			if tainted {
				assumed += n.ENR
			}
		case bst.KindCall:
			// A childless call carries no leaves to weigh, yet it stands
			// for real work: an undefined callee modeled as empty (lenient
			// fallback) or a genuinely empty function. Count the call site
			// itself so an assumed-empty call lowers the score instead of
			// vanishing from the denominator.
			if len(n.Children) == 0 {
				total += n.ENR
				if tainted {
					assumed += n.ENR
				}
			}
		}
		for _, c := range n.Children {
			rec(c, tainted)
		}
	}
	rec(b.Root, false)
	switch {
	case total > 0:
		b.Confidence = (total - assumed) / total
	case len(b.Diagnostics) == 0:
		// Nothing to model and nothing papered over: fully confident.
		b.Confidence = 1
	default:
		// All modelable content was lost to recovery.
		b.Confidence = 0
	}
}
