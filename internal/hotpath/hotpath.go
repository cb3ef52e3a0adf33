// Package hotpath implements the paper's hot-path extraction (§V-C): for
// each identified hot spot, the control-flow path leading to it is obtained
// by back-tracing its BET node's parents to the root; the per-spot paths are
// then merged — shared nodes and edges coalesce, distinct ones become
// branches — into a single stripped-down view of the workload containing
// only the hot spots and the control flow that reaches them.
//
// Because the BET tracks context values, the extracted path carries each
// node's iteration count, branching probability, expected repetitions and
// data sizes — the information the paper proposes for building
// mini-applications and for path-based optimization.
package hotpath

import (
	"fmt"
	"sort"
	"strings"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/expr"
	"skope/internal/hotspot"
)

// Node is one node of the merged hot path: a BET node retained because it
// is a hot spot or lies on the path to one.
type Node struct {
	// BET is the underlying execution-tree node.
	BET *core.Node
	// HotSpot is non-nil when this node belongs to a selected hot spot.
	HotSpot *hotspot.Block
	// Children are the retained sub-paths, in execution order.
	Children []*Node
}

// Path is the merged hot path of a workload.
type Path struct {
	// Root corresponds to the entry function.
	Root *Node
	// NumNodes is the size of the merged path.
	NumNodes int
}

// Individual returns the per-spot back-traces (the paper's Figure 3(a)
// view): one root-to-spot node chain per BET node of each hot spot.
func Individual(spots []*hotspot.Block) [][]*core.Node {
	var out [][]*core.Node
	for _, s := range spots {
		for _, n := range s.Nodes {
			out = append(out, n.Path())
		}
	}
	return out
}

// Extract merges the back-traces of all selected hot spots into a single
// hot path (the Figure 3(b) view).
func Extract(root *core.Node, spots []*hotspot.Block) *Path {
	keep := make(map[*core.Node]bool)
	spotOf := make(map[*core.Node]*hotspot.Block)
	for _, s := range spots {
		for _, n := range s.Nodes {
			spotOf[n] = s
			for _, p := range n.Path() {
				keep[p] = true
			}
		}
	}
	p := &Path{}
	if !keep[root] {
		return p
	}
	p.Root = build(root, keep, spotOf, &p.NumNodes)
	return p
}

func build(n *core.Node, keep map[*core.Node]bool, spotOf map[*core.Node]*hotspot.Block, count *int) *Node {
	*count++
	out := &Node{BET: n, HotSpot: spotOf[n]}
	for _, c := range n.Children {
		if keep[c] {
			out.Children = append(out.Children, build(c, keep, spotOf, count))
		}
	}
	return out
}

// Render prints the hot path as an indented text tree annotated with
// conditional probabilities, expected iteration counts, total repetitions,
// and (for hot spots) the context bindings of the invocation.
func (p *Path) Render() string {
	if p.Root == nil {
		return "(empty hot path)\n"
	}
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		ind := strings.Repeat("  ", depth)
		bn := n.BET
		fmt.Fprintf(&b, "%s%s %s", ind, bn.Kind(), bn.Label())
		if bn.Prob != 1 {
			fmt.Fprintf(&b, " p=%.3g", bn.Prob)
		}
		if k := bn.Kind(); k == bst.KindLoop || k == bst.KindWhile {
			fmt.Fprintf(&b, " x%.4g", bn.Iters)
		}
		if n.HotSpot != nil {
			fmt.Fprintf(&b, "  <== HOT SPOT enr=%.4g ctx=%s", bn.ENR, shortEnv(bn.Env))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}

// shortEnv renders at most four context bindings, preferring input-like
// (non-loop-index) names, to keep hot-path listings readable.
func shortEnv(env expr.Env) string {
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		// Longer names first (input sizes tend to be named; indices are
		// single letters), then lexicographic.
		if len(names[i]) != len(names[j]) {
			return len(names[i]) > len(names[j])
		}
		return names[i] < names[j]
	})
	if len(names) > 4 {
		names = names[:4]
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%g", k, env[k])
	}
	if len(env) > len(names) {
		b.WriteString(", ...")
	}
	b.WriteByte('}')
	return b.String()
}

// DOT renders the hot path in Graphviz dot syntax; hot spots are drawn as
// filled boxes.
func (p *Path) DOT() string {
	var b strings.Builder
	b.WriteString("digraph hotpath {\n  node [shape=box, fontsize=10];\n")
	if p.Root == nil {
		b.WriteString("}\n")
		return b.String()
	}
	var rec func(n *Node)
	rec = func(n *Node) {
		bn := n.BET
		attrs := ""
		if n.HotSpot != nil {
			attrs = ", style=filled, fillcolor=lightcoral"
		}
		label := fmt.Sprintf("%s %s", bn.Kind(), bn.Label())
		switch bn.Kind() {
		case bst.KindLoop, bst.KindWhile:
			label += fmt.Sprintf("\\nx%.4g", bn.Iters)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"%s];\n", bn.ID, label, attrs)
		for _, c := range n.Children {
			edge := ""
			if c.BET.Prob != 1 {
				edge = fmt.Sprintf(" [label=\"p=%.3g\"]", c.BET.Prob)
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", bn.ID, c.BET.ID, edge)
			rec(c)
		}
	}
	rec(p.Root)
	b.WriteString("}\n")
	return b.String()
}

// MiniAppSkeleton emits a skeleton-language program containing only the hot
// path — the paper's proposed starting point for constructing
// mini-applications. Control nodes become loops/branches with their modeled
// parameters baked in as constants; hot spots become comp statements with
// their evaluated per-invocation workloads.
func (p *Path) MiniAppSkeleton() string {
	var b strings.Builder
	b.WriteString("# mini-app skeleton extracted from the hot path\n")
	b.WriteString("def main()\n")
	if p.Root != nil {
		for _, c := range p.Root.Children {
			miniRec(&b, c, 1)
		}
	}
	b.WriteString("end\n")
	return b.String()
}

func miniRec(b *strings.Builder, n *Node, depth int) {
	ind := strings.Repeat("  ", depth)
	bn := n.BET
	switch bn.Kind() {
	case bst.KindLoop, bst.KindWhile:
		fmt.Fprintf(b, "%sfor i%d = 0 : %g label=%q\n", ind, bn.ID, bn.Iters, bn.Label())
		for _, c := range n.Children {
			miniRec(b, c, depth+1)
		}
		fmt.Fprintf(b, "%send\n", ind)
	case bst.KindBranch:
		// Collapse the branch into its retained arms.
		for _, c := range n.Children {
			miniRec(b, c, depth)
		}
	case bst.KindCase, bst.KindElse:
		fmt.Fprintf(b, "%sif prob=%g\n", ind, bn.Prob)
		for _, c := range n.Children {
			miniRec(b, c, depth+1)
		}
		fmt.Fprintf(b, "%send\n", ind)
	case bst.KindCall, bst.KindFunc:
		for _, c := range n.Children {
			miniRec(b, c, depth)
		}
	case bst.KindComp:
		w := bn.Work
		fmt.Fprintf(b, "%scomp flops=%g iops=%g loads=%g stores=%g dsize=%g name=%q\n",
			ind, w.FLOPs, w.IOPs, w.Loads, w.Stores, w.DSizeB, bn.Label())
	case bst.KindLib:
		fmt.Fprintf(b, "%slib %s count=%g name=%q\n", ind, bn.LibFunc, bn.LibCount, bn.Label())
	case bst.KindComm:
		fmt.Fprintf(b, "%scomm bytes=%g msgs=%g name=%q\n", ind, bn.CommBytes, bn.CommMsgs, bn.Label())
	default:
		for _, c := range n.Children {
			miniRec(b, c, depth)
		}
	}
}
