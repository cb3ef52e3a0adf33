// Package bst implements the Block Skeleton Tree of the paper (Figure 2(b)):
// the parsed, input-independent tree form of a code skeleton. Each node
// corresponds to one skeleton statement; statements that encapsulate other
// statements (function definitions, loops, branches) own them as children.
//
// The BST deliberately contains no information about the input — it alone
// does not determine control flow or data flow. The Bayesian Execution Tree
// (package core) conceptually traverses the BST, mounting callee trees at
// call sites, to mimic the run-time execution for a given input context.
package bst

import (
	"fmt"
	"math"
	"strings"

	"skope/internal/expr"
	"skope/internal/skeleton"
)

// Kind classifies BST nodes.
type Kind int

// Node kinds. Branch nodes own one Case child per if/elif arm plus an
// optional Else child; bodies hang off those group nodes.
const (
	KindFunc Kind = iota
	KindComp
	KindLib
	KindComm
	KindLoop
	KindWhile
	KindBranch
	KindCase
	KindElse
	KindCall
	KindSet
	KindVar
	KindReturn
	KindBreak
	KindContinue
	// KindHole marks a statement the lenient parser could not understand:
	// a placeholder carrying position but no modelable content. Strict
	// model builds reject it; lenient builds charge it zero work and mark
	// the surrounding projection as assumed.
	KindHole
)

var kindNames = [...]string{
	"func", "comp", "lib", "comm", "loop", "while", "branch", "case", "else",
	"call", "set", "var", "return", "break", "continue", "hole",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is one BST node.
type Node struct {
	Kind Kind
	// FuncName is the skeleton function this node belongs to.
	FuncName string
	// Line is the source line of the underlying statement.
	Line int

	// Stmt is the underlying skeleton statement (nil for KindFunc,
	// KindCase, KindElse).
	Stmt skeleton.Stmt
	// Fn is set for KindFunc nodes.
	Fn *skeleton.FuncDef
	// Case is set for KindCase nodes.
	Case *skeleton.IfCase

	Children []*Node
}

// Label returns a human-readable identity for the node: the comp/lib block
// name, loop label, or kind@line.
func (n *Node) Label() string {
	switch n.Kind {
	case KindFunc:
		return n.FuncName
	case KindComp:
		return n.Stmt.(*skeleton.Comp).Name
	case KindLib:
		return n.Stmt.(*skeleton.Lib).Name
	case KindComm:
		return n.Stmt.(*skeleton.Comm).Name
	case KindLoop:
		if l := n.Stmt.(*skeleton.Loop); l.Label != "" {
			return l.Label
		}
	case KindWhile:
		if w := n.Stmt.(*skeleton.While); w.Label != "" {
			return w.Label
		}
	}
	return fmt.Sprintf("%s@%s:%d", n.Kind, n.FuncName, n.Line)
}

// BlockID returns the stable identity used to match analytical projections
// against measured profiles: "<func>/<label>".
func (n *Node) BlockID() string {
	return n.FuncName + "/" + n.Label()
}

// Tree is the BST of a whole program: one rooted tree per function.
type Tree struct {
	Prog  *skeleton.Program
	Funcs map[string]*Node
	// Order lists function roots in program order.
	Order []*Node
}

// Func returns the BST root of the named function.
func (t *Tree) Func(name string) (*Node, error) {
	n, ok := t.Funcs[name]
	if !ok {
		return nil, fmt.Errorf("bst: no function %q", name)
	}
	return n, nil
}

// Build constructs the BST for a validated skeleton program.
func Build(prog *skeleton.Program) (*Tree, error) {
	t := &Tree{Prog: prog, Funcs: make(map[string]*Node, len(prog.Funcs))}
	for _, f := range prog.Funcs {
		root := &Node{
			Kind: KindFunc, FuncName: f.Name, Line: f.Line, Fn: f,
		}
		var err error
		root.Children, err = t.buildBody(f.Name, f.Body)
		if err != nil {
			return nil, err
		}
		t.Funcs[f.Name] = root
		t.Order = append(t.Order, root)
	}
	return t, nil
}

func (t *Tree) buildBody(fn string, body []skeleton.Stmt) ([]*Node, error) {
	var out []*Node
	for _, s := range body {
		n := &Node{FuncName: fn, Line: s.Pos(), Stmt: s}
		switch st := s.(type) {
		case *skeleton.Comp:
			n.Kind = KindComp
		case *skeleton.Lib:
			n.Kind = KindLib
		case *skeleton.Comm:
			n.Kind = KindComm
		case *skeleton.Loop:
			n.Kind = KindLoop
			kids, err := t.buildBody(fn, st.Body)
			if err != nil {
				return nil, err
			}
			n.Children = kids
		case *skeleton.While:
			n.Kind = KindWhile
			kids, err := t.buildBody(fn, st.Body)
			if err != nil {
				return nil, err
			}
			n.Children = kids
		case *skeleton.If:
			n.Kind = KindBranch
			for i := range st.Cases {
				c := &st.Cases[i]
				cn := &Node{
					Kind: KindCase, FuncName: fn, Line: c.Line, Case: c,
				}
				kids, err := t.buildBody(fn, c.Body)
				if err != nil {
					return nil, err
				}
				cn.Children = kids
				n.Children = append(n.Children, cn)
			}
			if st.Else != nil {
				en := &Node{Kind: KindElse, FuncName: fn, Line: st.Pos()}
				kids, err := t.buildBody(fn, st.Else)
				if err != nil {
					return nil, err
				}
				en.Children = kids
				n.Children = append(n.Children, en)
			}
		case *skeleton.Call:
			n.Kind = KindCall
		case *skeleton.Set:
			n.Kind = KindSet
		case *skeleton.VarDecl:
			n.Kind = KindVar
		case *skeleton.Return:
			n.Kind = KindReturn
		case *skeleton.Break:
			n.Kind = KindBreak
		case *skeleton.Continue:
			n.Kind = KindContinue
		case *skeleton.Hole:
			n.Kind = KindHole
		default:
			return nil, fmt.Errorf("bst: unhandled statement type %T at line %d", s, s.Pos())
		}
		out = append(out, n)
	}
	return out, nil
}

// Walk visits n and its descendants in pre-order. If visit returns false the
// subtree below the current node is skipped.
func Walk(n *Node, visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, visit)
	}
}

// StaticInsts estimates the static instruction footprint of a comp
// statement, the unit of the paper's code-leanness criterion. If the
// skeleton supplies an explicit constant insts attribute it is used;
// otherwise the operation-count expressions are evaluated with every free
// variable bound to 1 (i.e. treating symbolic counts as loop-carried, so one
// static instruction per operation kind instance), with a floor of 1.
func StaticInsts(c *skeleton.Comp) int {
	if c.M.Insts != nil {
		if v, ok := expr.IsConst(c.M.Insts); ok && v > 0 {
			return int(math.Round(v))
		}
	}
	total := 0.0
	for _, e := range []expr.Expr{c.M.FLOPs, c.M.IOPs, c.M.Loads, c.M.Stores} {
		total += evalAtOnes(e)
	}
	if total < 1 {
		return 1
	}
	return int(math.Round(total))
}

// LibStaticInsts is the static footprint charged to a library call site.
// A call is a handful of static instructions regardless of its dynamic cost.
const LibStaticInsts = 4

// CommStaticInsts is the static footprint charged to a communication call
// site (an MPI call is a few instructions of application code).
const CommStaticInsts = 4

func evalAtOnes(e expr.Expr) float64 {
	if e == nil {
		return 0
	}
	env := expr.Env{}
	for _, v := range expr.FreeVars(e) {
		env[v] = 1
	}
	val, err := e.Eval(env)
	if err != nil || val < 0 {
		return 0
	}
	return val
}

// TotalStaticInsts sums StaticInsts over all comp and lib nodes of the
// program: the denominator of the code-leanness criterion.
func (t *Tree) TotalStaticInsts() int {
	total := 0
	for _, root := range t.Order {
		Walk(root, func(n *Node) bool {
			switch n.Kind {
			case KindComp:
				total += StaticInsts(n.Stmt.(*skeleton.Comp))
			case KindLib:
				total += LibStaticInsts
			case KindComm:
				total += CommStaticInsts
			}
			return true
		})
	}
	return total
}

// Dump renders the tree structure for debugging and golden tests.
func (t *Tree) Dump() string {
	var b strings.Builder
	for _, root := range t.Order {
		dumpNode(&b, root, 0)
	}
	return b.String()
}

func dumpNode(b *strings.Builder, n *Node, depth int) {
	fmt.Fprintf(b, "%s%s %s (line %d)\n", strings.Repeat("  ", depth), n.Kind, n.Label(), n.Line)
	for _, c := range n.Children {
		dumpNode(b, c, depth+1)
	}
}
