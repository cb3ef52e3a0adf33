package hotspot

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

// BlockTimes is the machine-dependent half of one block's characterization:
// the aggregate projected times over all of the block's BET leaves, as
// CompTimes and CommTimes return them one layer at a time for Assemble.
// Analyze computes the same times block by block without materializing
// them.
type BlockTimes struct {
	// Tc, Tm, To, T are the aggregate projected times in seconds.
	Tc, Tm, To, T float64
	// MemoryBound is the roofline verdict for the block's dominant node.
	MemoryBound bool
}

// layoutLeaf is one BET leaf's machine-independent contribution record.
type layoutLeaf struct {
	// perInv is the per-invocation workload of comp/lib leaves.
	perInv hw.BlockWork
	// bytes and msgs describe comm leaves.
	bytes, msgs float64
	// enr scales the per-invocation estimate.
	enr float64
}

// layoutBlock groups the leaves of one source block in leaf order.
type layoutBlock struct {
	// info is the block's machine-independent half, shared by every
	// analysis the layout assembles.
	info   BlockInfo
	leaves []layoutLeaf
}

// Layout is the machine-independent skeleton of an Analysis: which BET
// leaves aggregate into which source blocks, with every per-invocation
// workload already resolved (including library models). Building it once
// and projecting it onto many machines is the heart of the exploration
// engine; the package function Analyze is NewLayout + Layout.Analyze, so
// a sweep and a single projection follow the identical floating-point
// path.
type Layout struct {
	totalStaticInsts int
	// blocks is every source block in first-encounter (leaf) order; comp
	// and comm are the non-comm and comm subsets in the same order.
	blocks []*layoutBlock
	comp   []*layoutBlock
	comm   []*layoutBlock
	// byID indexes blocks by BlockID, for Graft.
	byID map[string]*layoutBlock
	// confidence and betDiags carry the BET's measured-vs-assumed score
	// and prior-substitution record into every assembled analysis (and
	// into the fingerprint, so a result stored by a lenient run is never
	// served to a strict one).
	confidence float64
	betDiags   []guard.Diagnostic
	// fp is the Fingerprint, computed once: a Layout never changes after
	// NewLayout.
	fp string
}

// NewLayout resolves the machine-independent half of the analysis: block
// grouping, per-invocation workloads, library characterizations, and the
// ENR-scaled aggregate work. It fails on library blocks the modeler does
// not know.
func NewLayout(bet *core.BET, libs LibModeler) (*Layout, error) {
	l := &Layout{
		totalStaticInsts: bet.Tree.TotalStaticInsts(),
		confidence:       bet.Confidence, betDiags: bet.Diagnostics,
		byID: make(map[string]*layoutBlock),
	}
	for _, n := range bet.Leaves() {
		id := n.BlockID()
		lb := l.byID[id]
		if lb == nil {
			lb = &layoutBlock{info: BlockInfo{
				BlockID: id, Label: n.Label(), FuncName: n.BST.FuncName,
				Line: n.BST.Line, IsLib: n.Kind() == bst.KindLib,
			}}
			switch n.Kind() {
			case bst.KindComp:
				lb.info.StaticInsts = bst.StaticInsts(n.BST.Stmt.(*skeleton.Comp))
			case bst.KindLib:
				lb.info.StaticInsts = bst.LibStaticInsts
			case bst.KindComm:
				lb.info.IsComm = true
				lb.info.StaticInsts = bst.CommStaticInsts
			}
			l.byID[id] = lb
			l.blocks = append(l.blocks, lb)
			if lb.info.IsComm {
				l.comm = append(l.comm, lb)
			} else {
				l.comp = append(l.comp, lb)
			}
		}
		lb.info.Invocations += n.ENR
		lb.info.Nodes = append(lb.info.Nodes, n)
		if n.Kind() == bst.KindComm {
			lb.info.CommBytes += n.CommBytes * n.ENR
			lb.leaves = append(lb.leaves, layoutLeaf{
				bytes: n.CommBytes, msgs: n.CommMsgs, enr: n.ENR,
			})
			continue
		}
		var perInv hw.BlockWork
		switch n.Kind() {
		case bst.KindComp:
			perInv = n.Work
		case bst.KindLib:
			if libs == nil {
				return nil, fmt.Errorf("hotspot: block %s calls library %q but no library model was supplied", id, n.LibFunc)
			}
			lw, err := libs.LibWork(n.LibFunc)
			if err != nil {
				return nil, fmt.Errorf("hotspot: block %s: %w", id, err)
			}
			perInv = lw.Scale(n.LibCount)
		}
		lb.info.Work.Add(perInv.Scale(n.ENR))
		lb.leaves = append(lb.leaves, layoutLeaf{perInv: perInv, enr: n.ENR})
	}
	l.fp = l.fingerprint()
	return l, nil
}

// Fingerprint digests the layout's full machine-independent content:
// block identities and order, every leaf's per-invocation workload
// (bit-level for floats), ENR scaling, and comm volumes. Two layouts
// fingerprint equal iff Analyze would produce identical results for any
// machine — which makes the digest the right first component of a stored
// result's key: a stored result stops being served the moment the source,
// profile, or translation changed.
func (l *Layout) Fingerprint() string { return l.fp }

// fingerprint computes the digest Fingerprint returns.
func (l *Layout) fingerprint() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		h.Write(buf)
	}
	i := func(v int) {
		binary.LittleEndian.PutUint64(buf, uint64(int64(v)))
		h.Write(buf)
	}
	s := func(v string) {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	i(l.totalStaticInsts)
	i(len(l.comp))
	i(len(l.comm))
	f(l.confidence)
	i(len(l.betDiags))
	for _, d := range l.betDiags {
		s(d.Severity.String())
		s(d.String())
	}
	for _, lb := range l.blocks {
		s(lb.info.BlockID)
		if lb.info.IsComm {
			s("comm")
		} else {
			s("comp")
		}
		i(len(lb.leaves))
		for _, lf := range lb.leaves {
			f(lf.enr)
			f(lf.bytes)
			f(lf.msgs)
			w := lf.perInv
			f(w.FLOPs)
			f(w.IOPs)
			f(w.Loads)
			f(w.Stores)
			f(w.DSizeB)
			f(w.Divs)
			f(w.Vec)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// CompTimes projects every comp and lib block onto the given roofline
// model, in the layout's block order. The result depends only on the
// machine parameters the model reads (clocks, issue rates, cache/memory
// latencies, hit ratios, concurrency, bandwidth — never the network).
func (l *Layout) CompTimes(model *hw.Model) []BlockTimes {
	out := make([]BlockTimes, len(l.comp))
	for i, lb := range l.comp {
		out[i] = lb.compTimes(model)
	}
	return out
}

// CommTimes projects every comm block onto machine m's interconnect, in
// the layout's block order. The result depends only on the network
// parameters (NetLatencyUs, NetBandwidthGBs).
func (l *Layout) CommTimes(m *hw.Machine) []BlockTimes {
	out := make([]BlockTimes, len(l.comm))
	for i, lb := range l.comm {
		out[i] = lb.commTimes(m)
	}
	return out
}

// compTimes sums the roofline estimates of a comp or lib block's leaves.
func (lb *layoutBlock) compTimes(model *hw.Model) (bt BlockTimes) {
	for _, lf := range lb.leaves {
		est := model.Estimate(lf.perInv)
		tcontrib := est.T * lf.enr
		bt.Tc += est.Tc * lf.enr
		bt.Tm += est.Tm * lf.enr
		bt.To += est.To * lf.enr
		bt.T += tcontrib
		if est.MemoryBound && tcontrib >= bt.T/2 {
			bt.MemoryBound = true
		}
	}
	return bt
}

// commTimes sums the interconnect times of a comm block's leaves.
func (lb *layoutBlock) commTimes(m *hw.Machine) (bt BlockTimes) {
	for _, lf := range lb.leaves {
		t := m.CommTime(lf.bytes, lf.msgs) * lf.enr
		bt.Tm += t
		bt.T += t
	}
	bt.MemoryBound = true
	return bt
}

// Assemble combines per-block times, as produced by CompTimes and
// CommTimes, into the Analysis that Analyze returns for machine m. It
// fails if the slices do not match the layout's block counts.
func (l *Layout) Assemble(m *hw.Machine, comp, comm []BlockTimes) (*Analysis, error) {
	if len(comp) != len(l.comp) || len(comm) != len(l.comm) {
		return nil, fmt.Errorf("hotspot: Assemble on %s with %d comp and %d comm times, layout has %d and %d",
			m.Name, len(comp), len(comm), len(l.comp), len(l.comm))
	}
	a, blocks := l.newAnalysis(m)
	ci, mi := 0, 0
	for bi, lb := range l.blocks {
		if lb.info.IsComm {
			a.setTimes(&blocks[bi], comm[mi])
			mi++
		} else {
			a.setTimes(&blocks[bi], comp[ci])
			ci++
		}
	}
	l.rank(a, blocks)
	return a, nil
}

// Analyze projects the layout onto the model's machine: every comp and lib
// block onto the roofline model, every comm block onto the interconnect.
// Each block's times go straight into the analysis, so a projection
// allocates the Analysis and two slices whatever the block count: the
// blocks share the layout's BlockInfos. Non-finite block times (NaN/Inf
// from degenerate machine parameters) do not fail the projection; they
// are surfaced on Analysis.Diagnostics so callers can degrade gracefully
// instead of silently ranking on garbage. The package function Analyze,
// pipeline.Evaluate and the exploration engine all project through here.
func (l *Layout) Analyze(model *hw.Model) *Analysis {
	m := model.Machine()
	a, blocks := l.newAnalysis(m)
	for bi, lb := range l.blocks {
		if lb.info.IsComm {
			a.setTimes(&blocks[bi], lb.commTimes(m))
		} else {
			a.setTimes(&blocks[bi], lb.compTimes(model))
		}
	}
	l.rank(a, blocks)
	return a
}

// newAnalysis allocates the analysis of machine m and its blocks, one per
// layout block in layout order, each sharing the layout's BlockInfo.
// a.Blocks is left for rank to fill.
func (l *Layout) newAnalysis(m *hw.Machine) (*Analysis, []Block) {
	a := &Analysis{
		Machine:          m,
		TotalStaticInsts: l.totalStaticInsts,
		Blocks:           make([]*Block, len(l.blocks)),
	}
	blocks := make([]Block, len(l.blocks))
	for bi, lb := range l.blocks {
		blocks[bi].BlockInfo = &lb.info
	}
	return a, blocks
}

// setTimes records block b's projected times, adding them to the total
// and flagging them when they are not finite.
func (a *Analysis) setTimes(b *Block, bt BlockTimes) {
	b.Tc, b.Tm, b.To, b.T, b.MemoryBound = bt.Tc, bt.Tm, bt.To, bt.T, bt.MemoryBound
	if !isFinite(bt.T) || !isFinite(bt.Tc) || !isFinite(bt.Tm) || !isFinite(bt.To) {
		a.Diagnostics = append(a.Diagnostics, guard.Diagnostic{
			Stage: "roofline", Code: "non-finite-time", BlockID: b.BlockID,
			Message: fmt.Sprintf("projected times on %s are not finite (Tc=%g Tm=%g To=%g T=%g); check the machine parameters",
				a.Machine.Name, bt.Tc, bt.Tm, bt.To, bt.T),
		})
	}
	a.TotalTime += bt.T
}

// rank finishes an analysis whose blocks all have their times, in layout
// order: it ranks them into a.Blocks by time and sets the confidence and
// diagnostics.
func (l *Layout) rank(a *Analysis, blocks []Block) {
	rankByTime(a.Blocks, blocks)
	// Confidence: the BET's measured-vs-assumed score, further reduced to
	// the finite fraction of block projections when the machine produced
	// NaN/Inf times (weakest-stage composition).
	nonFinite := len(a.Diagnostics)
	a.Confidence = l.confidence
	if len(l.blocks) > 0 && nonFinite > 0 {
		if frac := float64(len(l.blocks)-nonFinite) / float64(len(l.blocks)); frac < a.Confidence {
			a.Confidence = frac
		}
	}
	a.Diagnostics = append(a.Diagnostics, l.betDiags...)
	guard.SortDiagnostics(a.Diagnostics)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
