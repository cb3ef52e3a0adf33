package hotspot

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/skeleton"
)

// BlockTimes is the machine-dependent half of one block's characterization:
// the aggregate projected times over all of the block's BET leaves. It is
// the unit the design-space exploration engine caches — a block's times
// depend only on a small subset of machine parameters (the roofline inputs
// for comp/lib blocks, the network parameters for comm blocks), so variants
// that leave that subset unchanged can reuse them verbatim.
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
	// proto carries the static fields and machine-independent aggregates;
	// its time fields are zero and filled per machine by Assemble.
	proto  Block
	leaves []layoutLeaf
}

// Layout is the machine-independent skeleton of an Analysis: which BET
// leaves aggregate into which source blocks, with every per-invocation
// workload already resolved (including library models). Building it once
// and projecting it onto many machines is the heart of the exploration
// engine; Analyze itself is NewLayout + Layout.Analyze, so cached and
// uncached projections follow the identical floating-point path.
type Layout struct {
	bet              *core.BET
	totalStaticInsts int
	// blocks is every source block in first-encounter (leaf) order; comp
	// and comm are the non-comm and comm subsets in the same order.
	blocks []*layoutBlock
	comp   []*layoutBlock
	comm   []*layoutBlock
	// confidence and betDiags carry the BET's measured-vs-assumed score
	// and prior-substitution record into every assembled analysis (and
	// into the fingerprint, so a journal written by a lenient run never
	// replays into a strict one).
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
		bet: bet, totalStaticInsts: bet.Tree.TotalStaticInsts(),
		confidence: bet.Confidence, betDiags: bet.Diagnostics,
	}
	byID := make(map[string]*layoutBlock)
	for _, n := range bet.Leaves() {
		id := n.BlockID()
		lb := byID[id]
		if lb == nil {
			lb = &layoutBlock{proto: Block{
				BlockID: id, Label: n.Label(), FuncName: n.BST.FuncName,
				Line: n.BST.Line, IsLib: n.Kind() == bst.KindLib,
			}}
			switch n.Kind() {
			case bst.KindComp:
				lb.proto.StaticInsts = bst.StaticInsts(n.BST.Stmt.(*skeleton.Comp))
			case bst.KindLib:
				lb.proto.StaticInsts = bst.LibStaticInsts
			case bst.KindComm:
				lb.proto.IsComm = true
				lb.proto.StaticInsts = bst.CommStaticInsts
			}
			byID[id] = lb
			l.blocks = append(l.blocks, lb)
			if lb.proto.IsComm {
				l.comm = append(l.comm, lb)
			} else {
				l.comp = append(l.comp, lb)
			}
		}
		lb.proto.Invocations += n.ENR
		lb.proto.Nodes = append(lb.proto.Nodes, n)
		if n.Kind() == bst.KindComm {
			lb.proto.CommBytes += n.CommBytes * n.ENR
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
		lb.proto.Work.Add(perInv.Scale(n.ENR))
		lb.leaves = append(lb.leaves, layoutLeaf{perInv: perInv, enr: n.ENR})
	}
	l.fp = l.fingerprint()
	return l, nil
}

// NumComp and NumComm report how many comp/lib and comm blocks the layout
// holds — the lengths CompTimes and CommTimes return and Assemble expects.
func (l *Layout) NumComp() int { return len(l.comp) }
func (l *Layout) NumComm() int { return len(l.comm) }

// Fingerprint digests the layout's full machine-independent content:
// block identities and order, every leaf's per-invocation workload
// (bit-level for floats), ENR scaling, and comm volumes. Two layouts
// fingerprint equal iff CompTimes/CommTimes/Assemble would produce
// identical results for any machine — which makes the digest the right
// binding between a sweep journal and the workload that wrote it: replay
// is refused the moment the source, profile, or translation changed.
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
		s(lb.proto.BlockID)
		if lb.proto.IsComm {
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
		bt := &out[i]
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
	}
	return out
}

// CommTimes projects every comm block onto machine m's interconnect, in
// the layout's block order. The result depends only on the network
// parameters (NetLatencyUs, NetBandwidthGBs).
func (l *Layout) CommTimes(m *hw.Machine) []BlockTimes {
	out := make([]BlockTimes, len(l.comm))
	for i, lb := range l.comm {
		bt := &out[i]
		for _, lf := range lb.leaves {
			t := m.CommTime(lf.bytes, lf.msgs) * lf.enr
			bt.Tm += t
			bt.T += t
		}
		bt.MemoryBound = true
	}
	return out
}

// Assemble combines per-block times (as produced by CompTimes and
// CommTimes, possibly from a cache) into a full Analysis for machine m.
// It fails if the slices do not match the layout's block counts — the
// symptom of a cache keyed on a stale layout. Non-finite block times
// (NaN/Inf from degenerate machine parameters) do not fail the assembly;
// they are surfaced on Analysis.Diagnostics so callers can degrade
// gracefully instead of silently ranking on garbage.
func (l *Layout) Assemble(m *hw.Machine, comp, comm []BlockTimes) (*Analysis, error) {
	if len(comp) != len(l.comp) || len(comm) != len(l.comm) {
		return nil, fmt.Errorf("hotspot: Assemble on %s with %d comp and %d comm times, layout has %d and %d (per-block cache built from a different layout?)",
			m.Name, len(comp), len(comm), len(l.comp), len(l.comm))
	}
	a := &Analysis{
		Machine:          m,
		ByID:             make(map[string]*Block, len(l.blocks)),
		TotalStaticInsts: l.totalStaticInsts,
		BET:              l.bet,
		Blocks:           make([]*Block, 0, len(l.blocks)),
	}
	backing := make([]Block, len(l.blocks))
	ci, mi := 0, 0
	for bi, lb := range l.blocks {
		b := &backing[bi]
		*b = lb.proto
		var bt BlockTimes
		if lb.proto.IsComm {
			bt = comm[mi]
			mi++
		} else {
			bt = comp[ci]
			ci++
		}
		b.Tc, b.Tm, b.To, b.T = bt.Tc, bt.Tm, bt.To, bt.T
		b.MemoryBound = bt.MemoryBound
		if !isFinite(bt.T) || !isFinite(bt.Tc) || !isFinite(bt.Tm) || !isFinite(bt.To) {
			a.Diagnostics = append(a.Diagnostics, guard.Diagnostic{
				Stage: "roofline", Code: "non-finite-time", BlockID: b.BlockID,
				Message: fmt.Sprintf("projected times on %s are not finite (Tc=%g Tm=%g To=%g T=%g); check the machine parameters",
					m.Name, bt.Tc, bt.Tm, bt.To, bt.T),
			})
		}
		a.ByID[b.BlockID] = b
		a.Blocks = append(a.Blocks, b)
		a.TotalTime += bt.T
	}
	sort.SliceStable(a.Blocks, func(i, j int) bool {
		if a.Blocks[i].T != a.Blocks[j].T {
			return a.Blocks[i].T > a.Blocks[j].T
		}
		return a.Blocks[i].BlockID < a.Blocks[j].BlockID
	})
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
	return a, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Analyze projects the layout onto one machine — the single-variant path
// Analyze (the package function) uses, and the uncached path the
// exploration engine's memoization must match bit for bit.
func (l *Layout) Analyze(model *hw.Model) (*Analysis, error) {
	return l.Assemble(model.Machine(), l.CompTimes(model), l.CommTimes(model.Machine()))
}
