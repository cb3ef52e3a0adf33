package hw

import "math"

// BlockWork is the numeric per-invocation workload characterization of a
// code block, produced by evaluating a skeleton comp statement's metric
// expressions under a BET context.
type BlockWork struct {
	// FLOPs and IOPs are floating-point and fixed-point operation counts.
	FLOPs, IOPs float64
	// Loads and Stores count data elements moved.
	Loads, Stores float64
	// DSizeB is the element size in bytes.
	DSizeB float64
	// Divs is the number of FP divisions included in FLOPs.
	Divs float64
	// Vec is the vectorizable width hint carried from the skeleton (the
	// base roofline model ignores it; the vector-aware extension and the
	// simulator use it).
	Vec float64
}

// Add accumulates other into w (element sizes are combined by weighted
// average over access counts).
func (w *BlockWork) Add(o BlockWork) {
	accW := w.Loads + w.Stores
	accO := o.Loads + o.Stores
	if accW+accO > 0 {
		w.DSizeB = (w.DSizeB*accW + o.DSizeB*accO) / (accW + accO)
	}
	w.FLOPs += o.FLOPs
	w.IOPs += o.IOPs
	w.Loads += o.Loads
	w.Stores += o.Stores
	w.Divs += o.Divs
	if o.Vec > w.Vec {
		w.Vec = o.Vec
	}
}

// Scale returns w with every count multiplied by k.
func (w BlockWork) Scale(k float64) BlockWork {
	return BlockWork{
		FLOPs: w.FLOPs * k, IOPs: w.IOPs * k,
		Loads: w.Loads * k, Stores: w.Stores * k,
		DSizeB: w.DSizeB, Divs: w.Divs * k, Vec: w.Vec,
	}
}

// Bytes returns the data volume moved by one invocation.
func (w BlockWork) Bytes() float64 { return (w.Loads + w.Stores) * w.DSizeB }

// Estimate is the roofline projection for one invocation of a code block.
type Estimate struct {
	// Tc is the computation time in seconds.
	Tc float64
	// Tm is the memory access time in seconds.
	Tm float64
	// To is the overlapped time in seconds: min(Tc, Tm) * delta.
	To float64
	// T is the projected wall time: Tc + Tm - To.
	T float64
	// MemoryBound reports whether Tm > Tc (the roofline verdict on the
	// block's bottleneck).
	MemoryBound bool
}

// Model projects block execution times on a Machine. The zero value is not
// usable; construct with NewModel.
type Model struct {
	m *Machine
	// vectorAware enables the optional extension that credits the skeleton
	// vec hint with SIMD speedup (off in the paper's model; used for the
	// ablation study of the STASSUIJ error source).
	vectorAware bool
	// divAware enables the optional extension that charges FP divisions
	// their real latency (off in the paper's model; used for the ablation
	// of the CFD error source).
	divAware bool
}

// NewModel returns the paper's first-order roofline model for machine m.
func NewModel(m *Machine) *Model { return &Model{m: m} }

// NewVectorAwareModel returns the roofline model with the SIMD extension
// enabled (ablation: removes the paper's STASSUIJ overestimate).
func NewVectorAwareModel(m *Machine) *Model { return &Model{m: m, vectorAware: true} }

// NewDivAwareModel returns the roofline model with division-latency
// modeling enabled (ablation: removes the paper's CFD underestimate).
func NewDivAwareModel(m *Machine) *Model { return &Model{m: m, divAware: true} }

// Machine returns the machine the model projects onto.
func (mo *Model) Machine() *Machine { return mo.m }

// Estimate projects the time of one invocation of a block with workload w,
// following §V-A:
//
//	Tc = compute time from operation counts and scalar issue rates
//	Tm = max(latency-limited, bandwidth-limited) data movement time under
//	     the constant cache-hit assumption
//	To = min(Tc, Tm) * delta, delta = 1 - 1/sqrt(1 + FLOPs)
//	T  = Tc + Tm - To
func (mo *Model) Estimate(w BlockWork) Estimate {
	m := mo.m

	fpops := w.FLOPs
	divCycles := 0.0
	if mo.divAware {
		// Charge divisions separately at their real latency and remove
		// them from the throughput term.
		fpops = math.Max(0, w.FLOPs-w.Divs)
		divCycles = w.Divs * float64(m.DivLatencyCyc) / float64(m.IssueWidth)
	}
	fpRate := m.FPOpsPerCycle
	if mo.vectorAware && w.Vec > 1 {
		fpRate *= math.Min(w.Vec, float64(m.VectorWidth))
	}
	compCycles := fpops/fpRate + w.IOPs/m.IntOpsPerCycle + divCycles
	tc := m.CyclesToSeconds(compCycles)

	accesses := w.Loads + w.Stores
	// Constant-hit-ratio expected latency per access.
	perAccess := m.HitL1*float64(m.L1LatencyCyc) +
		(1-m.HitL1)*(m.HitLLC*float64(m.LLCLatencyCyc)+
			(1-m.HitLLC)*float64(m.MemLatencyCyc))
	tmLat := m.CyclesToSeconds(accesses * perAccess / m.MemConcurrency)
	dramBytes := w.Bytes() * (1 - m.HitL1) * (1 - m.HitLLC)
	tmBW := dramBytes / (m.MemBandwidthGBs * 1e9)
	tm := math.Max(tmLat, tmBW)

	delta := overlapDegree(w.FLOPs)
	to := math.Min(tc, tm) * delta
	return Estimate{
		Tc: tc, Tm: tm, To: to, T: tc + tm - to,
		MemoryBound: tm > tc,
	}
}

// overlapDegree implements the paper's heuristic that the chance of
// computation/memory overlap grows with the block's floating-point count:
// delta = 1 - 1/sqrt(1 + Nfp), so 0 for pure data movement and -> 1 for
// compute-rich blocks. (The exact formula is garbled in the published text;
// see DESIGN.md for the reconstruction rationale.)
func overlapDegree(nfp float64) float64 {
	if nfp < 0 {
		nfp = 0
	}
	return 1 - 1/math.Sqrt(1+nfp)
}
