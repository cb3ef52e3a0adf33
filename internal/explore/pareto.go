package explore

import (
	"math"
	"sort"

	"skope/internal/hotspot"
	"skope/internal/hw"
)

// CostFunc scores a machine variant in some cost unit (silicon budget,
// power, dollars — whatever the co-design study trades projected time
// against).
type CostFunc func(*hw.Machine) float64

// RelativeCost is a crude hardware-cost proxy for Pareto views when no
// real cost model is at hand: scalar peak GFLOP/s plus weighted DRAM and
// network bandwidth plus cache capacity, in arbitrary but fixed units.
// Co-design studies with a real budget should supply their own CostFunc.
func RelativeCost(m *hw.Machine) float64 {
	return m.FPOpsPerCycle*m.FreqGHz +
		0.25*m.MemBandwidthGBs +
		0.5*float64(m.LLCSizeB)/(1<<20) +
		0.05*float64(m.L1SizeB)/(1<<10) +
		0.5*m.NetBandwidthGBs
}

// Best returns the index of the analysis with the lowest projected total
// time, the first of any tie (-1 if the slice is empty or all nil). A NaN
// or infinite total never wins: such an analysis is skipped, so the answer
// does not depend on where in the slice it sits.
func Best(analyses []*hotspot.Analysis) int {
	best := -1
	for i, a := range analyses {
		if a == nil || !finite(a.TotalTime) {
			continue
		}
		if best < 0 || a.TotalTime < analyses[best].TotalTime {
			best = i
		}
	}
	return best
}

// RanksAhead reports whether a variant projected at total time a ranks
// ahead of one projected at b: finite times in ascending order, then every
// NaN or infinite time, all tied. It is a strict weak order, so a stable
// sort by it keeps tied variants in input order.
func RanksAhead(a, b float64) bool {
	fa, fb := finite(a), finite(b)
	if fa && fb {
		return a < b
	}
	return fa && !fb
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Point is one variant on the time/cost plane.
type Point struct {
	// Index is the variant's position in the sweep inputs.
	Index int
	// Machine is the variant.
	Machine *hw.Machine
	// Time is the projected total execution time in seconds.
	Time float64
	// Cost is the CostFunc score.
	Cost float64
}

// Pareto returns the non-dominated variants of a sweep over (projected
// time, cost), as ParetoPoints defines them. variants and analyses must be
// index-aligned, as a sweep returns them; nil analyses are skipped.
func Pareto(variants []*hw.Machine, analyses []*hotspot.Analysis, cost CostFunc) []Point {
	pts := make([]Point, 0, len(analyses))
	for i, a := range analyses {
		if a == nil || i >= len(variants) {
			continue
		}
		pts = append(pts, Point{Index: i, Machine: variants[i], Time: a.TotalTime, Cost: cost(variants[i])})
	}
	return ParetoPoints(pts)
}

// ParetoPoints returns the non-dominated points: a point is kept iff no
// other point is at least as good on both axes and strictly better on
// one. Points whose time is NaN or infinite are dropped first: they are
// not better than anything. Of points tied exactly on (cost, time) only
// the one with the lowest Index is kept, so the result never depends on
// input order. The frontier is sorted by ascending cost (hence descending
// time). pts is reordered in place.
func ParetoPoints(pts []Point) []Point {
	kept := pts[:0]
	for _, p := range pts {
		if finite(p.Time) {
			kept = append(kept, p)
		}
	}
	pts = kept
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Cost != pts[j].Cost {
			return pts[i].Cost < pts[j].Cost
		}
		if pts[i].Time != pts[j].Time {
			return pts[i].Time < pts[j].Time
		}
		return pts[i].Index < pts[j].Index
	})
	var frontier []Point
	for _, p := range pts {
		// Within a cost tie the fastest comes first, so a single
		// strictly-decreasing-time scan yields the frontier.
		if n := len(frontier); n > 0 && p.Time >= frontier[n-1].Time {
			continue // dominated (or tied) by a cheaper-or-equal variant
		}
		frontier = append(frontier, p)
	}
	return frontier
}
