package explore_test

import (
	"slices"
	"testing"

	"skope/internal/explore"
)

// pt is one (cost, time) point of the Pareto suite.
type pt = [2]float64

// frontierOf runs ParetoPoints over (cost, time) pairs, indexed by input
// position, and returns the frontier's pairs.
func frontierOf(points []pt) []pt {
	in := make([]explore.Point, len(points))
	for i, p := range points {
		in[i] = explore.Point{Index: i, Cost: p[0], Time: p[1]}
	}
	var out []pt
	for _, p := range explore.ParetoPoints(in) {
		out = append(out, pt{p.Cost, p.Time})
	}
	return out
}

// bruteFrontier computes the non-dominated set directly.
func bruteFrontier(points []pt) map[pt]bool {
	out := make(map[pt]bool)
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if q != p && q[0] <= p[0] && q[1] <= p[1] {
				dominated = true
				break
			}
		}
		if !dominated {
			out[p] = true
		}
	}
	return out
}

func TestPareto(t *testing.T) {
	// Each step adds points to the set and states the frontier of every
	// point so far, sorted by ascending cost.
	type step struct {
		add  []pt
		want []pt
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"dominance", []step{
			// (20,3) is costlier but faster: kept. (15,6) is costlier and
			// slower than (10,5), (30,4) slower than (20,3) at a higher
			// cost: both dominated.
			{[]pt{{10, 5}, {20, 3}, {15, 6}, {30, 4}}, []pt{{10, 5}, {20, 3}}},
			// A strictly better point dominates everything.
			{[]pt{{5, 2.5}}, []pt{{5, 2.5}}},
		}},
		{"equal-axes", []step{
			{[]pt{{10, 5}, {10, 5}}, []pt{{10, 5}}}, // exact duplicate
			{[]pt{{10, 6}}, []pt{{10, 5}}},          // equal cost, slower
			{[]pt{{10, 4}}, []pt{{10, 4}}},          // equal cost, faster
			{[]pt{{12, 4}}, []pt{{10, 4}}},          // equal time, costlier
			{[]pt{{8, 4}}, []pt{{8, 4}}},            // equal time, cheaper
		}},
		{"mid-eviction", []step{
			{[]pt{{10, 8}, {20, 6}, {30, 4}, {40, 2}}, []pt{{10, 8}, {20, 6}, {30, 4}, {40, 2}}},
			// (15,3) dominates (20,6) and (30,4) but not (10,8) or (40,2).
			{[]pt{{15, 3}}, []pt{{10, 8}, {15, 3}, {40, 2}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var points []pt
			for i, s := range tc.steps {
				points = append(points, s.add...)
				if got := frontierOf(points); !slices.Equal(got, s.want) {
					t.Fatalf("step %d: frontier of %v = %v, want %v", i, points, got, s.want)
				}
			}
		})
	}

	t.Run("brute-force", func(t *testing.T) {
		// A deterministic scatter with ties on both axes.
		var points []pt
		for i := 0; i < 60; i++ {
			points = append(points, pt{float64(1 + (i*7)%13), float64(1 + (i*11)%17)})
		}
		want := bruteFrontier(points)
		got := frontierOf(points)
		if len(got) != len(want) {
			t.Fatalf("frontier has %d points, brute force %d: %v", len(got), len(want), got)
		}
		for i, p := range got {
			if !want[p] {
				t.Errorf("frontier point %v not in the brute-force set", p)
			}
			if i > 0 && (p[0] <= got[i-1][0] || p[1] >= got[i-1][1]) {
				t.Errorf("order violated at %d: %v after %v", i, p, got[i-1])
			}
		}
	})

	t.Run("ties-keep-lowest-index", func(t *testing.T) {
		// Indices 2, 5 and 9 tie exactly on (10, 5); 7 is dominated and 4
		// is the faster, costlier end of the frontier. Whatever the input
		// order, the frontier keeps index 2 for the tie.
		base := []explore.Point{
			{Index: 5, Cost: 10, Time: 5},
			{Index: 9, Cost: 10, Time: 5},
			{Index: 7, Cost: 12, Time: 6},
			{Index: 2, Cost: 10, Time: 5},
			{Index: 4, Cost: 20, Time: 1},
		}
		for shift := range base {
			for _, reverse := range []bool{false, true} {
				in := make([]explore.Point, len(base))
				for i := range base {
					j := (i + shift) % len(base)
					if reverse {
						j = len(base) - 1 - j
					}
					in[i] = base[j]
				}
				got := explore.ParetoPoints(in)
				if len(got) != 2 || got[0].Index != 2 || got[1].Index != 4 {
					t.Fatalf("shift %d reverse %v: frontier %+v, want indices [2 4]", shift, reverse, got)
				}
			}
		}
	})
}
