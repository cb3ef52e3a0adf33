package interp

import (
	"fmt"
	"sort"
	"strings"
)

// BranchStat is the profiled outcome distribution of one branch site.
type BranchStat struct {
	Taken, Total int64
}

// Prob returns the fall-through (taken) probability; 0.5 when never seen.
func (b BranchStat) Prob() float64 {
	if b.Total == 0 {
		return 0.5
	}
	return float64(b.Taken) / float64(b.Total)
}

// LoopStat is the profiled trip-count distribution of one loop site.
type LoopStat struct {
	// Trips is the total iterations over all executions; Execs the number
	// of times the loop statement ran.
	Trips, Execs int64
	MinTrips     int64
	MaxTrips     int64
}

// Mean returns the average trip count per execution.
func (l LoopStat) Mean() float64 {
	if l.Execs == 0 {
		return 0
	}
	return float64(l.Trips) / float64(l.Execs)
}

// Profile is the output of the local branch-profiling run (the paper's gcov
// pass): hardware-independent branch and loop statistics, keyed by site
// ("<func>@<line>:<col>").
type Profile struct {
	Branches map[string]*BranchStat
	Loops    map[string]*LoopStat
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		Branches: make(map[string]*BranchStat),
		Loops:    make(map[string]*LoopStat),
	}
}

// Profiler is the Observer that collects a Profile. It ignores operation
// and memory events: branch statistics are hardware independent, which is
// why the paper needs only one local profiling run reusable across targets.
type Profiler struct {
	NopObserver
	P *Profile
}

// NewProfiler returns a profiler with an empty profile.
func NewProfiler() *Profiler { return &Profiler{P: NewProfile()} }

// Branch implements Observer.
func (pr *Profiler) Branch(site string, taken bool) {
	st := pr.P.Branches[site]
	if st == nil {
		st = &BranchStat{}
		pr.P.Branches[site] = st
	}
	st.Total++
	if taken {
		st.Taken++
	}
}

// LoopTrips implements Observer.
func (pr *Profiler) LoopTrips(site string, trips int64) {
	st := pr.P.Loops[site]
	if st == nil {
		st = &LoopStat{MinTrips: trips, MaxTrips: trips}
		pr.P.Loops[site] = st
	}
	st.Execs++
	st.Trips += trips
	if trips < st.MinTrips {
		st.MinTrips = trips
	}
	if trips > st.MaxTrips {
		st.MaxTrips = trips
	}
}

// String renders the profile deterministically for goldens and debugging.
func (p *Profile) String() string {
	var b strings.Builder
	keys := make([]string, 0, len(p.Branches))
	for k := range p.Branches {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := p.Branches[k]
		fmt.Fprintf(&b, "branch %s taken %d/%d p=%.4f\n", k, st.Taken, st.Total, st.Prob())
	}
	keys = keys[:0]
	for k := range p.Loops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := p.Loops[k]
		fmt.Fprintf(&b, "loop %s execs %d mean %.4g min %d max %d\n",
			k, st.Execs, st.Mean(), st.MinTrips, st.MaxTrips)
	}
	return b.String()
}
