package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"

	"skope/internal/explore"
	"skope/internal/workloads"
)

// This file draws every request sequence up front from the seed. A
// workload's program never sees the seed, only the requests.

const (
	coldPrepare   = "cold-prepare"
	gridSweep     = "grid-sweep"
	storeMixed    = "store-mixed"
	serveSessions = "serve-sessions"
)

var workloadNames = []string{coldPrepare, gridSweep, storeMixed, serveSessions}

// Axis value pools. Every value keeps the variants valid machines.
var (
	memLatencies = seq(60, 30, 16) // DRAM latency, cycles
	fpRates      = seq(1, 1, 8)    // scalar FP ops per cycle
	clocks       = seq(1, 0.25, 8) // GHz
	l1Sizes      = []float64{16, 32}
)

func seq(first, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = first + step*float64(i)
	}
	return out
}

// combo is one benchmark projected around one of the paper's machines.
type combo struct {
	Bench, Base string
}

func (c combo) String() string { return c.Bench + "/" + c.Base }

// combos lists the five benchmarks on both paper machines.
func combos() []combo {
	var out []combo
	for _, b := range workloads.Names() {
		for _, m := range []string{"bgq", "xeon"} {
			out = append(out, combo{b, m})
		}
	}
	return out
}

// newRand seeds one stream per workload, so adding a workload leaves the
// others' sequences unchanged.
func newRand(seed uint64, workload string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// stratified returns n class indices in [0, k). Each consecutive block of
// k is a seeded permutation, so every class appears equally often in any
// prefix that ends on a block boundary and only the order varies by seed.
// That keeps percentiles steady across seeds while the sequences differ.
func stratified(r *rand.Rand, n, k int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, r.Perm(k)...)
	}
	return out[:n]
}

// pick draws k distinct values of pool, in ascending order.
func pick(r *rand.Rand, pool []float64, k int) []float64 {
	out := make([]float64, k)
	for i, j := range r.Perm(len(pool))[:k] {
		out[i] = pool[j]
	}
	sort.Float64s(out)
	return out
}

// axisSpec renders an axis in the -sweep flag syntax skoped accepts.
func axisSpec(ax explore.Axis) string {
	vals := make([]string, len(ax.Values))
	for i, v := range ax.Values {
		vals[i] = fmt.Sprintf("%g", v)
	}
	return ax.Param + "=" + strings.Join(vals, ",")
}

// coldReq prepares one benchmark from source and sweeps a small grid.
type coldReq struct {
	Combo combo
	Axes  []explore.Axis
}

// coldRequests: 100 requests over the ten combos, each a 4x4 grid of
// DRAM latency and FP rate drawn from the pools.
func coldRequests(seed uint64, smoke bool) []coldReq {
	n, k := 100, 4
	if smoke {
		n, k = 4, 2
	}
	r := newRand(seed, coldPrepare)
	cs := combos()
	out := make([]coldReq, n)
	for i, c := range stratified(r, n, len(cs)) {
		out[i] = coldReq{Combo: cs[c], Axes: []explore.Axis{
			{Param: "mem-latency", Values: pick(r, memLatencies, k)},
			{Param: "fp-per-cycle", Values: pick(r, fpRates, k)},
		}}
	}
	return out
}

// gridAxes is the grid-sweep grid: 16 x 8 x 8 x 2 = 2048 variants. The L1
// size is not an input of the roofline model, so the engine's memo serves
// every second variant.
func gridAxes(smoke bool) []explore.Axis {
	if smoke {
		return []explore.Axis{
			{Param: "mem-latency", Values: memLatencies[:2]},
			{Param: "fp-per-cycle", Values: fpRates[:2]},
			{Param: "freq-ghz", Values: clocks[:2]},
			{Param: "l1-size-kb", Values: l1Sizes},
		}
	}
	return []explore.Axis{
		{Param: "mem-latency", Values: memLatencies},
		{Param: "fp-per-cycle", Values: fpRates},
		{Param: "freq-ghz", Values: clocks},
		{Param: "l1-size-kb", Values: l1Sizes},
	}
}

// gridRequests: 1000 sweeps, each of one combo's full grid.
func gridRequests(seed uint64, smoke bool) []combo {
	n := 1000
	if smoke {
		n = 10
	}
	cs := combos()
	out := make([]combo, n)
	for i, c := range stratified(newRand(seed, gridSweep), n, len(cs)) {
		out[i] = cs[c]
	}
	return out
}

// storePool is the grid store-mixed prewarms for every benchmark: 16 x 8.
func storePool(smoke bool) []explore.Axis {
	if smoke {
		return []explore.Axis{
			{Param: "mem-latency", Values: memLatencies[:4]},
			{Param: "fp-per-cycle", Values: fpRates[:4]},
		}
	}
	return []explore.Axis{
		{Param: "mem-latency", Values: memLatencies},
		{Param: "fp-per-cycle", Values: fpRates},
	}
}

// storeReq sweeps variants of the prewarmed pool together with variants
// no request has seen.
type storeReq struct {
	Bench string
	// Repeated indexes the prewarmed pool.
	Repeated []int
	// FreshGHz is the clock of this request's never-seen variants: one
	// per DRAM latency of the pool, at a clock no other request uses.
	FreshGHz float64
	// Order interleaves the two kinds: values below len(Repeated) index
	// Repeated, the rest index the fresh variants.
	Order []int
}

// storeRequests: 1000 requests of 48 repeated and 16 fresh variants.
func storeRequests(seed uint64, smoke bool) []storeReq {
	n, repeated := 1000, 48
	if smoke {
		n, repeated = 10, 12
	}
	pool := 1
	for _, ax := range storePool(smoke) {
		pool *= len(ax.Values)
	}
	fresh := len(storePool(smoke)[0].Values)
	r := newRand(seed, storeMixed)
	names := workloads.Names()
	clocks := r.Perm(n)
	out := make([]storeReq, n)
	for i, b := range stratified(r, n, len(names)) {
		out[i] = storeReq{
			Bench:    names[b],
			Repeated: r.Perm(pool)[:repeated],
			FreshGHz: 2 + 0.001*float64(clocks[i]),
			Order:    r.Perm(repeated + fresh),
		}
	}
	return out
}

// serveKey is one distinct session: a benchmark and a 64-variant grid.
type serveKey struct {
	Bench string
	Sweep []string
}

// serveKeys: five benchmarks x eight grids. Grid g shifts the DRAM
// latencies by 5g cycles, so the 40 sessions share no variant.
func serveKeys(smoke bool) []serveKey {
	grids, k := 8, 8
	if smoke {
		grids, k = 2, 2
	}
	var out []serveKey
	for _, b := range workloads.Names() {
		for g := 0; g < grids; g++ {
			out = append(out, serveKey{Bench: b, Sweep: []string{
				axisSpec(explore.Axis{Param: "mem-latency", Values: seq(60+5*float64(g), 60, k)}),
				axisSpec(explore.Axis{Param: "fp-per-cycle", Values: fpRates[:k]}),
			}})
		}
	}
	return out
}

// serveRequests: 1000 sessions over the 40 keys. The first 40 are every
// key's first session and find the store cold; the other 960 find it
// warm. The cold sessions come in pairs of one benchmark, and the two
// connections take alternate requests, so each cold session is prepared
// beside one of the same benchmark: the cold tail then does not depend
// on which benchmarks the seed happens to put side by side.
func serveRequests(seed uint64, smoke bool) []int {
	n := 1000
	if smoke {
		n = 20
	}
	keys := serveKeys(smoke)
	grids := len(keys) / len(workloads.Names()) // keys are grouped by benchmark
	r := newRand(seed, serveSessions)
	var pairs [][2]int
	for b := range workloads.Names() {
		g := r.Perm(grids)
		for j := 0; j+1 < grids; j += 2 {
			pairs = append(pairs, [2]int{b*grids + g[j], b*grids + g[j+1]})
		}
	}
	out := make([]int, 0, n)
	for _, p := range r.Perm(len(pairs)) {
		out = append(out, pairs[p][0], pairs[p][1])
	}
	return append(out, stratified(r, n-len(out), len(keys))...)
}
