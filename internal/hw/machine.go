// Package hw defines parameterized hardware performance models: machine
// descriptions and the extended roofline model the paper uses to project the
// execution time of each code block (§V-A).
//
// A single Machine struct serves both consumers in this repository:
//
//   - the analytical model (package hotspot) reads only the coarse,
//     first-order parameters — frequency, scalar issue rates, cache/memory
//     latencies, bandwidth, and the constant cache-hit assumption — exactly
//     the abstraction level of the paper;
//   - the validation simulator (package sim) additionally uses the detailed
//     parameters the analytical model deliberately ignores: real cache
//     geometry (sets/ways/line size), division latency, and vector width.
//
// That split reproduces the paper's central premise: the model trades
// accuracy for speed and hardware-independence, and its known error sources
// (no division modeling, no vectorization modeling, no real cache behaviour)
// are visible when compared against the detailed machine.
package hw

import (
	"fmt"
	"math"
)

// Machine describes a target architecture configuration.
type Machine struct {
	// Name identifies the configuration in reports (e.g. "BG/Q").
	Name string

	// FreqGHz is the core clock in GHz.
	FreqGHz float64
	// IssueWidth is the maximum instructions issued per cycle.
	IssueWidth int
	// FPOpsPerCycle is the scalar floating-point throughput per cycle used
	// by the analytical model. The paper's model does not credit SIMD; the
	// simulator applies VectorWidth on top of this for vectorized blocks.
	FPOpsPerCycle float64
	// IntOpsPerCycle is the scalar fixed-point throughput per cycle.
	IntOpsPerCycle float64
	// VectorWidth is the SIMD width in 64-bit lanes (used by the simulator
	// and by the optional vector-aware model extension; 1 = scalar).
	VectorWidth int
	// AutoVectorize marks toolchains that vectorize any clean loop, not
	// only explicitly annotated ones (the paper: the Xeon binary is
	// "highly vectorized by default", while IBM XL on BG/Q vectorizes
	// selectively).
	AutoVectorize bool

	// DivLatencyCyc is the latency of one FP division (simulator only; the
	// analytical model treats divisions as ordinary FLOPs, which the paper
	// identifies as its CFD error source).
	DivLatencyCyc int
	// Prefetch enables the simulator's next-line L1 prefetcher: on a miss
	// the following line is filled as well, making sequential streams
	// nearly free while leaving irregular access untouched. The analytical
	// model ignores prefetching entirely (another first-order
	// simplification available as a co-design knob).
	Prefetch bool

	// L1 cache geometry and latency (per core).
	L1SizeB, L1LineB, L1Assoc int
	L1LatencyCyc              int
	// LLC (shared last-level cache) geometry and latency.
	LLCSizeB, LLCLineB, LLCAssoc int
	LLCLatencyCyc                int
	// MemLatencyCyc is the DRAM access latency in cycles.
	MemLatencyCyc int
	// MemBandwidthGBs is the peak DRAM bandwidth in GB/s.
	MemBandwidthGBs float64
	// MemConcurrency is the number of overlapping outstanding memory
	// accesses assumed by the latency term of the roofline model.
	MemConcurrency float64

	// HitL1 and HitLLC are the constant cache hit ratios assumed by the
	// analytical model (the paper fixes both at 0.85 and notes observed
	// workloads fall between 0.75 and 0.95).
	HitL1, HitLLC float64

	// NetLatencyUs and NetBandwidthGBs parameterize the interconnect for
	// the multi-node projection extension (the paper's stated future
	// work): one message costs NetLatencyUs microseconds plus
	// bytes / NetBandwidthGBs of serialization time.
	NetLatencyUs    float64
	NetBandwidthGBs float64
}

// CommTime projects the wall time of a communication phase: msgs messages
// totaling bytes bytes.
func (m *Machine) CommTime(bytes, msgs float64) float64 {
	if msgs < 0 {
		msgs = 0
	}
	if bytes < 0 {
		bytes = 0
	}
	return msgs*m.NetLatencyUs*1e-6 + bytes/(m.NetBandwidthGBs*1e9)
}

// Validate checks that the machine description is physically meaningful:
// every float parameter finite, every size, rate and latency positive, and
// the hit ratios in [0,1].
func (m *Machine) Validate() error {
	param, v := m.nonFinite()
	switch {
	case m.Name == "":
		return fmt.Errorf("hw: machine has no name")
	case param != "":
		return fmt.Errorf("hw: %s: %s must be finite, not %g", m.Name, param, v)
	case m.FreqGHz <= 0:
		return fmt.Errorf("hw: %s: frequency must be positive", m.Name)
	case m.IssueWidth <= 0:
		return fmt.Errorf("hw: %s: issue width must be positive", m.Name)
	case m.FPOpsPerCycle <= 0 || m.IntOpsPerCycle <= 0:
		return fmt.Errorf("hw: %s: op throughputs must be positive", m.Name)
	case m.VectorWidth < 1:
		return fmt.Errorf("hw: %s: vector width must be >= 1", m.Name)
	case m.L1SizeB <= 0 || m.L1LineB <= 0 || m.L1Assoc <= 0:
		return fmt.Errorf("hw: %s: invalid L1 geometry", m.Name)
	case m.LLCSizeB <= 0 || m.LLCLineB <= 0 || m.LLCAssoc <= 0:
		return fmt.Errorf("hw: %s: invalid LLC geometry", m.Name)
	case m.L1SizeB%(m.L1LineB*m.L1Assoc) != 0:
		return fmt.Errorf("hw: %s: L1 size not divisible by line*assoc", m.Name)
	case m.LLCSizeB%(m.LLCLineB*m.LLCAssoc) != 0:
		return fmt.Errorf("hw: %s: LLC size not divisible by line*assoc", m.Name)
	case m.L1LatencyCyc <= 0 || m.LLCLatencyCyc <= 0 || m.MemLatencyCyc <= 0:
		return fmt.Errorf("hw: %s: latencies must be positive", m.Name)
	case m.MemBandwidthGBs <= 0:
		return fmt.Errorf("hw: %s: bandwidth must be positive", m.Name)
	case m.MemConcurrency <= 0:
		return fmt.Errorf("hw: %s: memory concurrency must be positive", m.Name)
	case m.HitL1 < 0 || m.HitL1 > 1 || m.HitLLC < 0 || m.HitLLC > 1:
		return fmt.Errorf("hw: %s: hit ratios must be in [0,1]", m.Name)
	case m.DivLatencyCyc <= 0:
		return fmt.Errorf("hw: %s: division latency must be positive", m.Name)
	case m.NetLatencyUs <= 0 || m.NetBandwidthGBs <= 0:
		return fmt.Errorf("hw: %s: network parameters must be positive", m.Name)
	}
	return nil
}

// nonFinite returns the first float parameter that is NaN or infinite and
// its value, or "" when every one is finite. A NaN passes every range
// check in Validate and +Inf passes all but the hit ratios', so each is
// caught here.
func (m *Machine) nonFinite() (string, float64) {
	for _, p := range [...]struct {
		name string
		v    float64
	}{
		{"frequency", m.FreqGHz},
		{"FP throughput", m.FPOpsPerCycle},
		{"int throughput", m.IntOpsPerCycle},
		{"bandwidth", m.MemBandwidthGBs},
		{"memory concurrency", m.MemConcurrency},
		{"L1 hit ratio", m.HitL1},
		{"LLC hit ratio", m.HitLLC},
		{"network latency", m.NetLatencyUs},
		{"network bandwidth", m.NetBandwidthGBs},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return p.name, p.v
		}
	}
	return "", 0
}

// CyclesToSeconds converts a cycle count on this machine to seconds.
func (m *Machine) CyclesToSeconds(cycles float64) float64 {
	return cycles / (m.FreqGHz * 1e9)
}

// BGQ returns a single-core model of an IBM Blue Gene/Q Power A2 node as
// characterized in the paper's §VI: 1.6 GHz, 16 KB L1D, 32 MB shared L2
// with 51-cycle latency, 180-cycle DRAM latency. The A2 core is a 4-way SMT
// in-order core; we model 2-wide issue and modest scalar FP throughput with
// QPX vector width 4 available to the simulator.
func BGQ() *Machine {
	return &Machine{
		Name:           "BG/Q",
		FreqGHz:        1.6,
		IssueWidth:     2,
		FPOpsPerCycle:  2, // scalar FMA
		IntOpsPerCycle: 2,
		VectorWidth:    4, // QPX: 4 doubles
		AutoVectorize:  false,
		DivLatencyCyc:  32,

		L1SizeB: 16 << 10, L1LineB: 64, L1Assoc: 8, L1LatencyCyc: 6,
		LLCSizeB: 32 << 20, LLCLineB: 128, LLCAssoc: 16, LLCLatencyCyc: 51,
		MemLatencyCyc:   180,
		MemBandwidthGBs: 28,
		MemConcurrency:  4,
		HitL1:           0.85, HitLLC: 0.85,
		// 5-D torus: ~2 GB/s per link, low latency.
		NetLatencyUs: 2.5, NetBandwidthGBs: 2,
	}
}

// XeonE5 returns a single-core model of the paper's Intel Xeon E5-2420
// node: 1.9 GHz, larger out-of-order core with wide SIMD (AVX), smaller
// shared LLC than BG/Q, faster processing but relatively more expensive
// memory access — the combination the paper credits for the machines'
// different hot-spot rankings and the larger memory share in Fig. 7.
func XeonE5() *Machine {
	return &Machine{
		Name:           "Xeon E5-2420",
		FreqGHz:        1.9,
		IssueWidth:     4,
		FPOpsPerCycle:  4, // scalar add+mul pipes with FMA-like throughput
		IntOpsPerCycle: 4,
		VectorWidth:    4, // AVX: 4 doubles
		AutoVectorize:  true,
		DivLatencyCyc:  22,

		L1SizeB: 32 << 10, L1LineB: 64, L1Assoc: 8, L1LatencyCyc: 4,
		LLCSizeB: 15 << 20, LLCLineB: 64, LLCAssoc: 20, LLCLatencyCyc: 40,
		MemLatencyCyc:   300,
		MemBandwidthGBs: 34,
		MemConcurrency:  4,
		HitL1:           0.85, HitLLC: 0.85,
		// QDR InfiniBand-class cluster interconnect.
		NetLatencyUs: 1.5, NetBandwidthGBs: 4,
	}
}

// Future returns a conceptual next-generation node — the co-design target
// the paper motivates ("predict and understand application behavior on
// emerging or conceptual systems"): a wide-SIMD, high-bandwidth (HBM-class)
// design with aggressive memory concurrency but long absolute DRAM latency,
// and a fast fat-tree interconnect. No such machine exists to profile on —
// exactly the situation where only model-based projection is available.
func Future() *Machine {
	return &Machine{
		Name:           "FutureNode",
		FreqGHz:        2.4,
		IssueWidth:     6,
		FPOpsPerCycle:  8,
		IntOpsPerCycle: 6,
		VectorWidth:    8, // 512-bit SIMD
		AutoVectorize:  true,
		DivLatencyCyc:  16,
		Prefetch:       true,

		L1SizeB: 64 << 10, L1LineB: 64, L1Assoc: 8, L1LatencyCyc: 5,
		LLCSizeB: 64 << 20, LLCLineB: 64, LLCAssoc: 16, LLCLatencyCyc: 45,
		MemLatencyCyc:   420, // HBM: high bandwidth, long latency
		MemBandwidthGBs: 400,
		MemConcurrency:  32, // deep miss queues hide the latency

		HitL1: 0.85, HitLLC: 0.85,
		NetLatencyUs: 0.9, NetBandwidthGBs: 12,
	}
}

// Presets lists the built-in machine models by CLI name.
func Presets() map[string]func() *Machine {
	return map[string]func() *Machine{
		"bgq":    BGQ,
		"xeon":   XeonE5,
		"future": Future,
	}
}

// Preset returns the named preset machine.
func Preset(name string) (*Machine, error) {
	f, ok := Presets()[name]
	if !ok {
		return nil, fmt.Errorf("hw: unknown machine preset %q (want bgq or xeon)", name)
	}
	return f(), nil
}
