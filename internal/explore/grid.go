package explore

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"skope/internal/hw"
)

// param is a named, settable machine parameter — the vocabulary Grid axes
// (and the cmd/skope -sweep flag) are written in.
type param struct {
	name string
	desc string
	// silent is empty when hw.NewModel, the paper's model that skope and
	// skoped sweep with, reads the parameter; otherwise it says why the
	// model ignores it and what to sweep instead.
	silent string
	set    func(*hw.Machine, float64)
}

const ablationOnly = "only the ablation models read it"

// params is the sweepable-parameter registry. Integer-valued machine
// fields are rounded to the nearest integer; hw.Machine.Validate still
// guards every generated variant.
var params = []param{
	{"freq-ghz", "core clock (GHz)", "", func(m *hw.Machine, v float64) { m.FreqGHz = v }},
	{"issue-width", "instructions issued per cycle", ablationOnly, func(m *hw.Machine, v float64) { m.IssueWidth = round(v) }},
	{"fp-per-cycle", "scalar FP ops per cycle", "", func(m *hw.Machine, v float64) { m.FPOpsPerCycle = v }},
	{"int-per-cycle", "scalar fixed-point ops per cycle", "", func(m *hw.Machine, v float64) { m.IntOpsPerCycle = v }},
	{"vector-width", "SIMD width in 64-bit lanes", ablationOnly, func(m *hw.Machine, v float64) { m.VectorWidth = round(v) }},
	{"div-latency", "FP division latency (cycles)", ablationOnly, func(m *hw.Machine, v float64) { m.DivLatencyCyc = round(v) }},
	{"l1-size-kb", "L1 data cache size (KB)", "cache geometry reaches no model; sweep hit-l1, the assumed L1 hit ratio, instead", func(m *hw.Machine, v float64) { m.L1SizeB = round(v) << 10 }},
	{"l1-latency", "L1 hit latency (cycles)", "", func(m *hw.Machine, v float64) { m.L1LatencyCyc = round(v) }},
	{"llc-size-mb", "last-level cache size (MB)", "cache geometry reaches no model; sweep hit-llc, the assumed LLC hit ratio, instead", func(m *hw.Machine, v float64) { m.LLCSizeB = round(v) << 20 }},
	{"llc-latency", "LLC hit latency (cycles)", "", func(m *hw.Machine, v float64) { m.LLCLatencyCyc = round(v) }},
	{"mem-latency", "DRAM access latency (cycles)", "", func(m *hw.Machine, v float64) { m.MemLatencyCyc = round(v) }},
	{"mem-bandwidth", "peak DRAM bandwidth (GB/s)", "", func(m *hw.Machine, v float64) { m.MemBandwidthGBs = v }},
	{"mem-concurrency", "overlapping outstanding memory accesses", "", func(m *hw.Machine, v float64) { m.MemConcurrency = v }},
	{"hit-l1", "assumed L1 hit ratio", "", func(m *hw.Machine, v float64) { m.HitL1 = v }},
	{"hit-llc", "assumed LLC hit ratio", "", func(m *hw.Machine, v float64) { m.HitLLC = v }},
	{"net-latency-us", "interconnect message latency (us)", "", func(m *hw.Machine, v float64) { m.NetLatencyUs = v }},
	{"net-bandwidth", "interconnect bandwidth (GB/s)", "", func(m *hw.Machine, v float64) { m.NetBandwidthGBs = v }},
}

func round(v float64) int { return int(math.Round(v)) }

func paramByName(name string) (param, bool) {
	for _, p := range params {
		if p.name == name {
			return p, true
		}
	}
	return param{}, false
}

// ParamNames lists the sweepable parameter names, sorted.
func ParamNames() []string {
	out := make([]string, len(params))
	for i, p := range params {
		out[i] = p.name
	}
	sort.Strings(out)
	return out
}

// ParamHelp renders one "name — description" line per sweepable parameter,
// in registry (machine-struct) order, for CLI usage text. The line of a
// parameter the model never reads ends with why CheckModeled refuses it.
func ParamHelp() []string {
	out := make([]string, len(params))
	for i, p := range params {
		out[i] = fmt.Sprintf("%-16s %s", p.name, p.desc)
		if p.silent != "" {
			out[i] += " [refused: " + p.silent + "]"
		}
	}
	return out
}

// Axis is one dimension of a design-space grid: a sweepable parameter and
// the values it takes.
type Axis struct {
	Param  string
	Values []float64
}

// ParseAxis parses a "param=v1,v2,v3" axis specification (the cmd/skope
// -sweep flag syntax).
func ParseAxis(spec string) (Axis, error) {
	name, list, ok := strings.Cut(spec, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || strings.TrimSpace(list) == "" {
		return Axis{}, fmt.Errorf("explore: bad axis %q (want param=v1,v2,...)", spec)
	}
	if _, known := paramByName(name); !known {
		return Axis{}, fmt.Errorf("explore: unknown parameter %q (known: %s)", name, strings.Join(ParamNames(), ", "))
	}
	ax := Axis{Param: name}
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return Axis{}, fmt.Errorf("explore: axis %s: bad value %q", name, f)
		}
		ax.Values = append(ax.Values, v)
	}
	return ax, nil
}

// CheckModeled refuses an axis whose parameter hw.NewModel never reads:
// every variant of such a sweep projects the same time, so its ranking
// and Pareto frontier would order the variants by cost alone. ParseAxis
// and Grid stay permissive; the front ends that sweep with the paper's
// model call this.
func CheckModeled(ax Axis) error {
	if p, ok := paramByName(ax.Param); ok && p.silent != "" {
		return fmt.Errorf("explore: the model never reads %s, so every variant would project the same time: %s", ax.Param, p.silent)
	}
	return nil
}

// Grid generates machine variants as the cartesian product of parameter
// axes applied to a base machine. The zero-axis grid has exactly one
// variant: the base itself.
type Grid struct {
	Base *hw.Machine
	Axes []Axis
}

// Size returns the number of variants the grid generates.
func (g *Grid) Size() int {
	n := 1
	for _, ax := range g.Axes {
		n *= len(ax.Values)
	}
	return n
}

// Variants materializes the grid in odometer order (last axis fastest).
// Each variant is an independent copy of the base named
// "base[p1=v1 p2=v2 ...]"; invalid parameter combinations are not filtered
// here — the engine validates each variant as it evaluates it.
func (g *Grid) Variants() ([]*hw.Machine, error) {
	if g.Base == nil {
		return nil, fmt.Errorf("explore: grid has no base machine")
	}
	setters := make([]param, len(g.Axes))
	for i, ax := range g.Axes {
		p, ok := paramByName(ax.Param)
		if !ok {
			return nil, fmt.Errorf("explore: unknown parameter %q (known: %s)", ax.Param, strings.Join(ParamNames(), ", "))
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("explore: axis %s has no values", ax.Param)
		}
		setters[i] = p
	}
	out := make([]*hw.Machine, 0, g.Size())
	idx := make([]int, len(g.Axes))
	for {
		m := new(hw.Machine)
		*m = *g.Base
		var tags []string
		for i, ax := range g.Axes {
			v := ax.Values[idx[i]]
			setters[i].set(m, v)
			tags = append(tags, fmt.Sprintf("%s=%g", ax.Param, v))
		}
		if len(tags) > 0 {
			m.Name = fmt.Sprintf("%s[%s]", g.Base.Name, strings.Join(tags, " "))
		}
		out = append(out, m)
		// Advance the odometer; done when it wraps past the first axis.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}
