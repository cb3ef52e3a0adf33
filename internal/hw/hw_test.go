package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for name, f := range Presets() {
		if err := f().Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

func TestPresetLookup(t *testing.T) {
	m, err := Preset("bgq")
	if err != nil || m.Name != "BG/Q" {
		t.Fatalf("Preset(bgq) = %v, %v", m, err)
	}
	if f, err := Preset("future"); err != nil || f.VectorWidth != 8 {
		t.Fatalf("Preset(future) = %v, %v", f, err)
	}
	if _, err := Preset("vax"); err == nil {
		t.Error("Preset(vax) should fail")
	}
}

func TestFutureMachineIsComputeRich(t *testing.T) {
	// The conceptual node must have a much higher roofline ridge point
	// than the 2014 machines: blocks memory-bound today may turn
	// compute-bound on it (and vice versa for latency-sensitive code).
	fut := NewModel(Future())
	if fut.RidgePoint() >= NewModel(BGQ()).RidgePoint()*2 {
		t.Errorf("HBM bandwidth should LOWER the ridge point: future %g vs bgq %g",
			fut.RidgePoint(), NewModel(BGQ()).RidgePoint())
	}
	w := BlockWork{FLOPs: 100, Loads: 100, Stores: 50, DSizeB: 8}
	q := NewModel(BGQ()).Estimate(w)
	f := fut.Estimate(w)
	if f.T >= q.T {
		t.Errorf("future machine not faster: %g vs %g", f.T, q.T)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Machine){
		func(m *Machine) { m.Name = "" },
		func(m *Machine) { m.FreqGHz = 0 },
		func(m *Machine) { m.IssueWidth = 0 },
		func(m *Machine) { m.FPOpsPerCycle = 0 },
		func(m *Machine) { m.VectorWidth = 0 },
		func(m *Machine) { m.L1SizeB = 0 },
		func(m *Machine) { m.L1SizeB = m.L1LineB*m.L1Assoc + 1 },
		func(m *Machine) { m.LLCSizeB = 0 },
		func(m *Machine) { m.L1LatencyCyc = 0 },
		func(m *Machine) { m.MemBandwidthGBs = 0 },
		func(m *Machine) { m.MemConcurrency = 0 },
		func(m *Machine) { m.HitL1 = 1.5 },
		func(m *Machine) { m.HitLLC = -0.1 },
		func(m *Machine) { m.DivLatencyCyc = 0 },
	}
	// NaN passes every range check and +Inf all but the hit ratios', so
	// each float parameter gets all three non-finite values.
	floats := []func(*Machine) *float64{
		func(m *Machine) *float64 { return &m.FreqGHz },
		func(m *Machine) *float64 { return &m.FPOpsPerCycle },
		func(m *Machine) *float64 { return &m.IntOpsPerCycle },
		func(m *Machine) *float64 { return &m.MemBandwidthGBs },
		func(m *Machine) *float64 { return &m.MemConcurrency },
		func(m *Machine) *float64 { return &m.HitL1 },
		func(m *Machine) *float64 { return &m.HitLLC },
		func(m *Machine) *float64 { return &m.NetLatencyUs },
		func(m *Machine) *float64 { return &m.NetBandwidthGBs },
	}
	for _, field := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			mutations = append(mutations, func(m *Machine) { *field(m) = v })
		}
	}
	for i, mut := range mutations {
		m := BGQ()
		mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestCyclesToSeconds(t *testing.T) {
	m := &Machine{FreqGHz: 2}
	if got := m.CyclesToSeconds(2e9); got != 1 {
		t.Errorf("CyclesToSeconds = %g, want 1", got)
	}
}

func TestBlockWorkAddAndScale(t *testing.T) {
	a := BlockWork{FLOPs: 10, IOPs: 2, Loads: 4, Stores: 0, DSizeB: 8, Divs: 1, Vec: 1}
	b := BlockWork{FLOPs: 5, Loads: 0, Stores: 4, DSizeB: 4, Vec: 4}
	a.Add(b)
	if a.FLOPs != 15 || a.IOPs != 2 || a.Loads != 4 || a.Stores != 4 || a.Divs != 1 {
		t.Errorf("Add result = %+v", a)
	}
	if a.DSizeB != 6 { // weighted average of 8 (4 accesses) and 4 (4 accesses)
		t.Errorf("Add DSizeB = %g, want 6", a.DSizeB)
	}
	if a.Vec != 4 {
		t.Errorf("Add Vec = %g, want 4", a.Vec)
	}
	s := a.Scale(2)
	if s.FLOPs != 30 || s.Loads != 8 || s.DSizeB != 6 {
		t.Errorf("Scale result = %+v", s)
	}
}

func TestOperationalIntensity(t *testing.T) {
	w := BlockWork{FLOPs: 16, Loads: 1, Stores: 1, DSizeB: 8}
	if oi := w.OperationalIntensity(); oi != 1 {
		t.Errorf("OI = %g, want 1", oi)
	}
	pure := BlockWork{FLOPs: 5}
	if !math.IsInf(pure.OperationalIntensity(), 1) {
		t.Error("OI with no bytes should be +Inf")
	}
}

func TestEstimateBasicShape(t *testing.T) {
	mo := NewModel(BGQ())
	// Compute-heavy block: Tc should dominate.
	hot := mo.Estimate(BlockWork{FLOPs: 1e6, Loads: 10, Stores: 0, DSizeB: 8})
	if hot.MemoryBound {
		t.Error("compute-heavy block classified memory-bound")
	}
	if hot.Tc <= 0 || hot.T <= 0 {
		t.Errorf("estimate = %+v", hot)
	}
	// Memory-heavy block: Tm should dominate.
	cold := mo.Estimate(BlockWork{FLOPs: 1, Loads: 1e6, Stores: 1e6, DSizeB: 8})
	if !cold.MemoryBound {
		t.Error("memory-heavy block classified compute-bound")
	}
	// T = Tc + Tm - To identity.
	if math.Abs(hot.T-(hot.Tc+hot.Tm-hot.To)) > 1e-18 {
		t.Error("T != Tc + Tm - To")
	}
}

func TestOverlapDegreeMonotone(t *testing.T) {
	if overlapDegree(0) != 0 {
		t.Errorf("delta(0) = %g, want 0", overlapDegree(0))
	}
	prev := -1.0
	for _, n := range []float64{0, 1, 10, 100, 1e4, 1e8} {
		d := overlapDegree(n)
		if d < prev {
			t.Errorf("delta not monotone at %g", n)
		}
		if d < 0 || d >= 1 {
			t.Errorf("delta(%g) = %g out of [0,1)", n, d)
		}
		prev = d
	}
	if overlapDegree(-5) != 0 {
		t.Error("negative FLOPs should clamp to delta 0")
	}
}

// Property: the extended roofline is consistent: max(Tc,Tm) <= T <= Tc+Tm,
// and all components are non-negative, for arbitrary workloads.
func TestQuickEstimateBounds(t *testing.T) {
	mo := NewModel(XeonE5())
	f := func(flops, iops, loads, stores uint32, dsize uint8) bool {
		w := BlockWork{
			FLOPs: float64(flops % 1e6), IOPs: float64(iops % 1e6),
			Loads: float64(loads % 1e6), Stores: float64(stores % 1e6),
			DSizeB: float64(dsize%16) + 1,
		}
		e := mo.Estimate(w)
		if e.Tc < 0 || e.Tm < 0 || e.To < 0 || e.T < 0 {
			return false
		}
		if e.To > math.Min(e.Tc, e.Tm)+1e-18 {
			return false
		}
		lo := math.Max(e.Tc, e.Tm) - 1e-18
		hi := e.Tc + e.Tm + 1e-18
		return e.T >= lo && e.T <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVectorAwareFasterOnVectorizableBlocks(t *testing.T) {
	m := BGQ()
	base := NewModel(m).Estimate(BlockWork{FLOPs: 1e6, Vec: 4})
	vec := NewVectorAwareModel(m).Estimate(BlockWork{FLOPs: 1e6, Vec: 4})
	if vec.Tc >= base.Tc {
		t.Errorf("vector-aware Tc %g not < base Tc %g", vec.Tc, base.Tc)
	}
	// Scalar blocks are unaffected.
	baseS := NewModel(m).Estimate(BlockWork{FLOPs: 1e6, Vec: 1})
	vecS := NewVectorAwareModel(m).Estimate(BlockWork{FLOPs: 1e6, Vec: 1})
	if baseS.Tc != vecS.Tc {
		t.Error("vector-aware model changed scalar block estimate")
	}
}

func TestDivAwareSlowerOnDivisionBlocks(t *testing.T) {
	m := BGQ()
	w := BlockWork{FLOPs: 1000, Divs: 500}
	base := NewModel(m).Estimate(w)
	div := NewDivAwareModel(m).Estimate(w)
	if div.Tc <= base.Tc {
		t.Errorf("div-aware Tc %g not > base Tc %g", div.Tc, base.Tc)
	}
	// Division-free blocks are unaffected.
	w2 := BlockWork{FLOPs: 1000}
	if NewDivAwareModel(m).Estimate(w2).Tc != NewModel(m).Estimate(w2).Tc {
		t.Error("div-aware model changed division-free block estimate")
	}
}

func TestRooflineBoundAndRidge(t *testing.T) {
	mo := NewModel(BGQ())
	ridge := mo.RidgePoint()
	if ridge <= 0 {
		t.Fatalf("ridge = %g", ridge)
	}
	peak := mo.RooflineBound(math.Inf(1))
	if mo.RooflineBound(ridge*10) != peak {
		t.Error("beyond ridge should hit peak")
	}
	low := mo.RooflineBound(ridge / 10)
	if low >= peak {
		t.Error("below ridge should be bandwidth-limited")
	}
	// Bound is monotone in OI.
	if mo.RooflineBound(0.1) > mo.RooflineBound(0.2) {
		t.Error("roofline bound not monotone")
	}
}

func TestXeonMoreMemoryBoundThanBGQ(t *testing.T) {
	// The paper observes the memory share of hot-spot time grows on Xeon
	// relative to BG/Q (Fig. 7): higher clock and memory latency make the
	// same block relatively more memory-bound.
	w := BlockWork{FLOPs: 2000, Loads: 800, Stores: 200, DSizeB: 8}
	q := NewModel(BGQ()).Estimate(w)
	x := NewModel(XeonE5()).Estimate(w)
	shareQ := q.Tm / (q.Tc + q.Tm)
	shareX := x.Tm / (x.Tc + x.Tm)
	if shareX <= shareQ {
		t.Errorf("memory share on Xeon (%g) not > BG/Q (%g)", shareX, shareQ)
	}
}

// OperationalIntensity returns FLOPs per byte moved — the classic roofline
// x-axis. Returns +Inf when no data moves.
func (w BlockWork) OperationalIntensity() float64 {
	b := w.Bytes()
	if b == 0 {
		return math.Inf(1)
	}
	return w.FLOPs / b
}

// RooflineBound returns the classic roofline performance bound in FLOP/s
// for operational intensity oi on machine m: min(peak, oi * bandwidth).
// Peak here is the scalar analytical peak (FPOpsPerCycle * freq).
func (mo *Model) RooflineBound(oi float64) float64 {
	m := mo.m
	peak := m.FPOpsPerCycle * m.FreqGHz * 1e9
	if math.IsInf(oi, 1) {
		return peak
	}
	return math.Min(peak, oi*m.MemBandwidthGBs*1e9)
}

// RidgePoint returns the operational intensity (FLOPs/byte) at which the
// machine transitions from memory-bound to compute-bound.
func (mo *Model) RidgePoint() float64 {
	m := mo.m
	return (m.FPOpsPerCycle * m.FreqGHz) / m.MemBandwidthGBs
}
