package libmodel

import (
	"math"
	"testing"

	"skope/internal/hw"
)

func TestCalibrateAllKernels(t *testing.T) {
	m, err := Calibrate(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name := range kernels {
		w, err := m.LibWork(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.FLOPs < 0 || w.IOPs < 0 {
			t.Errorf("%s: negative mix %+v", name, w)
		}
		if w.FLOPs+w.IOPs == 0 {
			t.Errorf("%s: empty mix", name)
		}
	}
}

func TestRelativeCosts(t *testing.T) {
	m, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	flops := func(name string) float64 {
		w, err := m.LibWork(name)
		if err != nil {
			t.Fatal(err)
		}
		return w.FLOPs + w.IOPs
	}
	// Transcendentals must be much heavier than trivial functions.
	for _, heavy := range []string{"exp", "log", "sin", "cos", "pow"} {
		for _, light := range []string{"abs", "min", "max", "floor"} {
			if flops(heavy) < 3*flops(light) {
				t.Errorf("%s (%g) not >> %s (%g)", heavy, flops(heavy), light, flops(light))
			}
		}
	}
	// pow (log + exp) should be the heaviest transcendental.
	if flops("pow") < flops("exp") {
		t.Errorf("pow (%g) lighter than exp (%g)", flops("pow"), flops("exp"))
	}
}

// mustModel fetches the calibrated model, failing the test on error.
func mustModel(t *testing.T) *Model {
	t.Helper()
	m, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDivisionsDetected(t *testing.T) {
	m := mustModel(t)
	w, _ := m.LibWork("sqrt")
	if w.Divs == 0 {
		t.Error("sqrt kernel (Newton) should contain divisions")
	}
}

func TestUnknownFunction(t *testing.T) {
	m := mustModel(t)
	if _, err := m.LibWork("fft"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestSetOverride(t *testing.T) {
	var m Model
	m.Set("custom", hw.BlockWork{FLOPs: 5})
	w, err := m.LibWork("custom")
	if err != nil || w.FLOPs != 5 {
		t.Errorf("Set/LibWork = %+v, %v", w, err)
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	a, err := Calibrate(256, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(256, 99)
	if err != nil {
		t.Fatal(err)
	}
	for name := range kernels {
		wa, _ := a.LibWork(name)
		wb, _ := b.LibWork(name)
		if math.Abs(wa.FLOPs-wb.FLOPs) > 1e-12 {
			t.Errorf("%s: calibration not deterministic: %g vs %g", name, wa.FLOPs, wb.FLOPs)
		}
	}
}

func TestFunctionsList(t *testing.T) {
	m := mustModel(t)
	if len(m.Functions()) != len(kernels) {
		t.Errorf("Functions = %d, want %d", len(m.Functions()), len(kernels))
	}
}

// The model's coverage must include every minilang builtin that the
// simulator charges, so Analyze never fails on a translated workload.
func TestCoversSimulatedBuiltins(t *testing.T) {
	m := mustModel(t)
	for _, name := range []string{"exp", "log", "sqrt", "sin", "cos", "pow", "rand", "abs", "floor", "min", "max", "mod"} {
		if _, err := m.LibWork(name); err != nil {
			t.Errorf("builtin %s unmodeled: %v", name, err)
		}
	}
}

// Functions returns the modeled function names.
func (m *Model) Functions() []string {
	out := make([]string, 0, len(m.mixes))
	for k := range m.mixes {
		out = append(out, k)
	}
	return out
}

// Set overrides or adds a function mix (for tests and ablations).
func (m *Model) Set(name string, w hw.BlockWork) {
	if m.mixes == nil {
		m.mixes = map[string]hw.BlockWork{}
	}
	m.mixes[name] = w
}
