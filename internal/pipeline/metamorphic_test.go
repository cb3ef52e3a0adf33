package pipeline

import (
	"testing"

	"skope/internal/hw"
	"skope/internal/workloads"
)

// TestProjectionMonotone is a metamorphic test of the projection: the
// roofline composes a block's time as T = max(Tc, Tm) + (1-δ)·min(Tc, Tm)
// from a compute time that falls with the clock and the issue rates and a
// memory time that falls with bandwidth and concurrency and rises with
// every latency. So for each workload on BG/Q and Xeon, six successive
// doublings of a rate never raise Layout.Analyze's total time, and six
// doublings of a latency never lower it. No golden is needed.
func TestProjectionMonotone(t *testing.T) {
	rates := map[string]func(*hw.Machine){
		"FreqGHz":         func(m *hw.Machine) { m.FreqGHz *= 2 },
		"FPOpsPerCycle":   func(m *hw.Machine) { m.FPOpsPerCycle *= 2 },
		"IntOpsPerCycle":  func(m *hw.Machine) { m.IntOpsPerCycle *= 2 },
		"MemBandwidthGBs": func(m *hw.Machine) { m.MemBandwidthGBs *= 2 },
		"MemConcurrency":  func(m *hw.Machine) { m.MemConcurrency *= 2 },
	}
	latencies := map[string]func(*hw.Machine){
		"L1LatencyCyc":  func(m *hw.Machine) { m.L1LatencyCyc *= 2 },
		"LLCLatencyCyc": func(m *hw.Machine) { m.LLCLatencyCyc *= 2 },
		"MemLatencyCyc": func(m *hw.Machine) { m.MemLatencyCyc *= 2 },
	}
	for _, name := range workloads.Names() {
		l, err := prepared(t, name).Layout()
		if err != nil {
			t.Fatal(err)
		}
		total := func(m *hw.Machine) float64 {
			t.Helper()
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			return l.Analyze(hw.NewModel(m)).TotalTime
		}
		for _, base := range []*hw.Machine{hw.BGQ(), hw.XeonE5()} {
			check := func(param string, double func(*hw.Machine), faster bool) {
				m := *base
				prev := total(&m)
				for k := 1; k <= 6; k++ {
					double(&m)
					got := total(&m)
					if faster && got > prev || !faster && got < prev {
						t.Errorf("%s on %s: doubling %s %d times moved the total from %v to %v",
							name, base.Name, param, k, prev, got)
					}
					prev = got
				}
			}
			for param, double := range rates {
				check(param, double, true)
			}
			for param, double := range latencies {
				check(param, double, false)
			}
		}
	}
}
