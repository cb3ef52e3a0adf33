package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"skope/internal/explore"
	"skope/internal/pipeline"
	"skope/internal/workloads"
)

// declared reads the workloads and metrics BENCHMARK.json names.
func declared(t *testing.T) (names []string, e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	e2e, layers = make(map[string]string), make(map[string]string)
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return names, e2e, layers
}

// TestSmoke runs every workload on a handful of requests, untraced and
// traced, against a throwaway skoped.
func TestSmoke(t *testing.T) {
	names, e2e, layers := declared(t)
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	binDir := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				cfg := &config{
					workload: name, seed: 1, seconds: 60, trace: traced, smoke: true,
					root: "..", binDir: binDir, workDir: t.TempDir(),
				}
				var tr *tracer
				want := e2e
				if traced {
					tr, want = newTracer(), layers
				}
				var out bytes.Buffer
				res, err := runWorkload(context.Background(), cfg, tr, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %t, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				for metric, unit := range want {
					line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(metric) + `\s+\S+\s+` + regexp.QuoteMeta(unit) + `\s`)
					if !line.MatchString(out.String()) {
						t.Errorf("%s [%s] not printed", metric, unit)
					}
					if got := res.Metrics[metric]; got.Unit != unit {
						t.Errorf("%s: result unit %q, want %q", metric, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json %d", len(res.Metrics), len(want))
				}
				if !traced && !regexp.MustCompile(`(?m)^\s+failed_ratio\s+0\s+ratio\s`).MatchString(out.String()) {
					t.Errorf("failed_ratio is not 0:\n%s", out.String())
				}
			})
		}
	}
}

func TestRequestListsDependOnlyOnSeed(t *testing.T) {
	lists := func(seed uint64) []any {
		return []any{coldRequests(seed, false), gridRequests(seed, false), storeRequests(seed, false), serveRequests(seed, false)}
	}
	one, again, two := lists(1), lists(1), lists(2)
	for i, name := range workloadNames {
		if !reflect.DeepEqual(one[i], again[i]) {
			t.Errorf("%s: seed 1 drew two different request lists", name)
		}
		if reflect.DeepEqual(one[i], two[i]) {
			t.Errorf("%s: seeds 1 and 2 drew the same request list", name)
		}
	}
}

func TestChecksCatchPerturbedReferences(t *testing.T) {
	ctx := context.Background()
	run, err := pipeline.PrepareByName(ctx, "srad", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := variants("bgq", []explore.Axis{
		{Param: "mem-latency", Values: []float64{60, 180}},
		{Param: "fp-per-cycle", Values: []float64{1, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	evals, err := pipeline.Sweep(ctx, run, vs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := references(ctx, run, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTimes(evals, ref); err != nil {
		t.Fatalf("sweep disagrees with the uncached references: %v", err)
	}
	perturbed := func(i int) []float64 {
		bad := append([]float64(nil), ref...)
		bad[i] = math.Nextafter(bad[i], math.Inf(1))
		return bad
	}
	for i := range ref {
		if checkTimes(evals, perturbed(i)) == nil {
			t.Errorf("variant %d: a one-ulp perturbation passed checkTimes", i)
		}
	}

	l, err := run.Layout()
	if err != nil {
		t.Fatal(err)
	}
	c := &cold{refFP: map[string]string{"srad": l.Fingerprint()}, refTimes: [][]float64{ref}}
	if err := c.check(0, run, evals); err != nil {
		t.Fatal(err)
	}
	c.refFP["srad"] = "0000000000000000"
	if c.check(0, run, evals) == nil {
		t.Error("a wrong layout fingerprint passed the cold-prepare check")
	}

	// A result stream as skoped writes it, checked against references by
	// variant name.
	stream := func(times []float64, state string) [][]byte {
		var lines [][]byte
		for i, ev := range evals {
			b, _ := json.Marshal(map[string]any{"type": "result", "variant": ev.Machine.Name, "total_time_s": times[i]})
			lines = append(lines, b)
		}
		b, _ := json.Marshal(map[string]any{"type": "summary", "state": state, "skipped_prepare": true})
		return append(lines, b)
	}
	want := make(map[string]float64)
	for i, ev := range evals {
		want[ev.Machine.Name] = ref[i]
	}
	if warm, err := checkSession(stream(ref, "done"), want); err != nil || !warm {
		t.Fatalf("a correct stream failed the session check: warm %t, %v", warm, err)
	}
	for i := range ref {
		if _, err := checkSession(stream(perturbed(i), "done"), want); err == nil {
			t.Errorf("variant %d: a one-ulp perturbation passed checkSession", i)
		}
	}
	if _, err := checkSession(stream(ref, "failed"), want); err == nil {
		t.Error("a failed session passed checkSession")
	}
	if _, err := checkSession(stream(ref, "done")[1:], want); err == nil {
		t.Error("a stream missing a result passed checkSession")
	}
}
