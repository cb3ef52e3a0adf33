package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"skope/internal/cliflags"
	"skope/internal/guard"
	"skope/internal/hw"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, config{list: true, scale: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"benchmarks:", "sord", "stassuij", "machines:", "bgq", "xeon"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAnalysis(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{
		bench: "srad", scale: 1, show: "spots,breakdown,path",
		mach: cliflags.Machine{Preset: "bgq"},
		crit: cliflags.Criteria{Coverage: 0.9, Leanness: 0.5, MaxSpots: 10},
	}
	if _, err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SRAD", "projected hot spots", "time breakdown", "hot path", "HOT SPOT"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunValidate(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{
		bench: "stassuij", scale: 1, show: "spots", validate: true,
		mach: cliflags.Machine{Preset: "xeon"},
		crit: cliflags.Criteria{Coverage: 0.9, Leanness: 0.5, MaxSpots: 10},
	}
	if _, err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "selection quality (top-10):") {
		t.Errorf("validation section missing:\n%s", buf.String())
	}
}

func TestRunMachineFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := hw.BGQ()
	m.Name = "CustomQ"
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := config{
		bench: "srad", scale: 1, show: "spots",
		mach: cliflags.Machine{File: path},
		crit: cliflags.Criteria{Coverage: 0.9, Leanness: 0.5, MaxSpots: 3},
	}
	if _, err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CustomQ") {
		t.Errorf("custom machine not used:\n%s", buf.String())
	}
}

func TestRunSweep(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{
		bench: "sord", scale: 1,
		mach: cliflags.Machine{Preset: "bgq"},
		sw:   cliflags.Sweep{Top: 5, Axes: cliflags.AxisList{"mem-bandwidth=14,28,56", "net-latency-us=1,2,4"}},
	}
	if _, err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"design-space sweep: 9 variants",
		"Pareto frontier",
		"best variant:",
		"mem-bandwidth=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSweepNonFiniteRanksLast: a clock of 1e-320 GHz passes Validate
// but projects a NaN total. That variant ranks last, stays off the Pareto
// frontier and is never the best variant, whichever end of the axis it is
// on, so the rendered sweep is the same both ways.
func TestRunSweepNonFiniteRanksLast(t *testing.T) {
	var tables []string
	for _, axis := range []string{"freq-ghz=1e-320,1.6", "freq-ghz=1.6,1e-320"} {
		var buf bytes.Buffer
		cfg := config{
			bench: "sord", scale: 1,
			mach: cliflags.Machine{Preset: "bgq"},
			sw:   cliflags.Sweep{Axes: cliflags.AxisList{axis}},
		}
		if _, err := run(context.Background(), &buf, cfg); err != nil {
			t.Fatal(err)
		}
		out := tableOf(t, buf.String())
		rows := sweepRows(t, buf.String())
		if r := rows["BG/Q[freq-ghz=1e-320]"]; !strings.Contains(r, "NaN") {
			t.Errorf("%s: the 1e-320 GHz row %q does not project NaN", axis, r)
		}
		for _, want := range []string{"\n1     BG/Q[freq-ghz=1.6] ", "\n2     BG/Q[freq-ghz=1e-320] ", "best variant: BG/Q[freq-ghz=1.6] "} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: sweep output missing %q:\n%s", axis, want, out)
			}
		}
		if front := out[strings.Index(out, "Pareto frontier"):]; strings.Contains(front, "1e-320]\n") {
			t.Errorf("%s: the NaN variant is on the frontier:\n%s", axis, front)
		}
		tables = append(tables, out)
	}
	if tables[0] != tables[1] {
		t.Errorf("the sweep depends on the axis order:\n%s\n---\n%s", tables[0], tables[1])
	}
}

// TestRunSweepRetriesTransientPanics: -retries re-evaluates, at once, a
// variant whose first evaluation panics; the sweep renders as an
// unfaulted one does, and its footer counts the retries.
func TestRunSweepRetriesTransientPanics(t *testing.T) {
	cfg := config{
		bench: "sord", scale: 1,
		mach: cliflags.Machine{Preset: "bgq"},
		sw:   cliflags.Sweep{Top: 5, Axes: cliflags.AxisList{"mem-bandwidth=14,28,56"}, Retries: 1},
	}
	var clean bytes.Buffer
	if _, err := run(context.Background(), &clean, cfg); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	disarm := guard.Arm("explore.evaluate", func(name string) {
		mu.Lock()
		first := !seen[name]
		seen[name] = true
		mu.Unlock()
		if first {
			panic("injected transient fault")
		}
	})
	defer disarm()
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	// Three grid variants and the base machine, each retried once.
	if !strings.Contains(buf.String(), ", 4 retries") {
		t.Errorf("footer does not count 4 retries:\n%s", buf.String())
	}
	if tableOf(t, buf.String()) != tableOf(t, clean.String()) {
		t.Errorf("retried sweep differs from a clean one:\n--- clean\n%s\n--- retried\n%s", clean.String(), buf.String())
	}
}

// tableOf strips the run header and trailing stats line, leaving the
// rendered sweep (table, frontier, best variant) for comparison.
func tableOf(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "design-space sweep")
	j := strings.Index(out, "sweep stats:")
	if i < 0 || j < 0 || j < i {
		t.Fatalf("output missing sweep table or stats:\n%s", out)
	}
	return out[i:j]
}

// lenientSource profiles only up to a division by zero, so a -lenient
// preparation of it has analysis confidence 0.9922.
const lenientSource = `
global n: int = 64;
global z: int = 0;
global a: [n]float;
func main() {
  for i = 0 .. n { a[i] = exp(a[i]) * 0.5; }
  for k = 0 .. n / z { a[0] = a[0] * 2.0; }
}
`

// lenientSweep runs a -lenient sweep of lenientSource, written to dir,
// under the given confidence floor; storePath empty means no -store.
func lenientSweep(t *testing.T, dir string, minConf float64, storePath string) (string, error) {
	t.Helper()
	return lenientRun(t, dir, cliflags.Sweep{
		Axes:          cliflags.AxisList{"mem-latency=60,180"},
		MinConfidence: minConf,
		Store:         storePath,
	})
}

// lenientRun runs skope -lenient on lenientSource, written to dir, with
// the given sweep flags.
func lenientRun(t *testing.T, dir string, sw cliflags.Sweep) (string, error) {
	t.Helper()
	path := filepath.Join(dir, "app.ml")
	if err := os.WriteFile(path, []byte(lenientSource), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		source: path, scale: 1,
		mach: cliflags.Machine{Preset: "bgq"},
		grd:  cliflags.Guard{Lenient: true},
		crit: cliflags.Criteria{Coverage: 0.9, Leanness: 0.5, MaxSpots: 10},
		sw:   sw,
	}
	var buf bytes.Buffer
	_, err := run(context.Background(), &buf, cfg)
	return buf.String(), err
}

// TestRunSweepBaselineBelowFloor: the base machine is a sweep variant held
// to -min-confidence, so a floor above the analysis confidence fails plain
// and -store sweeps alike rather than dividing speedups by a rejected
// baseline.
func TestRunSweepBaselineBelowFloor(t *testing.T) {
	dir := t.TempDir()
	for _, storePath := range []string{"", filepath.Join(dir, "results.cas")} {
		out, err := lenientSweep(t, dir, 0.995, storePath)
		if err == nil || err.Error() != "baseline BG/Q failed to evaluate" {
			t.Errorf("store %q: err = %v, want the baseline failure\n%s", storePath, err, out)
		}
	}
}

// TestRunSweepPlainMatchesStore: above the floor, plain and -store sweeps
// render the identical table, frontier and best variant.
func TestRunSweepPlainMatchesStore(t *testing.T) {
	dir := t.TempDir()
	plain, err := lenientSweep(t, dir, 0.99, "")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := lenientSweep(t, dir, 0.99, filepath.Join(dir, "results.cas"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tableOf(t, stored), tableOf(t, plain); got != want {
		t.Errorf("-store sweep rendered differently:\n--- store ---\n%s\n--- plain ---\n%s", got, want)
	}
}

// adaptiveLenientSweep is the 36-variant grid of the adaptive tests
// over lenientSource, searched with a fixed seed.
func adaptiveLenientSweep(minConf float64, storePath string, adaptive bool) cliflags.Sweep {
	return cliflags.Sweep{
		Axes:          cliflags.AxisList{"freq-ghz=1.2,1.6,2.0,2.4", "mem-latency=80,110,150", "hit-l1=0.9,0.95,0.99"},
		MinConfidence: minConf,
		Store:         storePath,
		Adaptive:      adaptive,
		AdaptiveSeed:  13,
	}
}

// TestRunAdaptiveBaselineBelowFloor: an adaptive sweep holds the base
// machine to -min-confidence like an exhaustive one, so a floor above
// the analysis confidence fails plain and -store runs alike.
func TestRunAdaptiveBaselineBelowFloor(t *testing.T) {
	dir := t.TempDir()
	for _, storePath := range []string{"", filepath.Join(dir, "results.cas")} {
		out, err := lenientRun(t, dir, adaptiveLenientSweep(0.995, storePath, true))
		if err == nil || err.Error() != "baseline BG/Q failed to evaluate" {
			t.Errorf("store %q: err = %v, want the baseline failure\n%s", storePath, err, out)
		}
	}
}

// sweepRows maps each row of the rendered ranked table to its variant's
// columns after the rank, whitespace-normalized: the column widths depend
// on which rows the table holds.
func sweepRows(t *testing.T, out string) map[string]string {
	t.Helper()
	rows := map[string]string{}
	i := strings.Index(out, "== design-space sweep")
	if i < 0 {
		t.Fatalf("no ranked table in:\n%s", out)
	}
	in := false
	for _, line := range strings.Split(out[i:], "\n") {
		switch {
		case strings.HasPrefix(line, "----"):
			in = true
		case in && strings.TrimSpace(line) == "":
			return rows
		case in:
			f := strings.Fields(line)
			rest := strings.Join(f[1:], " ")
			rows[rest[:strings.Index(rest, "]")+1]] = rest
		}
	}
	t.Fatalf("no ranked table in:\n%s", out)
	return nil
}

// TestRunAdaptiveRowsMatchExhaustive: above the floor, every row of an
// adaptive sweep — time and speedup included — equals the exhaustive
// sweep's row for the same variant, because both evaluate the baseline
// the same way.
func TestRunAdaptiveRowsMatchExhaustive(t *testing.T) {
	dir := t.TempDir()
	exOut, err := lenientRun(t, dir, adaptiveLenientSweep(0.99, "", false))
	if err != nil {
		t.Fatal(err)
	}
	adOut, err := lenientRun(t, dir, adaptiveLenientSweep(0.99, "", true))
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, adaptive := sweepRows(t, exOut), sweepRows(t, adOut)
	if len(exhaustive) != 36 || len(adaptive) == 0 || len(adaptive) >= len(exhaustive) {
		t.Fatalf("%d adaptive rows, %d exhaustive rows:\n%s", len(adaptive), len(exhaustive), adOut)
	}
	for variant, row := range adaptive {
		if exhaustive[variant] != row {
			t.Errorf("adaptive row %q, exhaustive %q", row, exhaustive[variant])
		}
	}
}

func TestRunListShowsSweepParams(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, config{list: true, scale: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sweep parameters", "mem-bandwidth", "net-latency-us"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestAxisListRejectsBadSpec(t *testing.T) {
	var a cliflags.AxisList
	if err := a.Set("nosuch-param=1,2"); err == nil {
		t.Error("unknown sweep parameter accepted")
	}
	if err := a.Set("mem-bandwidth=abc"); err == nil {
		t.Error("non-numeric sweep value accepted")
	}
	if err := a.Set("mem-bandwidth=14,28"); err != nil {
		t.Errorf("valid axis rejected: %v", err)
	}
	// An axis the paper's model never reads is refused (skope exits 2 on
	// the flag), naming it and, for a cache size, the hit ratio to sweep.
	for spec, hint := range map[string]string{
		"l1-size-kb=8,16,64,256": "sweep hit-l1",
		"llc-size-mb=1,32":       "sweep hit-llc",
		"issue-width=1,2,4,8":    "ablation",
		"vector-width=1,4":       "ablation",
		"div-latency=10,40":      "ablation",
	} {
		name, _, _ := strings.Cut(spec, "=")
		if err := a.Set(spec); err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), hint) {
			t.Errorf("-sweep %s: err = %v, want a refusal naming %s and %q", spec, err, name, hint)
		}
	}
	if len(a) != 1 {
		t.Errorf("refused specs were kept: %q", a)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, config{bench: "nosuch", mach: cliflags.Machine{Preset: "bgq"}, scale: 1, show: "spots"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := run(context.Background(), &buf, config{bench: "srad", mach: cliflags.Machine{Preset: "vax"}, scale: 1, show: "spots"}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := run(context.Background(), &buf, config{bench: "srad", mach: cliflags.Machine{File: "/nonexistent.json"}, scale: 1, show: "spots"}); err == nil {
		t.Error("missing machine file accepted")
	}
}

func TestRunUserSource(t *testing.T) {
	src := `
global n: int = 64;
global a: [n]float;
func main() {
  for i = 0 .. n {
    a[i] = exp(a[i]) * 0.5;
  }
}
`
	path := filepath.Join(t.TempDir(), "app.ml")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := config{
		source: path, scale: 1, show: "spots", validate: true,
		mach: cliflags.Machine{Preset: "future"},
		crit: cliflags.Criteria{Coverage: 0.9, Leanness: 1, MaxSpots: 5},
	}
	if _, err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "user program") || !strings.Contains(out, "FutureNode") {
		t.Errorf("user-source output wrong:\n%s", out)
	}
	if !strings.Contains(out, "selection quality") {
		t.Errorf("validation missing:\n%s", out)
	}
}

// sweepStoreConfig is the shared sweep-with-store configuration of the
// store tests: srad over a 3x2 grid, results in storePath.
func sweepStoreConfig(storePath string) config {
	return config{
		bench: "srad", scale: 1,
		mach: cliflags.Machine{Preset: "bgq"},
		crit: cliflags.Criteria{Coverage: 0.9, Leanness: 0.5, MaxSpots: 10},
		sw: cliflags.Sweep{
			Store: storePath,
			Axes:  cliflags.AxisList{"mem-bandwidth=16,32,64", "freq-ghz=1.6,2.4"},
		},
	}
}

// stableSweepOutput strips the timing-bearing footer so cold and warm
// sweep outputs can be compared byte-for-byte.
func stableSweepOutput(out string) string {
	if i := strings.Index(out, "sweep stats:"); i >= 0 {
		return out[:i]
	}
	return out
}

// TestRunSweepStore: the -store flag serves a repeated sweep entirely from
// the content-addressed store — the warm run never rebuilds the model
// (guard fault point core.body stays silent) and renders the identical
// ranked table and Pareto frontier.
func TestRunSweepStore(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.cas")
	cfg := sweepStoreConfig(storePath)

	var cold bytes.Buffer
	if _, err := run(context.Background(), &cold, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "store "+storePath) {
		t.Errorf("cold output missing store stats:\n%s", cold.String())
	}

	disarm := guard.Arm("core.body", func(detail string) {
		t.Errorf("warm sweep built a BET (at %s)", detail)
	})
	defer disarm()
	var warm bytes.Buffer
	if _, err := run(context.Background(), &warm, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "preparation skipped (fully warm)") {
		t.Errorf("warm output not fully warm:\n%s", warm.String())
	}
	if stableSweepOutput(cold.String()) != stableSweepOutput(warm.String()) {
		t.Errorf("warm sweep output differs from cold:\n--- cold\n%s\n--- warm\n%s",
			cold.String(), warm.String())
	}
}

// TestRunSweepStoreCrossProcess is the acceptance test across process
// boundaries: a cold sweep in one child process populates the store file;
// an identical sweep in a second process is served entirely from it with
// zero core.Build calls and renders byte-identical results.
func TestRunSweepStoreCrossProcess(t *testing.T) {
	if os.Getenv("SKOPE_STORE_HELPER") != "" {
		t.Skip("helper process")
	}
	if testing.Short() {
		t.Skip("re-exec test")
	}
	dir := t.TempDir()
	storePath := filepath.Join(dir, "results.cas")
	outputs := map[string]string{}
	for _, mode := range []string{"cold", "warm"} {
		outFile := filepath.Join(dir, mode+".out")
		cmd := exec.Command(os.Args[0], "-test.run", "TestHelperStoreSweep", "-test.v")
		cmd.Env = append(os.Environ(),
			"SKOPE_STORE_HELPER="+mode,
			"SKOPE_STORE_PATH="+storePath,
			"SKOPE_STORE_OUT="+outFile,
		)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s child failed: %v\n%s", mode, err, out)
		}
		b, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		outputs[mode] = string(b)
	}
	if !strings.Contains(outputs["warm"], "preparation skipped (fully warm)") {
		t.Errorf("second process recomputed:\n%s", outputs["warm"])
	}
	if stableSweepOutput(outputs["cold"]) != stableSweepOutput(outputs["warm"]) {
		t.Errorf("cross-process results differ:\n--- cold\n%s\n--- warm\n%s",
			outputs["cold"], outputs["warm"])
	}
}

// TestHelperStoreSweep is the child body of the cross-process test: it runs
// the store-backed sweep once, with the model-construction fault point
// armed in warm mode so any recomputation fails the child.
func TestHelperStoreSweep(t *testing.T) {
	mode := os.Getenv("SKOPE_STORE_HELPER")
	if mode == "" {
		t.Skip("not a helper invocation")
	}
	if mode == "warm" {
		disarm := guard.Arm("core.body", func(detail string) {
			t.Errorf("warm process built a BET (at %s)", detail)
		})
		defer disarm()
	}
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, sweepStoreConfig(os.Getenv("SKOPE_STORE_PATH"))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("SKOPE_STORE_OUT"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunListShowsStore: -list documents the result store.
func TestRunListShowsStore(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(context.Background(), &buf, config{list: true, scale: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "result store (-store") {
		t.Errorf("list output missing store section:\n%s", buf.String())
	}
}
