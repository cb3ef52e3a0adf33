package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/skeleton"
	"skope/internal/workloads"
)

// renderDegraded serializes the stable degradation surface: every
// diagnostic (severity and full text) and the bit-exact confidence score,
// followed by the regular analysis golden.
func renderDegraded(name string, conf float64, diags []guard.Diagnostic, a *hotspot.Analysis) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "confidence %s\n", hexf(conf))
	fmt.Fprintf(&b, "diagnostics %d\n", len(diags))
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s %s\n", d.Severity, d)
	}
	b.Write(renderGolden(name, a))
	return b.Bytes()
}

func checkDegradedGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded analysis %s drifted from %s\n--- want\n%s--- got\n%s",
			name, path, want, got)
	}
}

// TestGoldenDegradedSkeleton pins the lenient pipeline's behavior on a
// truncated skeleton: a prefix of sord's generated skeleton, parsed
// leniently, modeled with fallback priors, and projected on BGQ. Each
// fixture pins the diagnostics text, the bit-exact confidence score, and
// the surviving blocks' projections.
//
// The 60% cut lands right after the "end" that closes a function, so the
// parser recovers nothing: the functions past the cut disappear and their
// call sites degrade to assumed empty calls. The 55% cut severs a line
// inside def > for > for, so the parser must recover: the severed line
// becomes a hole and the three open blocks are closed implicitly. codes
// lists the diagnostic codes a case must record, so a change in the
// generated skeleton cannot make it vacuous.
func TestGoldenDegradedSkeleton(t *testing.T) {
	run := prepared(t, "sord")
	for _, tc := range []struct {
		percent int
		golden  string
		source  string
		codes   []string
	}{
		{60, "degraded-skeleton", "sord-truncated", nil},
		{55, "degraded-skeleton-55", "sord-truncated-55", []string{"skeleton/syntax", "skeleton/unclosed-block"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			truncated := run.Skeleton.Text[:len(run.Skeleton.Text)*tc.percent/100]

			lim := guard.Default()
			prog, diags := skeleton.ParseLenient(tc.source, truncated, lim)
			for _, code := range tc.codes {
				found := false
				for _, d := range diags {
					found = found || d.Stage+"/"+d.Code == code
				}
				if !found {
					t.Errorf("%d%% cut recorded no %s diagnostic: %v", tc.percent, code, diags)
				}
			}
			// No separate ValidateLenient pass: the lenient core.Build runs
			// it and folds the findings into the BET diagnostics, which flow
			// into a.Diagnostics — a second pass here would double every
			// finding.
			tree, err := bst.Build(prog)
			if err != nil {
				t.Fatalf("bst: %v", err)
			}
			bet, err := core.Build(context.Background(), tree, run.Skeleton.Input, &core.Options{
				MaxContexts: lim.MaxContexts, MaxNodes: lim.MaxBETNodes, Lenient: true,
			})
			if err != nil {
				t.Fatalf("bet: %v", err)
			}
			a, err := hotspot.Analyze(context.Background(), bet, hw.NewModel(hw.BGQ()), run.Libs)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if a.Confidence >= 1 {
				t.Errorf("truncated skeleton produced confidence %v, want < 1", a.Confidence)
			}
			all := append(append([]guard.Diagnostic{}, diags...), a.Diagnostics...)
			guard.SortDiagnostics(all)
			checkDegradedGolden(t, tc.golden, renderDegraded(tc.source, a.Confidence, all, a))
		})
	}
}

// TestGoldenMissingBranchProfile pins the pipeline's prior fallback when
// the profile loses one branch entry: the lexically first branch site is
// deleted from a measured profile and the workload re-prepared around the
// gap. Translation substitutes the uniform p=0.5 prior, records the
// documented diagnostic, and the confidence drops below 1.
func TestGoldenMissingBranchProfile(t *testing.T) {
	base := prepared(t, "sord")
	if len(base.Profile.Branches) == 0 {
		t.Fatal("sord profile has no branch entries to corrupt")
	}
	keys := make([]string, 0, len(base.Profile.Branches))
	for k := range base.Profile.Branches {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	corrupt := interp.NewProfile()
	for k, v := range base.Profile.Branches {
		if k != keys[0] {
			corrupt.Branches[k] = v
		}
	}
	for k, v := range base.Profile.Loops {
		corrupt.Loops[k] = v
	}

	w, err := workloads.Get("sord", workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Prepare(context.Background(), w, WithProfile(corrupt))
	if err != nil {
		t.Fatalf("prepare with corrupt profile: %v", err)
	}
	if run.Confidence >= 1 {
		t.Errorf("missing branch entry left confidence at %v, want < 1", run.Confidence)
	}
	found := false
	for _, d := range run.Diagnostics {
		if d.Code == "missing-profile" {
			found = true
		}
	}
	if !found {
		t.Errorf("no missing-profile diagnostic, got %v", run.Diagnostics)
	}
	out, err := Sweep(context.Background(), run, []*hw.Machine{hw.BGQ()})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	checkDegradedGolden(t, "degraded-profile", renderDegraded("sord-missing-branch", run.Confidence, run.Diagnostics, out[0].Analysis))
}

// TestStrictLenientParity verifies the acceptance bar for lenient mode:
// on every intact built-in workload the lenient pipeline produces the
// same diagnostics, bit-identical confidence, and bit-identical projected
// numbers as the strict one — and on workloads with no degradations at
// all, exactly confidence 1.0 and zero diagnostics.
func TestStrictLenientParity(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			strict := prepared(t, name)
			w, err := workloads.Get(name, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			lenient, err := Prepare(context.Background(), w, WithLenient(true))
			if err != nil {
				t.Fatalf("lenient prepare: %v", err)
			}
			if math.Float64bits(lenient.Confidence) != math.Float64bits(strict.Confidence) {
				t.Errorf("confidence: lenient %v, strict %v", lenient.Confidence, strict.Confidence)
			}
			if got, want := fmt.Sprint(lenient.Diagnostics), fmt.Sprint(strict.Diagnostics); got != want {
				t.Errorf("diagnostics: lenient %s, strict %s", got, want)
			}
			if len(strict.Diagnostics) == 0 {
				if lenient.Confidence != 1 {
					t.Errorf("clean workload: lenient confidence %v, want exactly 1", lenient.Confidence)
				}
				if len(lenient.Diagnostics) != 0 {
					t.Errorf("clean workload: lenient diagnostics %v, want none", lenient.Diagnostics)
				}
			}
			sa, err := Sweep(context.Background(), strict, []*hw.Machine{hw.BGQ()})
			if err != nil {
				t.Fatal(err)
			}
			la, err := Sweep(context.Background(), lenient, []*hw.Machine{hw.BGQ()})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderGolden(name, la[0].Analysis), renderGolden(name, sa[0].Analysis)) {
				t.Errorf("lenient analysis differs from strict:\n--- strict\n%s--- lenient\n%s",
					renderGolden(name, sa[0].Analysis), renderGolden(name, la[0].Analysis))
			}
			if math.Float64bits(la[0].Analysis.Confidence) != math.Float64bits(sa[0].Analysis.Confidence) {
				t.Errorf("analysis confidence: lenient %v, strict %v", la[0].Analysis.Confidence, sa[0].Analysis.Confidence)
			}
		})
	}
}
