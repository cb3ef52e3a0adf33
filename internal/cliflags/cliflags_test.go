package cliflags

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"skope/internal/hw"
)

// TestRegisteredNames freezes the shared flag surface: these are the names
// the three tools expose, and renaming any of them is a breaking change to
// every script driving skope. The removed -journal, -resume and
// -variant-timeout stay unregistered, so a script that asks for a
// journaled sweep or an attempt deadline fails on an unknown flag instead
// of running without one.
func TestRegisteredNames(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var m Machine
	var g Guard
	var c Criteria
	var s Sweep
	var sv Serve
	m.Register(fs)
	g.Register(fs)
	c.Register(fs, 0.90, 0.50, 10)
	s.Register(fs)
	sv.Register(fs)
	for _, name := range []string{
		"machine", "machine-file", "limits", "lenient",
		"coverage", "leanness", "spots",
		"sweep", "workers", "top", "store",
		"retries", "min-confidence",
		"max-sessions", "session-ttl", "scrub-interval", "stream-write-timeout",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	for _, name := range []string{"journal", "resume", "variant-timeout"} {
		if fs.Lookup(name) != nil {
			t.Errorf("removed flag -%s is registered", name)
		}
	}
}

func TestMachineResolve(t *testing.T) {
	m := Machine{Preset: "bgq"}
	got, err := m.Resolve()
	if err != nil || got.Name == "" {
		t.Fatalf("preset resolve: %v, %v", got, err)
	}
	if _, err := (&Machine{Preset: "vax"}).Resolve(); err == nil {
		t.Error("unknown preset accepted")
	}

	path := filepath.Join(t.TempDir(), "m.json")
	custom := hw.BGQ()
	custom.Name = "CustomQ"
	data, err := json.Marshal(custom)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// -machine-file wins over -machine.
	got, err = (&Machine{Preset: "bgq", File: path}).Resolve()
	if err != nil || got.Name != "CustomQ" {
		t.Errorf("file resolve: %v, %v", got, err)
	}
}

func TestGuardResolve(t *testing.T) {
	g := Guard{Limits: "nest-depth=12"}
	lim, err := g.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if lim.Or().MaxNestDepth != 12 {
		t.Errorf("nest-depth override lost: %+v", lim)
	}
	if _, err := (&Guard{Limits: "nosuch=1"}).Resolve(); err == nil {
		t.Error("unknown limit key accepted")
	}
}

func TestCriteriaResolve(t *testing.T) {
	c := Criteria{Coverage: 0.8, Leanness: 0.4, MaxSpots: 3}
	crit := c.Resolve()
	if crit.TimeCoverage != 0.8 || crit.CodeLeanness != 0.4 || crit.MaxSpots != 3 {
		t.Errorf("criteria = %+v", crit)
	}
}

func TestAxisListValidatesOnSet(t *testing.T) {
	var a AxisList
	if err := a.Set("nosuch-param=1,2"); err == nil {
		t.Error("unknown parameter accepted")
	}
	if err := a.Set("mem-bandwidth=abc"); err == nil {
		t.Error("non-numeric value accepted")
	}
	if err := a.Set("mem-bandwidth=14,28"); err != nil {
		t.Errorf("valid axis rejected: %v", err)
	}
	if axes, err := a.Axes(); err != nil || len(axes) != 1 {
		t.Errorf("axes = %v, %v", axes, err)
	}
}

func TestSweepVariants(t *testing.T) {
	s := Sweep{Axes: AxisList{"mem-bandwidth=16,32", "freq-ghz=1.6,2.4"}}
	base := hw.BGQ()
	variants, err := s.Variants(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 4 {
		t.Errorf("got %d variants, want 4", len(variants))
	}
}

// TestServeDefaults freezes the serve surface's defaults: admission
// control and session GC off (pre-existing behavior), scrubbing and the
// stream write deadline on.
func TestServeDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var sv Serve
	sv.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sv.MaxSessions != 0 || sv.SessionTTL != 0 {
		t.Errorf("admission defaults changed: %+v", sv)
	}
	if sv.ScrubInterval != 10*time.Minute || sv.StreamWriteTimeout != 30*time.Second {
		t.Errorf("scrub/stream defaults changed: %+v", sv)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	sv = Serve{}
	sv.Register(fs)
	err := fs.Parse([]string{
		"-max-sessions", "8", "-session-ttl", "1h",
		"-scrub-interval", "0", "-stream-write-timeout", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sv.MaxSessions != 8 || sv.SessionTTL != time.Hour ||
		sv.ScrubInterval != 0 || sv.StreamWriteTimeout != 5*time.Second {
		t.Errorf("parsed serve = %+v", sv)
	}
}

func TestSweepParsesFromFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var s Sweep
	s.Register(fs)
	err := fs.Parse([]string{
		"-sweep", "mem-bandwidth=16,32", "-sweep", "freq-ghz=1.6,2.4",
		"-store", "results.cas",
		"-retries", "2", "-min-confidence", "0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Axes) != 2 || s.Store != "results.cas" || s.Retries != 2 || s.MinConfidence != 0.5 {
		t.Errorf("parsed sweep = %+v", s)
	}
}
