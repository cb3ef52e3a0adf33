package store

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/expr"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/libmodel"
	"skope/internal/skeleton"
	"skope/internal/workloads"
)

// testLayout builds one small prepared layout for store tests.
func testLayout(t *testing.T) *hotspot.Layout {
	t.Helper()
	src := `
def main(n)
  for i = 0 : n
    comp flops=500 loads=8 name="kernel"
  end
  comm bytes=n*4 msgs=1 name="edge"
end
`
	prog, err := skeleton.Parse("storetest", src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bst.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	bet, err := core.Build(context.Background(), tree, expr.Env{"n": 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	libs, err := libmodel.Default()
	if err != nil {
		t.Fatal(err)
	}
	l, err := hotspot.NewLayout(bet, libs)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func analyzeOn(t *testing.T, l *hotspot.Layout, m *hw.Machine) *hotspot.Analysis {
	t.Helper()
	return l.Analyze(hw.NewModel(m))
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cas.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	l := testLayout(t)
	a := analyzeOn(t, l, hw.BGQ())
	mode := ModeDigest(hotspot.DefaultCriteria(), false, 0)
	layoutFP := l.Fingerprint()
	machFP := a.Machine.Fingerprint()

	if _, ok, err := s.GetEval(layoutFP, machFP, mode); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := s.PutEval(layoutFP, machFP, mode, a); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetEval(layoutFP, machFP, mode)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if math.Float64bits(got.TotalTime) != math.Float64bits(a.TotalTime) {
		t.Errorf("TotalTime not bit-identical")
	}
	if got.Machine.Fingerprint() != machFP {
		t.Errorf("machine fingerprint changed through store")
	}
	// Stored bytes are canonical: re-encoding the retrieved analysis
	// reproduces them.
	e1, _ := hotspot.EncodeAnalysis(a)
	e2, _ := hotspot.EncodeAnalysis(got)
	if !bytes.Equal(e1, e2) {
		t.Errorf("stored analysis is not canonically identical")
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || s.Len() != 1 {
		t.Errorf("stats = %+v and %d records, want 1 hit / 1 miss / 1 record", st, s.Len())
	}
}

func TestStorePrepRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cas.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	w, err := workloads.Get("srad", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dig := PrepDigest(w, true, nil)
	if _, ok, _ := s.GetPrep(dig); ok {
		t.Fatal("prep present in empty store")
	}
	in := Prep{
		LayoutFingerprint: "deadbeef",
		Confidence:        0.75,
		Diagnostics: []guard.Diagnostic{
			{Severity: guard.SevWarn, Stage: "profile", Code: "prior", Message: "used prior"},
		},
	}
	if err := s.PutPrep(dig, in); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetPrep(dig)
	if err != nil || !ok {
		t.Fatalf("get prep: ok=%v err=%v", ok, err)
	}
	if got.LayoutFingerprint != in.LayoutFingerprint ||
		math.Float64bits(got.Confidence) != math.Float64bits(in.Confidence) ||
		len(got.Diagnostics) != 1 || got.Diagnostics[0] != in.Diagnostics[0] {
		t.Errorf("prep round trip: got %+v, want %+v", got, in)
	}
}

func TestDigestsDiscriminate(t *testing.T) {
	w1, err := workloads.Get("srad", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workloads.Get("srad", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	base := PrepDigest(w1, false, nil)
	if PrepDigest(w2, false, nil) == base {
		t.Error("PrepDigest ignores workload scale")
	}
	if PrepDigest(w1, true, nil) == base {
		t.Error("PrepDigest ignores lenient mode")
	}
	lim := guard.Default()
	lim.MaxBETNodes = 7
	if PrepDigest(w1, false, lim) == base {
		t.Error("PrepDigest ignores guard limits")
	}

	crit := hotspot.DefaultCriteria()
	m0 := ModeDigest(crit, false, 0)
	crit2 := crit
	crit2.MaxSpots = 3
	if ModeDigest(crit2, false, 0) == m0 {
		t.Error("ModeDigest ignores criteria")
	}
	if ModeDigest(crit, true, 0) == m0 {
		t.Error("ModeDigest ignores lenient mode")
	}
	if ModeDigest(crit, false, 0.5) == m0 {
		t.Error("ModeDigest ignores confidence floor")
	}
}

// TestStoreConcurrent exercises mixed readers and writers; run with -race.
func TestStoreConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cas.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	l := testLayout(t)
	layoutFP := l.Fingerprint()
	mode := ModeDigest(hotspot.DefaultCriteria(), false, 0)

	// A handful of distinct machines, analyzed up front.
	machines := make([]*hw.Machine, 6)
	analyses := make([]*hotspot.Analysis, 6)
	for i := range machines {
		m := hw.BGQ()
		m.Name = fmt.Sprintf("bgq-%d", i)
		m.FreqGHz *= 1 + float64(i)*0.1
		machines[i] = m
		analyses[i] = analyzeOn(t, l, m)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := (g + iter) % len(machines)
				fp := machines[i].Fingerprint()
				if g%2 == 0 {
					if err := s.PutEval(layoutFP, fp, mode, analyses[i]); err != nil {
						errs <- err
						return
					}
				}
				a, ok, err := s.GetEval(layoutFP, fp, mode)
				if err != nil {
					errs <- err
					return
				}
				if ok && a.Machine.Fingerprint() != fp {
					errs <- fmt.Errorf("got analysis for %s under key %s", a.Machine.Fingerprint(), fp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Len() != len(machines) {
		t.Errorf("store holds %d records, want %d", s.Len(), len(machines))
	}
}

// TestStoreRestartAndTornTail proves durability: records put before a
// "crash" (plus a torn half-written tail) are all served after reopening,
// and the torn bytes are discarded rather than surfaced.
func TestStoreRestartAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cas.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	l := testLayout(t)
	layoutFP := l.Fingerprint()
	mode := ModeDigest(hotspot.DefaultCriteria(), false, 0)
	a := analyzeOn(t, l, hw.BGQ())
	machFP := a.Machine.Fingerprint()
	if err := s.PutEval(layoutFP, machFP, mode, a); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrep("prep-digest", Prep{LayoutFingerprint: layoutFP, Confidence: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close() // simulate the process dying (records are already fsynced)

	// A crash mid-append leaves a torn final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"key":"e/half-writ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if n, torn := s2.Recovered(); n != 2 || !torn {
		t.Errorf("Recovered() = (%d, %v), want (2, true)", n, torn)
	}
	got, ok, err := s2.GetEval(layoutFP, machFP, mode)
	if err != nil || !ok {
		t.Fatalf("eval lost across restart: ok=%v err=%v", ok, err)
	}
	if math.Float64bits(got.TotalTime) != math.Float64bits(a.TotalTime) {
		t.Errorf("recovered analysis not bit-identical")
	}
	p, ok, err := s2.GetPrep("prep-digest")
	if err != nil || !ok || p.LayoutFingerprint != layoutFP {
		t.Fatalf("prep lost across restart: %+v ok=%v err=%v", p, ok, err)
	}
	// The store stays writable after recovery.
	if err := s2.PutPrep("prep-2", Prep{LayoutFingerprint: "ff"}); err != nil {
		t.Errorf("put after torn-tail recovery: %v", err)
	}
}

// TestStoreRejectsForeignFile ensures Open refuses a journal written by a
// different producer (e.g. a sweep journal) instead of mixing records.
func TestStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Same file, claimed by a different meta binding — must refuse.
	if _, err := openAs(path, "other-producer"); err == nil {
		t.Fatal("store opened a foreign journal")
	}
}

// openAs opens path as if a different producer owned it.
func openAs(path, producer string) (*Store, error) {
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		return nil, err
	}
	if err := j.SetMeta(map[string]string{metaStoreKey: producer, metaVersion: versionVal}); err != nil {
		j.Close()
		return nil, err
	}
	return &Store{jnl: j}, nil
}
