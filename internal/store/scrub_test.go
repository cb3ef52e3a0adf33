package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/iofault"
)

// scrubFixture opens a store with one good eval, one good prep, and one
// corrupt eval record (valid journal frame, garbage payload), returning
// the store and the corrupt record's address parts.
func scrubFixture(t *testing.T) (s *Store, layoutFP, machineFP, mode string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cas.journal")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l := testLayout(t)
	a := analyzeOn(t, l, hw.BGQ())
	mode = ModeDigest(hotspot.DefaultCriteria(), false, 0)
	layoutFP, machineFP = l.Fingerprint(), a.Machine.Fingerprint()
	if err := st.PutEval(layoutFP, machineFP, mode, a); err != nil {
		t.Fatal(err)
	}
	if err := st.PutPrep("deadbeef", Prep{LayoutFingerprint: layoutFP, Confidence: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Corrupt the eval by overwriting its key with garbage, the way a
	// foreign writer or version skew would: the frame is valid, the
	// payload is not an analysis.
	rawAppend(t, path, evalKey(layoutFP, machineFP, mode), []byte("not an analysis"))

	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layoutFP, machineFP, mode
}

func TestScrubQuarantinesCorruptRecord(t *testing.T) {
	s, layoutFP, machineFP, mode := scrubFixture(t)
	rep := s.Scrub()
	if rep.Checked != 2 || rep.Quarantined != 1 || rep.Bad != 1 || rep.Healed != 0 {
		t.Fatalf("first scrub = %+v", rep)
	}
	if len(rep.Problems) != 1 || rep.Problems[0].Key != evalKey(layoutFP, machineFP, mode) {
		t.Fatalf("problems = %+v", rep.Problems)
	}
	if q := s.Quarantined(); len(q) != 1 || q[0] != evalKey(layoutFP, machineFP, mode) {
		t.Fatalf("Quarantined = %v", q)
	}

	// A quarantined key reads as a miss — no decode error, no stale data.
	a, ok, err := s.GetEval(layoutFP, machineFP, mode)
	if a != nil || ok || err != nil {
		t.Fatalf("GetEval on quarantined key = (%v, %v, %v); want a clean miss", a, ok, err)
	}

	// Re-scrubbing is idempotent: nothing newly quarantined, nothing
	// healed, same bad set.
	rep = s.Scrub()
	if rep.Quarantined != 0 || rep.Healed != 0 || rep.Bad != 1 {
		t.Fatalf("second scrub = %+v", rep)
	}
	if runs, last := s.ScrubStats(); runs != 2 || last.Bad != 1 {
		t.Fatalf("ScrubStats = (%d, %+v)", runs, last)
	}
}

func TestPutHealsQuarantine(t *testing.T) {
	s, layoutFP, machineFP, mode := scrubFixture(t)
	s.Scrub()

	// The recompute-and-replace path: a fresh Put of the quarantined key
	// lifts the quarantine immediately and the record serves again.
	a := analyzeOn(t, testLayout(t), hw.BGQ())
	if err := s.PutEval(layoutFP, machineFP, mode, a); err != nil {
		t.Fatal(err)
	}
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine survived the healing Put: %v", q)
	}
	got, ok, err := s.GetEval(layoutFP, machineFP, mode)
	if err != nil || !ok || got == nil {
		t.Fatalf("GetEval after heal = (%v, %v, %v)", got, ok, err)
	}
	// The next scrub confirms the heal (the record verifies clean now)
	// and reports nothing bad.
	if rep := s.Scrub(); rep.Bad != 0 || rep.Quarantined != 0 {
		t.Fatalf("scrub after heal = %+v", rep)
	}
}

// TestScrubRacingHealDoesNotQuarantine races a scrub against the healing
// Put of the corrupt record it is verifying. Scrub verifies a snapshot
// without the store lock, so the Put can land in between; the healed key
// must never stay quarantined. Hundreds of good records make verification
// take milliseconds, so the Put usually lands inside that window.
func TestScrubRacingHealDoesNotQuarantine(t *testing.T) {
	s, layoutFP, machineFP, mode := scrubFixture(t)
	a := analyzeOn(t, testLayout(t), hw.BGQ())
	for i := 0; i < 300; i++ {
		if err := s.PutEval(layoutFP, fmt.Sprintf("filler-%03d", i), mode, a); err != nil {
			t.Fatal(err)
		}
	}
	key := evalKey(layoutFP, machineFP, mode)
	for round := 0; round < 30; round++ {
		if round > 0 {
			// Corrupt the record again, as the fixture did.
			if err := s.jnl.Append(key, []byte("not an analysis")); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.Scrub()
		}()
		// Give the scrub time to take its snapshot, so the Put usually
		// lands while it verifies. Only how often the race is exercised
		// depends on this: the assertions hold in every interleaving.
		time.Sleep(time.Millisecond)
		if err := s.PutEval(layoutFP, machineFP, mode, a); err != nil {
			t.Fatal(err)
		}
		<-done
		if q := s.Quarantined(); len(q) != 0 {
			t.Fatalf("round %d: healed key stayed quarantined: %v", round, q)
		}
		if _, ok, err := s.GetEval(layoutFP, machineFP, mode); !ok || err != nil {
			t.Fatalf("round %d: GetEval of healed key = (%v, %v)", round, ok, err)
		}
	}
}

func TestGetEvalSelfQuarantines(t *testing.T) {
	// No scrub at all: the first read of a corrupt record reports the
	// decode error once, then the key reads as a miss so the caller's
	// recompute path takes over.
	s, layoutFP, machineFP, mode := scrubFixture(t)
	_, ok, err := s.GetEval(layoutFP, machineFP, mode)
	if !ok || err == nil {
		t.Fatalf("first read of corrupt record = (%v, %v); want (true, decode error)", ok, err)
	}
	if _, ok, err := s.GetEval(layoutFP, machineFP, mode); ok || err != nil {
		t.Fatalf("second read = (%v, %v); want a clean miss", ok, err)
	}
}

func TestPutDegradedWrapsSentinel(t *testing.T) {
	// Once the underlying journal's append path fails, Put errors must be
	// classifiable as ErrDegraded (sweeps downgrade them to warnings) and
	// still carry the OS-level cause.
	path := filepath.Join(t.TempDir(), "cas.journal")
	// Writes: 1 = store header; every later write fails.
	ff := iofault.New(nil, iofault.Plan{FailWriteAt: 2})
	s, err := OpenFS(ff, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := testLayout(t)
	a := analyzeOn(t, l, hw.BGQ())
	perr := s.PutEval(l.Fingerprint(), a.Machine.Fingerprint(), "m", a)
	if !errors.Is(perr, ErrDegraded) || !errors.Is(perr, syscall.EIO) {
		t.Fatalf("PutEval = %v; want ErrDegraded wrapping EIO", perr)
	}
	if perr := s.PutPrep("d", Prep{LayoutFingerprint: "x"}); !errors.Is(perr, ErrDegraded) {
		t.Fatalf("PutPrep after journal failure = %v; want ErrDegraded", perr)
	}
	// Reads are unaffected by the degraded append path.
	if _, ok, err := s.GetEval("a", "b", "c"); ok || err != nil {
		t.Fatalf("GetEval on degraded store = (%v, %v)", ok, err)
	}
}
