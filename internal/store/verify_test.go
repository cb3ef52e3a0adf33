package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/journal"
)

// populatedStore builds a store with one eval and one prep record and
// returns its path.
func populatedStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cas.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := testLayout(t)
	a := analyzeOn(t, l, hw.BGQ())
	mode := ModeDigest(hotspot.DefaultCriteria(), false, 0)
	if err := s.PutEval(l.Fingerprint(), a.Machine.Fingerprint(), mode, a); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPrep("deadbeef", Prep{LayoutFingerprint: l.Fingerprint(), Confidence: 1}); err != nil {
		t.Fatal(err)
	}
	return path
}

// rawAppend opens the store file as a journal and appends one arbitrary
// record, bypassing the store's typed Put paths.
func rawAppend(t *testing.T, path, key string, payload []byte) {
	t.Helper()
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(key, payload); err != nil {
		t.Fatal(err)
	}
}

func storeTearTail(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`00000000 {"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestVerifyCleanStore(t *testing.T) {
	path := populatedStore(t)
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean store failed scrub: %+v", rep)
	}
	if rep.Records != 2 || rep.Evals != 1 || rep.Preps != 1 {
		t.Errorf("counts = %d records / %d evals / %d preps, want 2/1/1", rep.Records, rep.Evals, rep.Preps)
	}
}

func TestVerifyReportsTornTailWithoutModifying(t *testing.T) {
	path := populatedStore(t)
	storeTearTail(t, path)
	before, _ := os.Stat(path)

	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.Clean() {
		t.Errorf("scrub of torn store = %+v, want TornTail", rep)
	}
	if rep.Records != 2 || len(rep.Problems) != 0 {
		t.Errorf("intact records must still verify: %+v", rep)
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Fatalf("Verify changed the file: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestRepairTruncatesStoreTornTail(t *testing.T) {
	path := populatedStore(t)
	intact, _ := os.Stat(path)
	storeTearTail(t, path)

	rep, repaired, err := Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired || !rep.TornTail {
		t.Errorf("Repair = (%+v, %v), want a repair of a torn tail", rep, repaired)
	}
	fi, _ := os.Stat(path)
	if fi.Size() != intact.Size() {
		t.Errorf("repaired size %d, want %d", fi.Size(), intact.Size())
	}
	// Second pass: nothing to do, store is clean and reopens.
	rep, repaired, err = Repair(path)
	if err != nil || repaired || !rep.Clean() {
		t.Errorf("second Repair = (%+v, %v, %v), want clean no-op", rep, repaired, err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2 {
		t.Errorf("repaired store has %d records, want 2", s.Len())
	}
}

func TestVerifyFlagsNonCanonicalEval(t *testing.T) {
	path := populatedStore(t)
	l := testLayout(t)
	a := analyzeOn(t, l, hw.BGQ())
	data, err := hotspot.EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	// Valid JSON, decodes fine — but a byte of trailing whitespace means
	// the stored payload is not what a canonical re-encode produces.
	rawAppend(t, path, evalKey("lfp", "mfp", "mode"), append(data, ' '))

	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 {
		t.Fatalf("problems = %+v, want exactly the non-canonical record", rep.Problems)
	}
	if rep.Problems[0].Key != evalKey("lfp", "mfp", "mode") {
		t.Errorf("problem key = %q", rep.Problems[0].Key)
	}
}

func TestVerifyFlagsUndecodableRecords(t *testing.T) {
	path := populatedStore(t)
	rawAppend(t, path, evalKey("lfp", "mfp", "mode"), []byte(`{"v":999}`))
	rawAppend(t, path, prepPrefix+"cafe", []byte(`not json`))
	rawAppend(t, path, "e/missing-segments", []byte(`{}`))
	rawAppend(t, path, "x/alien", []byte(`{}`))

	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 4 {
		t.Fatalf("problems = %+v, want 4", rep.Problems)
	}
	if rep.Evals != 1 || rep.Preps != 1 {
		t.Errorf("healthy counts = %d evals / %d preps, want 1/1", rep.Evals, rep.Preps)
	}
}

func TestVerifyRejectsNonStoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "other.journal")
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetMeta(map[string]string{"kind": "sweep"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Verify(path); err == nil {
		t.Fatal("Verify accepted a non-store journal")
	}
	if _, _, err := Repair(path); err == nil {
		t.Fatal("Repair accepted a non-store journal")
	}
}

func TestVerifyRefusesMidFileCorruption(t *testing.T) {
	path := populatedStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte well inside the file (inside the first record's payload).
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(path); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Verify err = %v, want journal.ErrCorrupt", err)
	}
	if _, _, err := Repair(path); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Repair err = %v, want journal.ErrCorrupt", err)
	}
}
