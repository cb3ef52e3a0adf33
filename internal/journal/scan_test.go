package journal_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"skope/internal/journal"
)

// writeJournal builds a journal with the given records and returns its path.
func writeJournal(t *testing.T, name string, meta map[string]string, recs map[string]string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetMeta(meta); err != nil {
		t.Fatal(err)
	}
	for k, v := range recs {
		if err := j.Append(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	return path
}

func tearTail(t *testing.T, path string) {
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

func TestScanIntactJournal(t *testing.T) {
	path := writeJournal(t, "a.journal", map[string]string{"layout": "fp1"},
		map[string]string{"k1": "v1", "k2": "v2"})
	var keys []string
	rep, err := journal.Scan(path, func(key string, payload []byte) error {
		keys = append(keys, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.TornTail {
		t.Errorf("report = %+v, want 2 records, no torn tail", rep)
	}
	if rep.Meta["layout"] != "fp1" {
		t.Errorf("meta = %v", rep.Meta)
	}
	if len(keys) != 2 {
		t.Errorf("fn saw %d records", len(keys))
	}
	fi, _ := os.Stat(path)
	if rep.TornOffset != fi.Size() {
		t.Errorf("TornOffset = %d, file size %d", rep.TornOffset, fi.Size())
	}
}

func TestScanDoesNotModifyTornJournal(t *testing.T) {
	path := writeJournal(t, "a.journal", map[string]string{"layout": "fp1"},
		map[string]string{"k1": "v1"})
	tearTail(t, path)
	before, _ := os.Stat(path)

	rep, err := journal.Scan(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.Records != 1 {
		t.Errorf("report = %+v, want torn tail with 1 intact record", rep)
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Fatalf("Scan changed the file: %d -> %d bytes", before.Size(), after.Size())
	}
	if rep.TornOffset >= before.Size() {
		t.Errorf("TornOffset = %d not before file end %d", rep.TornOffset, before.Size())
	}
}

func TestScanRejectsMidFileCorruption(t *testing.T) {
	path := writeJournal(t, "a.journal", map[string]string{"layout": "fp1"},
		map[string]string{"k1": "v1"})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the first record line (after the header line),
	// leaving the trailing record intact so the damage is mid-file once we
	// append another record.
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the k1 record (located before the k2 line).
	idx := len(data) - 10
	full[idx] ^= 0xff
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Scan(path, nil); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Scan err = %v, want ErrCorrupt", err)
	}
}

func TestScanFnErrorAborts(t *testing.T) {
	path := writeJournal(t, "a.journal", map[string]string{"layout": "fp1"},
		map[string]string{"k1": "v1", "k2": "v2"})
	sentinel := errors.New("stop")
	if _, err := journal.Scan(path, func(string, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want fn's sentinel", err)
	}
}

func TestRepairTruncatesTornTail(t *testing.T) {
	path := writeJournal(t, "a.journal", map[string]string{"layout": "fp1"},
		map[string]string{"k1": "v1", "k2": "v2"})
	intact, _ := os.Stat(path)
	tearTail(t, path)

	records, repaired, err := journal.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if records != 2 || !repaired {
		t.Errorf("Repair = (%d, %v), want (2, true)", records, repaired)
	}
	fi, _ := os.Stat(path)
	if fi.Size() != intact.Size() {
		t.Errorf("repaired size %d, want %d", fi.Size(), intact.Size())
	}
	// Idempotent: a second repair is a no-op.
	records, repaired, err = journal.Repair(path)
	if err != nil || records != 2 || repaired {
		t.Errorf("second Repair = (%d, %v, %v), want (2, false, nil)", records, repaired, err)
	}
	// The repaired journal opens cleanly with both records.
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n, torn := j.Recovered(); n != 2 || torn {
		t.Errorf("Recovered = (%d, %v) after repair", n, torn)
	}
}
