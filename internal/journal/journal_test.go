package journal_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"skope/internal/journal"
)

func openT(t *testing.T, path string) *journal.Journal {
	t.Helper()
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openT(t, path)
	if err := j.SetMeta(map[string]string{"layout": "abc123"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("fp1", []byte("payload-1")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("fp2", []byte("payload-2")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openT(t, path)
	if err := j2.SetMeta(map[string]string{"layout": "other"}); !errors.Is(err, journal.ErrMetaMismatch) {
		t.Errorf("SetMeta over the recovered meta = %v, want ErrMetaMismatch", err)
	}
	if recs := j2.Entries(); len(recs) != 2 ||
		recs[0].Key != "fp1" || string(recs[0].Payload) != "payload-1" ||
		recs[1].Key != "fp2" || string(recs[1].Payload) != "payload-2" {
		t.Errorf("Entries = %v", recs)
	}
	if n, torn := j2.Recovered(); n != 2 || torn {
		t.Errorf("Recovered = (%d, %v), want (2, false)", n, torn)
	}
	// Resume binding: same meta ok, different meta refused.
	if err := j2.SetMeta(map[string]string{"layout": "abc123"}); err != nil {
		t.Errorf("matching SetMeta failed: %v", err)
	}
	if err := j2.SetMeta(map[string]string{"layout": "OTHER"}); !errors.Is(err, journal.ErrMetaMismatch) {
		t.Errorf("mismatched SetMeta = %v, want ErrMetaMismatch", err)
	}
}

func TestAppendRequiresMeta(t *testing.T) {
	j := openT(t, filepath.Join(t.TempDir(), "j"))
	if err := j.Append("k", []byte("v")); !errors.Is(err, journal.ErrNoMeta) {
		t.Errorf("Append before SetMeta = %v, want ErrNoMeta", err)
	}
}

func TestTornTailIsDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openT(t, path)
	if err := j.SetMeta(map[string]string{"w": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("good", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-Append: a partial, unterminated frame.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"key":"torn","pay`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openT(t, path)
	if n, torn := j2.Recovered(); n != 1 || !torn {
		t.Fatalf("Recovered = (%d, %v), want (1, true)", n, torn)
	}
	if recs := j2.Entries(); len(recs) != 1 || recs[0].Key != "good" || string(recs[0].Payload) != "kept" {
		t.Errorf("Entries after torn tail = %v", recs)
	}
	// The tail must be physically gone so future appends start clean.
	if err := j2.Append("next", []byte("v")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := openT(t, path)
	if j3.Len() != 2 {
		t.Errorf("after truncate+append journal has %d records, want 2", j3.Len())
	}
}

func TestCorruptionBeforeTailIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openT(t, path)
	if err := j.SetMeta(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a byte inside the first record's checksum (line 2 of 3).
	lines[1] = "00000000 " + strings.SplitN(lines[1], " ", 2)[1]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.OpenFS(nil, path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("mid-file corruption not rejected: %v", err)
	}
}

func TestNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte("# totally a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.OpenFS(nil, path); err == nil {
		t.Error("garbage file accepted as journal")
	}
}

func TestLastRecordWins(t *testing.T) {
	j := openT(t, filepath.Join(t.TempDir(), "j"))
	if err := j.SetMeta(nil); err != nil {
		t.Fatal(err)
	}
	j.Append("k", []byte("first"))
	j.Append("k", []byte("second"))
	if got, _ := j.Get("k"); string(got) != "second" {
		t.Errorf("duplicate key replayed %q, want second", got)
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d, want 1", j.Len())
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openT(t, path)
	if err := j.SetMeta(map[string]string{"l": "v"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := string(rune('a'+w)) + "-" + string(rune('0'+i%10)) + string(rune('0'+i/10))
				if err := j.Append(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	j2 := openT(t, path)
	if j2.Len() != 200 {
		t.Errorf("recovered %d records, want 200", j2.Len())
	}
	for _, e := range j2.Entries() {
		if e.Key != string(e.Payload) {
			t.Errorf("record %q holds %q", e.Key, e.Payload)
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openT(t, path)
	j.SetMeta(nil)
	if err := j.Append("empty", nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openT(t, path)
	if v, ok := j2.Get("empty"); !ok || len(v) != 0 {
		t.Errorf("empty payload lost: %v %v", v, ok)
	}
}

func TestEntriesPreserveCompletionOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openT(t, path)
	j.SetMeta(nil)
	keys := []string{"c", "a", "z", "b", "m"}
	for i, k := range keys {
		if err := j.Append(k, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rewriting an existing key keeps its original position but serves the
	// newest payload (last record wins, like Replay).
	if err := j.Append("a", []byte("new")); err != nil {
		t.Fatal(err)
	}
	check := func(j *journal.Journal, where string) {
		t.Helper()
		entries := j.Entries()
		if len(entries) != len(keys) {
			t.Fatalf("%s: %d entries, want %d", where, len(entries), len(keys))
		}
		for i, e := range entries {
			if e.Key != keys[i] {
				t.Errorf("%s: entry %d is %q, want %q", where, i, e.Key, keys[i])
			}
		}
		if got := string(entries[1].Payload); got != "new" {
			t.Errorf("%s: rewritten key serves %q, want \"new\"", where, got)
		}
	}
	check(j, "live")
	j.Close()
	// The order must survive recovery, including last-wins dedupe.
	check(openT(t, path), "recovered")
}

func TestEntriesCopiesPayloads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	j := openT(t, path)
	j.SetMeta(nil)
	if err := j.Append("k", []byte("orig")); err != nil {
		t.Fatal(err)
	}
	e := j.Entries()[0]
	copy(e.Payload, "XXXX")
	if got := string(j.Entries()[0].Payload); got != "orig" {
		t.Errorf("mutating a returned payload leaked into the journal: %q", got)
	}
}
