package journal_test

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"

	"skope/internal/iofault"
	"skope/internal/journal"
)

// seedJournal writes a header + n records through fsys and leaves the
// journal open for the caller.
func seedJournal(t *testing.T, fsys iofault.FS, path string, n int) *journal.Journal {
	t.Helper()
	j, err := journal.OpenFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetMeta(map[string]string{"layout": "L"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(key(i), []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

func key(i int) string { return string(rune('k')) + string(rune('0'+i)) }

// TestAppendFailureSticky: the first write failure rolls the file back
// and permanently disables appends — later Appends refuse with
// ErrWriteFailed, reads keep serving, and a clean reopen sees exactly the
// pre-failure records.
func TestAppendFailureSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	// Write 1 = header, writes 2-3 = records, write 4 fails torn.
	ff := iofault.New(nil, iofault.Plan{FailWriteAt: 4, ShortWrite: true})
	j := seedJournal(t, ff, path, 2)
	defer j.Close()

	err := j.Append("doomed", []byte("x"))
	if !errors.Is(err, journal.ErrWriteFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("failing append = %v; want ErrWriteFailed wrapping EIO", err)
	}
	if err := j.Append("after", []byte("y")); !errors.Is(err, journal.ErrWriteFailed) {
		t.Fatalf("post-failure append = %v; want sticky ErrWriteFailed", err)
	}
	// In-memory replay still serves everything that reached disk.
	if j.Len() != 2 {
		t.Fatalf("Len = %d after failure; want the 2 durable records", j.Len())
	}
	if _, ok := j.Get(key(0)); !ok {
		t.Fatal("pre-failure record lost from reads")
	}
	j.Close()

	// The rollback truncated the torn frame: a clean reopen recovers the
	// two records with no torn tail at all.
	j2, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatalf("reopen after rollback: %v", err)
	}
	defer j2.Close()
	if n, torn := j2.Recovered(); n != 2 || torn {
		t.Fatalf("Recovered = (%d, %v); want (2, false): rollback should have removed the tear", n, torn)
	}
}

// TestAppendFailureTornTailSurvivesFailedRollback: when the rollback
// truncate also fails, the torn frame stays on disk — and reopen still
// recovers cleanly, because a torn tail is exactly what recovery removes.
func TestAppendFailureTornTailSurvivesFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	ff := iofault.New(nil, iofault.Plan{FailWriteAt: 4, ShortWrite: true, FailTruncate: true})
	j := seedJournal(t, ff, path, 2)
	if err := j.Append("doomed", []byte("x")); !errors.Is(err, journal.ErrWriteFailed) {
		t.Fatalf("failing append = %v", err)
	}
	j.Close()

	// Scan sees the tear (proof the rollback really was blocked)...
	rep, err := journal.Scan(path, nil)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !rep.TornTail || rep.Records != 2 {
		t.Fatalf("scan = %+v; want torn tail after 2 records", rep)
	}
	// ...and Open discards it.
	j2, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if n, torn := j2.Recovered(); n != 2 || !torn {
		t.Fatalf("Recovered = (%d, %v); want (2, true)", n, torn)
	}
	if err := j2.Append("fresh", []byte("z")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestFsyncFailureSticky: the write lands but fsync fails — the record
// was never acknowledged durable, so the journal rolls it back and goes
// read-only just like a failed write.
func TestFsyncFailureSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	// Syncs: 1 = header, 2-3 = records, 4 fails (the 3rd record's).
	ff := iofault.New(nil, iofault.Plan{FailSyncAt: 4})
	j := seedJournal(t, ff, path, 2)
	err := j.Append("doomed", []byte("x"))
	if !errors.Is(err, journal.ErrWriteFailed) || !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("append with failing fsync = %v", err)
	}
	if j.Len() != 2 {
		t.Fatalf("unacknowledged record visible: Len = %d", j.Len())
	}
	j.Close()

	j2, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if n, _ := j2.Recovered(); n != 2 {
		t.Fatalf("Recovered = %d; the unsynced record must not survive", n)
	}
}

// TestENOSPCDegrades: a full disk stops the journal mid-run; what was
// durably appended before the budget ran out replays on a clean reopen.
func TestENOSPCDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	// Measure how much a header + 2 records cost, then budget for that.
	probe := seedJournal(t, iofault.Disk, filepath.Join(dir, "probe"), 2)
	probe.Close()
	fi, err := iofault.Disk.Open(filepath.Join(dir, "probe"))
	if err != nil {
		t.Fatal(err)
	}
	size, err := fi.Seek(0, 2)
	fi.Close()
	if err != nil {
		t.Fatal(err)
	}

	ff := iofault.New(nil, iofault.Plan{ByteBudget: size + 1})
	j, err := journal.OpenFS(ff, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetMeta(map[string]string{"layout": "L"}); err != nil {
		t.Fatal(err)
	}
	wrote := 0
	var aerr error
	for i := 0; i < 5; i++ {
		if aerr = j.Append(key(i), []byte{byte('a' + i)}); aerr != nil {
			break
		}
		wrote++
	}
	if !errors.Is(aerr, syscall.ENOSPC) || !errors.Is(aerr, journal.ErrWriteFailed) {
		t.Fatalf("append on full disk = %v; want ErrWriteFailed wrapping ENOSPC", aerr)
	}
	if wrote != 2 {
		t.Fatalf("wrote %d records before ENOSPC; want 2", wrote)
	}
	j.Close()

	j2, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	defer j2.Close()
	if n, _ := j2.Recovered(); n != wrote {
		t.Fatalf("Recovered = %d; want the %d durable records", n, wrote)
	}
}

// TestEIOOnReopen: an injected open failure surfaces as an error (never a
// silently empty journal), and the same file opens fine once the fault
// clears.
func TestEIOOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	seedJournal(t, iofault.Disk, path, 3).Close()

	ff := iofault.New(nil, iofault.Plan{FailOpenAt: 1})
	if _, err := journal.OpenFS(ff, path); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("faulty reopen = %v; want ErrInjected", err)
	}
	j, err := journal.OpenFS(nil, path)
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer j.Close()
	if n, _ := j.Recovered(); n != 3 {
		t.Fatalf("Recovered = %d, want 3", n)
	}
}

// TestSetMetaAfterFailure: the sticky failure also guards the header
// path.
func TestSetMetaAfterFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	ff := iofault.New(nil, iofault.Plan{FailWriteAt: 1})
	j, err := journal.OpenFS(ff, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.SetMeta(map[string]string{"layout": "L"}); !errors.Is(err, journal.ErrWriteFailed) {
		t.Fatalf("SetMeta on failing write = %v", err)
	}
	if err := j.SetMeta(map[string]string{"layout": "L"}); !errors.Is(err, journal.ErrWriteFailed) {
		t.Fatalf("second SetMeta = %v; want sticky ErrWriteFailed", err)
	}
}
