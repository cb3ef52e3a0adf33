package iofault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func openRW(t *testing.T, fsys FS, path string) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestDiskPassthrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f := openRW(t, Disk, path)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "he" {
		t.Fatalf("ReadFile = %q, %v; want \"he\"", data, err)
	}
}

func TestFailNthWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ff := New(nil, Plan{FailWriteAt: 2})
	f := openRW(t, ff, path)
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("bbbb"))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("write 2 = %v; want ErrInjected wrapping EIO", err)
	}
	if n != 0 {
		t.Fatalf("write 2 wrote %d bytes; want 0 (no ShortWrite)", n)
	}
	if _, err := f.Write([]byte("cccc")); err != nil {
		t.Fatalf("write 3: %v (only the Nth write fails)", err)
	}
	if st := ff.Stats(); st.Writes != 3 || st.BytesWritten != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShortWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ff := New(nil, Plan{FailWriteAt: 1, ShortWrite: true})
	f := openRW(t, ff, path)
	n, err := f.Write([]byte("abcdefgh"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v; want ErrInjected", err)
	}
	if n != 4 {
		t.Fatalf("short write kept %d bytes; want 4", n)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "abcd" {
		t.Fatalf("on disk: %q; want the torn prefix \"abcd\"", data)
	}
}

func TestByteBudgetENOSPC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ff := New(nil, Plan{ByteBudget: 10})
	f := openRW(t, ff, path)
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	n, err := f.Write([]byte("90abcdef"))
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v; want injected ENOSPC", err)
	}
	if n != 2 {
		t.Fatalf("fill write kept %d bytes; want 2 (budget filled exactly)", n)
	}
	// The disk stays full: later writes fail with zero bytes kept.
	if n, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) || n != 0 {
		t.Fatalf("post-full write = %d, %v; want 0, ENOSPC", n, err)
	}
}

func TestFailSyncAndTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ff := New(nil, Plan{FailSyncAt: 1, FailTruncate: true})
	f := openRW(t, ff, path)
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1 = %v; want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2 = %v; only the Nth sync fails", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("truncate = %v; want ErrInjected (FailTruncate)", err)
	}
}

func TestFailOpen(t *testing.T) {
	dir := t.TempDir()
	ff := New(nil, Plan{FailOpenAt: 2, OpenErr: syscall.EACCES})
	if _, err := ff.OpenFile(filepath.Join(dir, "a"), os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		t.Fatalf("open 1: %v", err)
	}
	_, err := ff.Open(filepath.Join(dir, "a"))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EACCES) {
		t.Fatalf("open 2 = %v; want injected EACCES", err)
	}
}

// Stats returns a snapshot of the counters.
func (ff *Faulty) Stats() Stats {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	return ff.st
}
