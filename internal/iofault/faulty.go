package iofault

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
)

// ErrInjected marks every error a Faulty FS manufactures, so tests can
// tell an injected fault from a real one with errors.Is. Injected errors
// also wrap their OS-level cause (syscall.EIO, syscall.ENOSPC, or the
// error the Plan names), so code that classifies by errno sees exactly
// what a real disk would have produced.
var ErrInjected = errors.New("iofault: injected fault")

// Plan scripts a Faulty FS. Counters are 1-based and global across every
// file the FS has opened — "fail the 3rd write" means the 3rd write
// issued through this FS, wherever it lands — which keeps fault timing
// deterministic for a single-threaded writer like the journal. Zero
// values mean "never fail".
type Plan struct {
	// FailWriteAt fails the Nth Write with WriteErr (default EIO).
	FailWriteAt int
	// ShortWrite makes the failing write a torn one: roughly half the
	// bytes reach the file before the error — the footprint of a crash
	// or I/O error mid-frame.
	ShortWrite bool
	WriteErr   error

	// FailSyncAt fails the Nth Sync with SyncErr (default EIO). The
	// preceding Write succeeds, so the bytes are in the page cache but
	// never acknowledged durable — the fsyncgate shape.
	FailSyncAt int
	SyncErr    error

	// FailOpenAt fails the Nth Open/OpenFile with OpenErr (default EIO).
	FailOpenAt int
	OpenErr    error

	// FailTruncate fails every Truncate — blocking, e.g., the journal's
	// post-failure rollback so the torn frame stays on disk.
	FailTruncate bool

	// ByteBudget is the disk's remaining capacity: once cumulative bytes
	// written reach it, writes fill the budget exactly and then fail with
	// ENOSPC. 0 means unlimited.
	ByteBudget int64
}

// Stats counts what flowed through a Faulty FS.
type Stats struct {
	Opens, Writes, Syncs int
	BytesWritten         int64
}

// Faulty wraps a base FS (nil = Disk) and delivers the Plan's faults at
// their scripted points. Safe for concurrent use; the shared counters
// make concurrent fault timing first-come-first-served.
type Faulty struct {
	base FS

	mu   sync.Mutex
	plan Plan
	st   Stats
}

// New returns a Faulty FS over base executing plan.
func New(base FS, plan Plan) *Faulty {
	if base == nil {
		base = Disk
	}
	return &Faulty{base: base, plan: plan}
}

// injected manufactures one fault error: ErrInjected wrapping the
// OS-level cause so both errors.Is checks hold.
func injected(op string, cause, dflt error) error {
	if cause == nil {
		cause = dflt
	}
	return fmt.Errorf("%w: %s: %w", ErrInjected, op, cause)
}

func (ff *Faulty) open(name string, real func() (File, error)) (File, error) {
	ff.mu.Lock()
	ff.st.Opens++
	if ff.plan.FailOpenAt > 0 && ff.st.Opens == ff.plan.FailOpenAt {
		ff.mu.Unlock()
		return nil, injected("open "+name, ff.plan.OpenErr, syscall.EIO)
	}
	ff.mu.Unlock()
	f, err := real()
	if err != nil {
		return nil, err
	}
	return &faultyFile{fs: ff, f: f}, nil
}

func (ff *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return ff.open(name, func() (File, error) { return ff.base.OpenFile(name, flag, perm) })
}

func (ff *Faulty) Open(name string) (File, error) {
	return ff.open(name, func() (File, error) { return ff.base.Open(name) })
}

// faultyFile intercepts the mutating operations; reads and seeks pass
// through untouched.
type faultyFile struct {
	fs *Faulty
	f  File
}

func (f *faultyFile) Read(p []byte) (int, error)                { return f.f.Read(p) }
func (f *faultyFile) Seek(off int64, whence int) (int64, error) { return f.f.Seek(off, whence) }
func (f *faultyFile) Close() error                              { return f.f.Close() }

func (f *faultyFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.st.Writes++
	plan := &f.fs.plan

	// A scripted write fault or an exhausted byte budget turns this write
	// into a partial (possibly empty) one followed by the fault error.
	var ferr error
	keep := 0
	switch {
	case plan.FailWriteAt > 0 && f.fs.st.Writes == plan.FailWriteAt:
		ferr = injected("write", plan.WriteErr, syscall.EIO)
		if plan.ShortWrite {
			keep = len(p) / 2
		}
	case plan.ByteBudget > 0 && f.fs.st.BytesWritten+int64(len(p)) > plan.ByteBudget:
		ferr = injected("write", nil, syscall.ENOSPC)
		if keep = int(plan.ByteBudget - f.fs.st.BytesWritten); keep < 0 {
			keep = 0
		}
	}
	if ferr != nil {
		n := 0
		if keep > 0 {
			n, _ = f.f.Write(p[:keep])
		}
		f.fs.st.BytesWritten += int64(n)
		return n, ferr
	}
	n, err := f.f.Write(p)
	f.fs.st.BytesWritten += int64(n)
	return n, err
}

func (f *faultyFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.st.Syncs++
	if f.fs.plan.FailSyncAt > 0 && f.fs.st.Syncs == f.fs.plan.FailSyncAt {
		f.fs.mu.Unlock()
		return injected("fsync", f.fs.plan.SyncErr, syscall.EIO)
	}
	f.fs.mu.Unlock()
	return f.f.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	if f.fs.plan.FailTruncate {
		f.fs.mu.Unlock()
		return injected("truncate", nil, syscall.EIO)
	}
	f.fs.mu.Unlock()
	return f.f.Truncate(size)
}
