// Package iofault is the file-I/O seam under skope's durability layers.
// The journal (and with it the content-addressed store) opens its files
// through the FS interface; production code passes Disk, a zero-cost
// passthrough to the os package, and tests pass a Faulty FS scripted to
// fail the Nth write, fail an fsync, short-write a frame and then error,
// run out of disk after a byte budget, or refuse an open outright.
//
// The point is falsifiability: "fsync failure degrades the sweep without
// voiding results", "a torn write recovers cleanly on reopen", and
// "ENOSPC mid-sweep loses only the suffix" are durability claims that had
// only ever been exercised by SIGKILL. With a deterministic fault plan
// the disk itself can fail on cue, and each claim becomes an assertion.
package iofault

import (
	"io"
	"os"
)

// File is the slice of *os.File the journal actually uses. Anything that
// can read, write, seek, truncate, fsync, and close can back a journal.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	// Truncate cuts the file to size bytes (torn-tail removal, rollback).
	Truncate(size int64) error
	// Sync flushes to stable storage — the durability point of every
	// journal append.
	Sync() error
	Close() error
}

// FS opens files. Two entry points mirror the journal's two access
// patterns: OpenFile for the owning read-write handle (journal.Open),
// Open for read-only walks (journal.Scan).
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
}

// osFS is the passthrough implementation.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

// Disk is the production FS: the real filesystem, no interception.
var Disk FS = osFS{}
