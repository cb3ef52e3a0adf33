package explore

import (
	"fmt"

	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/store"
)

// This file connects the engine to the content-addressed result store
// (internal/store). The store is shared state: keyed by (layout, machine,
// mode) fingerprints, it serves any sweep of any workload that hashes to
// the same identity, across sessions, processes and crashes. A worker
// looks each variant up in the store and computes only on a miss; every
// fresh evaluation is written through (best-effort, sticky failure), so a
// sweep killed mid-run and run again is served every variant it finished.

// CAS attaches a content-addressed result store to the engine. mode is the
// evaluation-mode digest (store.ModeDigest) under which this engine's
// results are addressed — the caller owns folding its criteria, lenient
// flag, and confidence floor into it. The store is consulted before any
// computation; hits are grafted onto the engine's layout, so they carry
// Node links like freshly computed analyses.
// The store is owned by the caller (Close it after the sweep).
func CAS(s *store.Store, mode string) Option {
	return func(e *Engine) {
		e.cas = s
		e.casMode = mode
	}
}

// casGet looks the variant up in the attached store. A hit is grafted onto
// the engine's layout; a record that fails to decode or graft (version
// skew, fingerprint collision) is treated as a miss and recorded as the
// sticky store error rather than failing the variant.
func (e *Engine) casGet(m *hw.Machine) (*hotspot.Analysis, bool) {
	if e.cas == nil {
		return nil, false
	}
	a, ok, err := e.cas.GetEval(e.layout.Fingerprint(), m.Fingerprint(), e.casMode)
	if err == nil && ok {
		err = e.layout.Graft(a)
	}
	if err != nil {
		e.casFail(err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	return a, true
}

// casPut writes one completed variant through to the store. A write
// failure never fails the variant: it disables further store writes and
// surfaces once from the sweep's wait error.
func (e *Engine) casPut(m *hw.Machine, a *hotspot.Analysis) {
	if e.cas == nil {
		return
	}
	e.mu.Lock()
	broken := e.casErr != nil
	e.mu.Unlock()
	if broken {
		return
	}
	if err := e.cas.PutEval(e.layout.Fingerprint(), m.Fingerprint(), e.casMode, a); err != nil {
		e.casFail(err)
	}
}

// casFail records the first store failure; the sweep continues uncached.
func (e *Engine) casFail(err error) {
	e.mu.Lock()
	if e.casErr == nil {
		e.casErr = fmt.Errorf("explore: %w: store disabled after failure (sweep continues uncached): %w",
			store.ErrDegraded, err)
	}
	e.mu.Unlock()
}

// casError returns the sticky store failure, if any.
func (e *Engine) casError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.casErr
}
