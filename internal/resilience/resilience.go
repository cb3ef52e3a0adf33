// Package resilience is the explore engine's retry budget: a Policy of
// up to MaxAttempts immediate attempts, the Permanent mark for a failure
// that re-running cannot change, and Do, the one loop that applies both.
//
// An evaluation is a pure function of its layout and machine, with no I/O
// and no context, so Do neither waits between attempts nor bounds them in
// time.
package resilience

import (
	"errors"

	"skope/internal/guard"
)

// permanentError marks an error Do must never retry: the caller has
// determined the failure is deterministic (a validation rejection, a
// malformed input) and re-running the exact same computation cannot change
// the outcome.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so IsPermanent reports true and Do does not retry
// it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (anywhere on its chain) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Retryable reports whether Do may re-attempt err: any failure except one
// marked Permanent or a resource-limit rejection (guard.ErrLimit), which
// is a deterministic property of the input and the configured limits.
func Retryable(err error) bool {
	return err != nil && !IsPermanent(err) && !errors.Is(err, guard.ErrLimit)
}

// Policy is a retry budget. The zero value retries nothing.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Values < 1 mean one attempt (no retry).
	MaxAttempts int
}

// DefaultPolicy returns the policy for -retries n: n+1 total attempts.
func DefaultPolicy(retries int) Policy {
	return Policy{MaxAttempts: retries + 1}
}

// Do calls attempt up to MaxAttempts times, each right after the last,
// and stops at the first success or at an error Retryable refuses. It
// returns the number of attempts made and the last error (nil on success).
func (p Policy) Do(attempt func() error) (attempts int, err error) {
	for attempts = 1; ; attempts++ {
		if err = attempt(); attempts >= p.MaxAttempts || !Retryable(err) {
			return attempts, err
		}
	}
}
