// Package resilience supplies the failure-handling primitives long-running
// explorations need: a retry policy with exponential backoff and jitter, a
// transient/permanent error classification, and a circuit breaker that
// stops re-attempting a failure class once it has proven deterministic.
//
// The package is deliberately mechanism-only: it does not know about
// machines, sweeps, or stores. Package explore composes these primitives
// around its per-variant evaluation — the one evaluation retry loop.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"skope/internal/guard"
)

// ErrAttemptTimeout marks an attempt that exceeded its per-attempt
// deadline (e.g. the explore engine's VariantTimeout). Unlike the parent
// context's deadline, an attempt timeout is transient by default: a
// variant that timed out under load may well finish on retry.
var ErrAttemptTimeout = errors.New("attempt deadline exceeded")

// permanentError marks an error the default classifier must never retry:
// the caller has determined the failure is deterministic (a validation
// rejection, a malformed input) and re-running the exact same computation
// cannot change the outcome.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so IsPermanent reports true and the default
// classifier refuses to retry it. A nil err stays nil.
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

// Retryable is the default transient/permanent classification:
//
//   - errors marked with Permanent are never retried;
//   - context.Canceled is never retried — cancellation is a caller
//     decision, not a fault;
//   - context.DeadlineExceeded is retried only when it is an attempt-level
//     timeout (ErrAttemptTimeout on the chain), never when the sweep-level
//     context expired;
//   - guard.ErrLimit is never retried — a resource-limit rejection is a
//     deterministic property of the input and the configured limits, so
//     re-running the identical computation burns the retry budget for
//     nothing;
//   - everything else (recovered panics, I/O hiccups, injected faults) is
//     presumed transient and retried.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case IsPermanent(err):
		return false
	case errors.Is(err, context.Canceled):
		return false
	case errors.Is(err, ErrAttemptTimeout):
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, guard.ErrLimit):
		return false
	}
	return true
}

// Policy is a retry policy: up to MaxAttempts attempts with exponential
// backoff and jitter between them. The zero value retries nothing (one
// attempt, no delay); DefaultPolicy returns sensible defaults.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Values < 1 mean one attempt (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 5ms when
	// retries are enabled and no value is set).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay between consecutive retries (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2,
	// clamped to [0,1]) so synchronized workers do not retry in lockstep.
	Jitter float64
	// Classify overrides the transient/permanent decision (default
	// Retryable).
	Classify func(error) bool
	// Sleep overrides the inter-attempt wait — a test hook. It must honor
	// ctx. The default waits d or returns early with ctx's error.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultPolicy returns the policy cmd/skope uses for -retries n: n+1
// total attempts, 5ms base delay doubling up to 2s, 20% jitter.
func DefaultPolicy(retries int) Policy {
	return Policy{MaxAttempts: retries + 1}
}

// jitterRand is the package's locked randomness for backoff jitter; retry
// scheduling does not need reproducibility, it needs decorrelation.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func jitterFloat() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRand.Float64()
}

// Backoff returns the delay before retry number retry (1-based: the wait
// after the first failed attempt is Backoff(1)), jittered.
func (p Policy) Backoff(retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(base)
	for i := 1; i < retry; i++ {
		d *= mult
		if d >= float64(max) {
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	jit := p.Jitter
	if jit == 0 {
		jit = 0.2
	}
	if jit < 0 {
		jit = 0
	}
	if jit > 1 {
		jit = 1
	}
	// Scale by a factor uniform in [1-jit, 1+jit].
	d *= 1 - jit + 2*jit*jitterFloat()
	return time.Duration(d)
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p Policy) classify(err error) bool {
	if p.Classify != nil {
		return p.Classify(err)
	}
	return Retryable(err)
}

// Do runs attempt up to MaxAttempts times, backing off between failures.
// attempt receives the 1-based attempt number. Do returns the number of
// attempts made and the last error (nil on success). It stops early when
// the error classifies as permanent, when ctx is done (the context error
// joins the attempt's error so both stay visible to errors.Is), or when
// the budget is exhausted.
func (p Policy) Do(ctx context.Context, attempt func(n int) error) (attempts int, err error) {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	for n := 1; ; n++ {
		err = attempt(n)
		attempts = n
		if err == nil || n >= max || !p.classify(err) {
			return attempts, err
		}
		if serr := p.sleep(ctx, p.Backoff(n)); serr != nil {
			return attempts, fmt.Errorf("retry aborted after attempt %d: %w", n, errors.Join(serr, err))
		}
	}
}
