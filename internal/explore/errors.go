package explore

import (
	"errors"
	"fmt"
	"strings"

	"skope/internal/hw"
)

// ErrLowConfidence marks a variant whose assembled analysis scored below
// the engine's MinConfidence floor: the projection completed, but too much
// of it rests on fallback priors, recovered parses, or non-finite
// arithmetic to rank alongside trustworthy variants. The variant comes
// back as a *VariantError wrapping this sentinel, never as an analysis.
var ErrLowConfidence = errors.New("analysis confidence below floor")

// VariantError attributes one failed variant of a sweep: which input index,
// which machine, and why. The cause stays on the %w chain, so
// errors.Is(err, guard.ErrPanic) and errors.Is(err, guard.ErrLimit) see
// through it.
type VariantError struct {
	// Index is the variant's position in the input slice.
	Index int
	// Machine is the variant that failed.
	Machine *hw.Machine
	// MachineName and Fingerprint identify the variant independently of
	// the (possibly re-generated) input slice: the name for humans, the
	// fingerprint as the durable identity the result store keys on —
	// together they make a degraded-sweep report actionable without the
	// original grid in hand.
	MachineName string
	Fingerprint string
	// Attempts is how many evaluation attempts the variant consumed
	// (1 without a retry policy; 0 for failures that never evaluated,
	// such as a store hit below the confidence floor).
	Attempts int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *VariantError) Error() string {
	name := e.MachineName
	if name == "" && e.Machine != nil {
		name = e.Machine.Name
	}
	msg := fmt.Sprintf("explore: variant %d (%s", e.Index, name)
	if e.Fingerprint != "" {
		msg += " fp=" + e.Fingerprint
	}
	if e.Attempts > 1 {
		msg += fmt.Sprintf(", %d attempts", e.Attempts)
	}
	return fmt.Sprintf("%s): %v", msg, e.Err)
}

// Unwrap exposes the cause.
func (e *VariantError) Unwrap() error { return e.Err }

// SweepError aggregates every variant failure of one sweep. The sweep
// itself completed: every healthy variant produced its analysis; only the
// listed variants are missing. Unwrap exposes each *VariantError, so
// errors.Is/As reach the individual causes.
type SweepError struct {
	// Variants lists the failures in input-index order.
	Variants []*VariantError
}

// Error implements error, naming every failed variant.
func (e *SweepError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "explore: %d of the sweep's variants failed:", len(e.Variants))
	for _, v := range e.Variants {
		sb.WriteString("\n\t")
		sb.WriteString(v.Error())
	}
	return sb.String()
}

// Unwrap exposes the individual variant errors.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Variants))
	for i, v := range e.Variants {
		errs[i] = v
	}
	return errs
}
