// Package guard is the pipeline-wide resource-governance and
// fault-isolation layer. Every stage that consumes untrusted input — the
// expression, skeleton and minilang parsers, BET construction, the
// simulator — enforces the caps defined here and reports violations as
// typed errors (ErrLimit) instead of exhausting the stack or the heap.
// Worker boundaries (pipeline, explore) convert panics into per-item
// errors through Recover, so one poisoned variant never kills a sweep, and
// degraded or suspicious results travel as structured Diagnostics instead
// of silent garbage.
//
// The package also hosts the fault-injection test harness: named
// FaultPoints that production code calls via Hit (a no-op unless a test
// armed them with Arm), letting tests prove each isolation boundary holds.
package guard

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ErrLimit marks every resource-limit violation. Wrap-aware:
// errors.Is(err, guard.ErrLimit) identifies a rejected input regardless of
// which stage enforced the cap.
var ErrLimit = errors.New("resource limit exceeded")

// LimitError reports one exceeded cap: which limit, the offending value,
// and the configured maximum.
type LimitError struct {
	// What names the limit ("source bytes", "expression depth", ...).
	What string
	// Value is the observed quantity; Max the configured cap.
	Value, Max int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("guard: %s %d exceeds limit %d", e.What, e.Value, e.Max)
}

// Unwrap ties every LimitError to the ErrLimit sentinel.
func (e *LimitError) Unwrap() error { return ErrLimit }

// Exceeded builds the canonical limit-violation error.
func Exceeded(what string, value, max int) error {
	return &LimitError{What: what, Value: value, Max: max}
}

// Limits caps the resources one input may consume across the pipeline.
// The zero value means "no explicit configuration"; use Default for the
// standard caps. A nil *Limits is everywhere treated as Default, so
// callers that do not care simply pass nil.
type Limits struct {
	// MaxSourceBytes caps the size of one source text (minilang,
	// skeleton, or machine description).
	MaxSourceBytes int
	// MaxTokens caps the lexical token count of one minilang source.
	MaxTokens int
	// MaxExprDepth caps expression-AST nesting (parser recursion).
	MaxExprDepth int
	// MaxNestDepth caps statement-block nesting (loops/branches/defs).
	MaxNestDepth int
	// MaxBETNodes caps the size of one Bayesian Execution Tree.
	MaxBETNodes int
	// MaxContexts caps simultaneously live contexts per BET statement.
	MaxContexts int
}

// Default returns the standard caps. They are far above anything the five
// workloads need (guards must not perturb legitimate analyses) while
// keeping adversarial inputs bounded.
func Default() *Limits {
	return &Limits{
		MaxSourceBytes: 4 << 20, // 4 MiB of source text
		MaxTokens:      1 << 20, // ~1M tokens
		MaxExprDepth:   200,     // expression nesting
		MaxNestDepth:   100,     // statement-block nesting
		MaxBETNodes:    1 << 20, // matches core's historical default
		MaxContexts:    256,     // matches core's historical default
	}
}

// Or returns l, or Default when l is nil.
func (l *Limits) Or() *Limits {
	if l == nil {
		return Default()
	}
	return l
}

// CheckSource verifies a source text size against MaxSourceBytes.
func (l *Limits) CheckSource(n int) error {
	if lim := l.Or(); n > lim.MaxSourceBytes {
		return Exceeded("source bytes", n, lim.MaxSourceBytes)
	}
	return nil
}

// CheckTokens verifies a token count against MaxTokens.
func (l *Limits) CheckTokens(n int) error {
	if lim := l.Or(); n > lim.MaxTokens {
		return Exceeded("lexical tokens", n, lim.MaxTokens)
	}
	return nil
}

// CheckExprDepth verifies expression nesting against MaxExprDepth.
func (l *Limits) CheckExprDepth(n int) error {
	if lim := l.Or(); n > lim.MaxExprDepth {
		return Exceeded("expression depth", n, lim.MaxExprDepth)
	}
	return nil
}

// CheckNestDepth verifies block nesting against MaxNestDepth.
func (l *Limits) CheckNestDepth(n int) error {
	if lim := l.Or(); n > lim.MaxNestDepth {
		return Exceeded("nesting depth", n, lim.MaxNestDepth)
	}
	return nil
}

// limitFields maps CLI keys to Limits fields, in presentation order.
var limitFields = []struct {
	key  string
	get  func(*Limits) *int
	help string
}{
	{"source-bytes", func(l *Limits) *int { return &l.MaxSourceBytes }, "max source text size in bytes"},
	{"tokens", func(l *Limits) *int { return &l.MaxTokens }, "max lexical tokens per source"},
	{"expr-depth", func(l *Limits) *int { return &l.MaxExprDepth }, "max expression nesting depth"},
	{"nest-depth", func(l *Limits) *int { return &l.MaxNestDepth }, "max statement-block nesting depth"},
	{"bet-nodes", func(l *Limits) *int { return &l.MaxBETNodes }, "max Bayesian Execution Tree nodes"},
	{"contexts", func(l *Limits) *int { return &l.MaxContexts }, "max live contexts per BET statement"},
}

// ParseLimits parses a comma-separated key=value override list (e.g.
// "expr-depth=64,bet-nodes=100000") on top of the defaults. Keys are the
// ones Help lists; every value must be a positive integer.
func ParseLimits(spec string) (*Limits, error) {
	l := Default()
	if strings.TrimSpace(spec) == "" {
		return l, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("guard: limit %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("guard: limit %s needs a positive integer, got %q", key, val)
		}
		found := false
		for _, f := range limitFields {
			if f.key == key {
				*f.get(l) = n
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("guard: unknown limit %q (known: %s)", key, strings.Join(LimitKeys(), ", "))
		}
	}
	return l, nil
}

// LimitKeys returns the ParseLimits keys in presentation order.
func LimitKeys() []string {
	out := make([]string, len(limitFields))
	for i, f := range limitFields {
		out[i] = f.key
	}
	return out
}

// Help returns one usage line per limit key, for CLI -list output.
func Help() []string {
	def := Default()
	out := make([]string, len(limitFields))
	for i, f := range limitFields {
		out[i] = fmt.Sprintf("%-14s %s (default %d)", f.key, f.help, *f.get(def))
	}
	return out
}

// String renders the limits as a ParseLimits-compatible spec.
func (l *Limits) String() string {
	lim := l.Or()
	parts := make([]string, len(limitFields))
	for i, f := range limitFields {
		parts[i] = fmt.Sprintf("%s=%d", f.key, *f.get(lim))
	}
	return strings.Join(parts, ",")
}

// Severity grades a Diagnostic. SevWarn (the zero value, so existing
// construction sites stay warnings) marks a substituted or suspect value
// the pipeline papered over; SevError marks content that was lost — a
// statement the lenient parser had to drop or replace with a hole.
type Severity int

const (
	// SevWarn marks degraded-but-present content (prior substitutions,
	// non-finite projections).
	SevWarn Severity = iota
	// SevError marks lost content (unparseable statements, holes).
	SevError
)

// String renders the conventional lowercase severity label.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is a structured, non-fatal warning attached to an analysis
// result: the computation completed, but part of it is degraded or
// numerically suspect. Diagnostics never alter the floating-point results
// they describe; they only make degradation visible.
type Diagnostic struct {
	// Severity grades the degradation (SevWarn or SevError).
	Severity Severity
	// Stage names the producing pipeline stage ("translate", "roofline",
	// "hotspot", ...).
	Stage string
	// Code is a stable machine-readable identifier ("missing-profile",
	// "non-finite-time", ...).
	Code string
	// BlockID attributes the warning to a source block, when one applies.
	BlockID string
	// Message is the human-readable explanation.
	Message string
}

// String renders "stage/code [block]: message".
func (d Diagnostic) String() string {
	if d.BlockID != "" {
		return fmt.Sprintf("%s/%s [%s]: %s", d.Stage, d.Code, d.BlockID, d.Message)
	}
	return fmt.Sprintf("%s/%s: %s", d.Stage, d.Code, d.Message)
}

// SortDiagnostics orders diagnostics deterministically (stage, code,
// block, message) for stable reports and goldens.
func SortDiagnostics(ds []Diagnostic) {
	slices.SortStableFunc(ds, func(a, b Diagnostic) int {
		if c := strings.Compare(a.Stage, b.Stage); c != 0 {
			return c
		}
		if c := strings.Compare(a.Code, b.Code); c != 0 {
			return c
		}
		if c := strings.Compare(a.BlockID, b.BlockID); c != 0 {
			return c
		}
		return strings.Compare(a.Message, b.Message)
	})
}
