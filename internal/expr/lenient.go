package expr

import "fmt"

// Hole is a placeholder for an expression that could not be parsed. It
// keeps the surrounding statement structurally intact while refusing to
// produce a number: Eval always errors, so a strict model build fails
// loudly and a lenient build (core.Build with Options.Lenient) substitutes
// its documented prior and records the substitution as a diagnostic.
type Hole struct {
	// Text is the unparseable source fragment, for diagnostics.
	Text string
}

// Eval implements Expr. A hole never evaluates; the caller must decide
// what the missing value defaults to.
func (h Hole) Eval(Env) (float64, error) {
	return 0, fmt.Errorf("expr: unresolved hole %q", h.Text)
}

// Vars implements Expr. A hole binds nothing.
func (h Hole) Vars(map[string]bool) {}

// String renders the hole as an impossible call so it cannot be confused
// with a parseable expression.
func (h Hole) String() string { return "hole()" }
