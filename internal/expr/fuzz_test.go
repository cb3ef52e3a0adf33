package expr

import (
	"strings"
	"testing"
)

// FuzzExprParse checks that the expression parser never panics or
// overflows the stack: it either returns an Expr or a descriptive error
// (guard limits turn pathological nesting into guard.ErrLimit).
func FuzzExprParse(f *testing.F) {
	// Representative expressions from the five workloads' size arithmetic
	// and skeleton annotations.
	seeds := []string{
		"n",
		"9*m",
		"n*m*8",
		"5*m + 2",
		"(n - 1) * (m - 1)",
		"n^2 / 4",
		"max(n, m) * log2(n)",
		"sqrt(n*n + m*m)",
		"-n + +m - -1",
		"1e300 * 1e300",
		"n / 0",
		"f(g(h(x)))",
		"",
		"((((",
		"1 +",
		"n m",
		strings.Repeat("(", 512) + "1" + strings.Repeat(")", 512),
		strings.Repeat("-", 1024) + "x",
		strings.Repeat("1+", 4096) + "1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		// A parsed expression must survive the rest of its API.
		_ = e.String()
		_, _ = e.Eval(Env{"n": 4, "m": 8, "x": 1})
	})
}
