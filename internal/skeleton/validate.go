package skeleton

import (
	"fmt"

	"skope/internal/guard"
)

// Validate performs semantic checks on a parsed program:
//
//   - every called function is defined with a matching arity,
//   - break/continue appear only inside loops,
//   - the call graph contains no recursion (the BET construction inlines
//     callee trees, so recursion would not terminate; the paper targets
//     scientific array codes where this holds),
//   - entry ("main" by default) exists.
func Validate(p *Program) error {
	return ValidateEntry(p, "main")
}

// ValidateEntry is Validate with a configurable entry function name. It
// runs the same checks as ValidateLenient and returns the first failure.
func ValidateEntry(p *Program, entry string) error {
	findings, err := validate(p, entry)
	if len(findings) > 0 {
		return findings[0]
	}
	return err
}

// ValidateLenient runs the same checks as ValidateEntry but demotes
// recoverable findings — undefined callees, arity mismatches, misplaced
// break/continue — to diagnostics, because the lenient model build has a
// per-site fallback for each of them. Two conditions stay hard errors
// regardless of mode: a missing entry function (nothing to model) and
// recursion (BET construction inlines callees, so recursion would not
// terminate; it is a resource guard, not a degradation).
func ValidateLenient(p *Program, entry string) ([]guard.Diagnostic, error) {
	findings, err := validate(p, entry)
	var diags []guard.Diagnostic
	for _, f := range findings {
		diags = append(diags, guard.Diagnostic{
			Severity: guard.SevWarn, Stage: "validate", Code: "semantic",
			Message: f.Error(),
		})
	}
	return diags, err
}

// validate is the one validation pass: it checks the entry function,
// collects every recoverable finding in source order, then checks for
// recursion. err is a missing entry (with no findings) or recursion.
func validate(p *Program, entry string) (findings []error, err error) {
	if _, err := p.Func(entry); err != nil {
		return nil, err
	}
	for _, f := range p.Funcs {
		findings = bodyFindings(p, f.Body, 0, findings)
	}
	return findings, checkRecursion(p, entry)
}

// bodyFindings appends every recoverable finding in body to acc.
func bodyFindings(p *Program, body []Stmt, loopDepth int, acc []error) []error {
	for _, s := range body {
		switch t := s.(type) {
		case *Call:
			callee, ok := p.ByName[t.Func]
			if !ok {
				acc = append(acc, fmt.Errorf("%s:%d: call to undefined function %q", p.Source, t.Pos(), t.Func))
			} else if len(t.Args) != len(callee.Params) {
				acc = append(acc, fmt.Errorf("%s:%d: call to %q with %d args, want %d",
					p.Source, t.Pos(), t.Func, len(t.Args), len(callee.Params)))
			}
		case *Break:
			if loopDepth == 0 {
				acc = append(acc, fmt.Errorf("%s:%d: break outside loop", p.Source, t.Pos()))
			}
		case *Continue:
			if loopDepth == 0 {
				acc = append(acc, fmt.Errorf("%s:%d: continue outside loop", p.Source, t.Pos()))
			}
		case *Loop:
			acc = bodyFindings(p, t.Body, loopDepth+1, acc)
		case *While:
			acc = bodyFindings(p, t.Body, loopDepth+1, acc)
		case *If:
			for _, c := range t.Cases {
				acc = bodyFindings(p, c.Body, loopDepth, acc)
			}
			acc = bodyFindings(p, t.Else, loopDepth, acc)
		}
	}
	return acc
}

// checkRecursion DFS-colors the call graph from entry and reports a cycle.
func checkRecursion(p *Program, entry string) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("%s: recursive call cycle: %v -> %s", p.Source, path, name)
		case black:
			return nil
		}
		color[name] = gray
		f := p.ByName[name]
		if f != nil {
			for _, callee := range calledFuncs(f.Body, nil) {
				if err := visit(callee, append(path, name)); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	return visit(entry, nil)
}

func calledFuncs(body []Stmt, acc []string) []string {
	for _, s := range body {
		switch t := s.(type) {
		case *Call:
			acc = append(acc, t.Func)
		case *Loop:
			acc = calledFuncs(t.Body, acc)
		case *While:
			acc = calledFuncs(t.Body, acc)
		case *If:
			for _, c := range t.Cases {
				acc = calledFuncs(c.Body, acc)
			}
			acc = calledFuncs(t.Else, acc)
		}
	}
	return acc
}
