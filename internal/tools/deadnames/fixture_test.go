package deadnames

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckerOnFixture runs the check on testdata/fixture, a module with
// one case of each rule and a second "bench" module that uses it: exactly
// the test-only name, the unused name, the write-only field and the stale
// allowlist entry are flagged; a String and an Error method, a map key's
// fields, a name only the second module uses and a live allowlist entry
// are not. An entry naming no declaration is flagged too.
func TestCheckerOnFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := load(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	got := check(prog, map[string]string{
		"fixture/lib.Seam": "live: only tests call it",
		"fixture/lib.Used": "stale: main calls it",
	})
	want := []string{
		"lib/lib.go:7: func fixture/lib.TestOnly has no user outside tests",
		"lib/lib.go:10: func fixture/lib.Unused has no user outside tests",
		"lib/lib.go:33: field fixture/lib.Counter.hits is never read outside tests",
		"allowlist: fixture/lib.Used is used outside tests; drop its entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	got = check(prog, map[string]string{"fixture/lib.Gone": "missing"})
	if last := got[len(got)-1]; last != "allowlist: fixture/lib.Gone is not declared" {
		t.Errorf("entry naming no declaration: last finding %q", last)
	}
}
