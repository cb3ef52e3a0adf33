package deadnames

import (
	"path/filepath"
	"testing"
)

// allowlist holds the names only tests use that still belong in
// production files, each with the reason. Every one is a seam that tests
// of other packages reach through; a name its own package's tests alone
// use moves into those tests instead. An entry naming a used or missing
// name fails the check, so the list cannot go stale.
var allowlist = map[string]string{
	"skope/internal/guard.Arm":             "arms the fault points the chaos suites of explore, pipeline, core, interp, sim, skope and skoped inject through",
	"skope/internal/iofault.New":           "builds the scripted faulty disk the journal, store and pipeline chaos-disk suites run on",
	"skope/internal/pipeline.WithProfile":  "hands Prepare a corrupted profile for the degraded golden (TestGoldenMissingBranchProfile)",
	"skope/internal/store.Store.Recovered": "lets the store and pipeline chaos-disk suites see what the reopen recovered and whether it cut a torn tail",
	"skope/internal/minilang.Format":       "the round-trip oracle that workloads' TestWorkloadsFormatRoundTrip runs every benchmark through",
}

// TestEveryNameHasANonTestUser fails, naming file:line, on every
// top-level name, method and read-never struct field of the root module
// that no non-test file of the root module or of bench/ uses.
func TestEveryNameHasANonTestUser(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := load(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range check(prog, allowlist) {
		t.Error(f)
	}
}
