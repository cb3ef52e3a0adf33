package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"skope/internal/workloads"
)

var updateResults = flag.Bool("update", false, "rewrite ../../results.txt")

// resultsPath is the committed report skopebench writes at the default
// scale.
const resultsPath = "../../results.txt"

// TestRunFullReport drives the entire evaluation once and requires the
// report to match the committed results.txt byte for byte. This is the
// repository's broadest integration test (all five benchmarks, both
// machines, every artifact): the interpreter alone feeds both the branch
// profiles behind the model's columns and the simulator behind the
// measured ones. Regenerate deliberately with:
//
//	go test ./cmd/skopebench/ -run TestRunFullReport -update
func TestRunFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, workloads.ScaleTest); err != nil {
		t.Fatal(err)
	}
	if *updateResults {
		if err := os.WriteFile(resultsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", resultsPath)
		return
	}
	want, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if msg := firstDifference(string(want), buf.String()); msg != "" {
		t.Errorf("report differs from %s (regenerate with -update): %s", resultsPath, msg)
	}
}

// firstDifference describes the first line where got departs from want,
// with the title of the report section holding it; "" if they are equal.
func firstDifference(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	section := "(none)"
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "<end of report>", "<end of report>"
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(w, "==================== ") {
			section = strings.Trim(w, "= ")
		}
		if w != g {
			return fmt.Sprintf("first difference in section %q, line %d\nwant: %s\ngot:  %s", section, i+1, w, g)
		}
	}
	return ""
}
