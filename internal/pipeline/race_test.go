//go:build race

package pipeline

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation makes allocation counts vary from run to run.
const raceEnabled = true
