package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"skope/internal/guard"
	"skope/internal/hw"
	"skope/internal/minilang"
)

// longProg is a workload large enough to cross many interpreter
// context-check intervals (the engine polls ctx every 1024 steps).
const longProg = `
global n: int = 200000;
func main() {
  var s: float = 0.0;
  for i = 0 .. n {
    s = s + 1.0;
  }
}
`

func TestRunPreCanceledContext(t *testing.T) {
	prog := mustProgram("cancel", longProg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, prog, hw.BGQ(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want wrapped context.Canceled", err)
	}
	if res != nil {
		t.Error("partial result returned from canceled run")
	}
}

// TestRunCancelMidRun cancels the context from inside the interpreter's
// step-budget check (via the interp.step fault point) and verifies the
// simulation stops promptly, discards partial results, and reports the
// cancellation through the %w chain.
func TestRunCancelMidRun(t *testing.T) {
	prog := mustProgram("cancel", longProg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hits := 0
	disarm := guard.Arm("interp.step", func(string) {
		hits++
		if hits == 2 { // let the run make real progress first
			cancel()
		}
	})
	t.Cleanup(disarm)
	start := time.Now()
	res, err := Run(ctx, prog, hw.BGQ(), nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled run took %v to stop", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want wrapped context.Canceled", err)
	}
	if res != nil {
		t.Error("partial result returned from canceled run")
	}
	if hits < 2 {
		t.Errorf("fault point hit %d times; cancellation did not happen mid-run", hits)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	prog := mustProgram("cancel", longProg)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := Run(ctx, prog, hw.BGQ(), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestRunPanicIsolated proves the sim.run boundary converts a panic into an
// attributed error instead of crashing the caller.
func TestRunPanicIsolated(t *testing.T) {
	prog := mustProgram("poison", "func main() {}")
	disarm := guard.Arm("sim.run", func(string) { panic("injected fault") })
	t.Cleanup(disarm)
	res, err := Run(context.Background(), prog, hw.BGQ(), nil)
	if !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("Run = %v, want wrapped guard.ErrPanic", err)
	}
	if res != nil {
		t.Error("result returned alongside recovered panic")
	}
}

// mustProgram parses and checks a minilang program, panicking on error.
func mustProgram(name, src string) *minilang.Program {
	prog, err := minilang.Parse(name, src)
	if err == nil {
		err = minilang.Check(prog)
	}
	if err != nil {
		panic(err)
	}
	return prog
}
