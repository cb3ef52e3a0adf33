package workloads

import (
	"testing"

	"skope/internal/interp"
	"skope/internal/minilang"
	"skope/internal/skeleton"
)

func TestAllParseCheckAndRun(t *testing.T) {
	for _, w := range All(ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := minilang.Parse(w.Name, w.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := minilang.Check(prog); err != nil {
				t.Fatalf("check: %v", err)
			}
			e, err := interp.New(prog, &interp.Options{Seed: w.Seed})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			if err := e.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if e.Steps() == 0 {
				t.Error("no statements executed")
			}
		})
	}
}

func TestNamesAndGet(t *testing.T) {
	if len(Names()) != 5 {
		t.Fatalf("names = %v", Names())
	}
	for _, n := range Names() {
		w, err := Get(n, ScaleTest)
		if err != nil || w.Name != n {
			t.Errorf("Get(%s) = %v, %v", n, w, err)
		}
	}
	if _, err := Get("hpl", ScaleTest); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestScaleGrowsWork(t *testing.T) {
	for _, name := range Names() {
		small, _ := Get(name, ScaleTest)
		big, _ := Get(name, 2)
		stepsSmall := runSteps(t, small)
		stepsBig := runSteps(t, big)
		if stepsBig <= stepsSmall {
			t.Errorf("%s: scale did not grow work: %d -> %d", name, stepsSmall, stepsBig)
		}
	}
}

func runSteps(t *testing.T, w *Workload) int64 {
	t.Helper()
	prog := mustProgram(w.Name, w.Source)
	e, err := interp.New(prog, &interp.Options{Seed: w.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e.Steps()
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	w := SRAD(ScaleTest)
	a := runSteps(t, w)
	b := runSteps(t, w)
	if a != b {
		t.Errorf("steps differ across runs: %d vs %d", a, b)
	}
}

func TestPedagogical(t *testing.T) {
	prog, env := Pedagogical()
	if err := skeleton.Validate(prog); err != nil {
		t.Fatal(err)
	}
	if env["n"] != 64 || env["m"] != 128 {
		t.Errorf("env = %v", env)
	}
}

func TestSTASSUIJHasVecLoop(t *testing.T) {
	w := STASSUIJ(ScaleTest)
	prog := mustProgram(w.Name, w.Source)
	found := false
	var scan func(b *minilang.Block)
	scan = func(b *minilang.Block) {
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *minilang.For:
				if st.Vec {
					found = true
				}
				scan(st.Body)
			case *minilang.While:
				scan(st.Body)
			case *minilang.If:
				scan(st.Then)
				if st.Else != nil {
					scan(st.Else)
				}
			}
		}
	}
	for _, f := range prog.Funcs {
		scan(f.Body)
	}
	if !found {
		t.Error("STASSUIJ lost its @vec annotation")
	}
}

func TestCFDHasDivisions(t *testing.T) {
	w := CFD(ScaleTest)
	prog := mustProgram(w.Name, w.Source)
	vel := prog.FuncByName["compute_velocity"]
	if vel == nil {
		t.Fatal("no compute_velocity in cfd")
	}
	segs := minilang.SegmentsOf("compute_velocity", vel.Body.Stmts[0].(*minilang.For).Body)
	if len(segs) == 0 {
		t.Fatal("no segments in compute_velocity")
	}
	c := minilang.CountSegment(&segs[0])
	if c.Divs < 2 {
		t.Errorf("velocity recovery has %d divisions, want >= 2", c.Divs)
	}
}

func TestSRADUsesLibFunctions(t *testing.T) {
	w := SRAD(ScaleTest)
	prog := mustProgram(w.Name, w.Source)
	libs := map[string]bool{}
	var scanBlock func(b *minilang.Block)
	scanBlock = func(b *minilang.Block) {
		for _, s := range b.Stmts {
			for _, seg := range minilang.SegmentsOf("x", &minilang.Block{Stmts: []minilang.Stmt{s}}) {
				c := minilang.CountSegment(&seg)
				for name := range c.Lib {
					libs[name] = true
				}
			}
			switch st := s.(type) {
			case *minilang.For:
				scanBlock(st.Body)
			case *minilang.While:
				scanBlock(st.Body)
			case *minilang.If:
				scanBlock(st.Then)
				if st.Else != nil {
					scanBlock(st.Else)
				}
			}
		}
	}
	for _, f := range prog.Funcs {
		scanBlock(f.Body)
	}
	for _, want := range []string{"exp", "rand", "log"} {
		if !libs[want] {
			t.Errorf("SRAD does not call %s", want)
		}
	}
}

// The five benchmarks must round-trip through the minilang formatter and
// execute identically afterwards (same statement count and rand stream).
func TestWorkloadsFormatRoundTrip(t *testing.T) {
	for _, w := range All(ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p1 := mustProgram(w.Name, w.Source)
			text := minilang.Format(p1)
			p2, err := minilang.Parse(w.Name+"-rt", text)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if err := minilang.Check(p2); err != nil {
				t.Fatalf("re-check: %v", err)
			}
			e1, err := interp.New(p1, &interp.Options{Seed: w.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := e1.Run(); err != nil {
				t.Fatal(err)
			}
			e2, err := interp.New(p2, &interp.Options{Seed: w.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := e2.Run(); err != nil {
				t.Fatalf("round-tripped program fails: %v", err)
			}
			if e1.Steps() != e2.Steps() {
				t.Errorf("steps differ after round trip: %d vs %d", e1.Steps(), e2.Steps())
			}
			for name, v := range e1.Globals {
				if e2.Globals[name] != v {
					t.Errorf("global %s differs: %g vs %g", name, v, e2.Globals[name])
				}
			}
		})
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
