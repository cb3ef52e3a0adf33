package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"skope/internal/guard"
	"skope/internal/minilang"
)

func run(t *testing.T, src string, opts *Options) *Engine {
	t.Helper()
	e := prep(t, src, opts)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func prep(t *testing.T, src string, opts *Options) *Engine {
	t.Helper()
	prog, err := minilang.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	e, err := New(prog, opts)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return e
}

func TestArithmeticAndGlobals(t *testing.T) {
	e := run(t, `
global x: float;
global k: int;
func main() {
  x = 3.0 * 4.0 + 1.0 / 2.0;
  k = 7 / 2;
}
`, nil)
	if e.Globals["x"] != 12.5 {
		t.Errorf("x = %g", e.Globals["x"])
	}
	if e.Globals["k"] != 3 { // integer division truncates
		t.Errorf("k = %g", e.Globals["k"])
	}
}

func TestArrayRoundTrip(t *testing.T) {
	e := run(t, `
global n: int = 8;
global a: [n][n]float;
global sum: float;
func main() {
  for i = 0 .. n {
    for j = 0 .. n {
      a[i][j] = i * 10 + j;
    }
  }
  sum = 0.0;
  for i = 0 .. n {
    sum = sum + a[i][i];
  }
}
`, nil)
	// sum of ii*10+i for i in 0..8 = 11*(0+..+7) = 11*28
	if e.Globals["sum"] != 308 {
		t.Errorf("sum = %g, want 308", e.Globals["sum"])
	}
}

func TestGlobalInitOrderAndExtents(t *testing.T) {
	e := prep(t, `
global n: int = 4;
global m: int = n * 2;
global a: [n * m]float;
func main() {}
`, nil)
	arr := e.Arrays["a"]
	if arr == nil || arr.Extents[0] != 32 {
		t.Fatalf("array a = %+v", arr)
	}
	if arr.Base == 0 || arr.Base%4096 != 0 {
		t.Errorf("array base not page aligned: %d", arr.Base)
	}
}

func TestControlFlow(t *testing.T) {
	e := run(t, `
global hits: int;
global brk: int;
func main() {
  hits = 0;
  for i = 0 .. 100 {
    if (i % 2 == 0) {
      continue;
    }
    hits = hits + 1;
    if (i >= 51) {
      break;
    }
  }
  brk = helper(10);
}
func helper(limit: int): int {
  var c: int = 0;
  var i: int = 0;
  while (i < 100) {
    c = c + 2;
    i = i + 1;
    if (i >= limit) {
      return c;
    }
  }
  return c;
}
`, nil)
	// odd numbers 1..51 = 26 hits
	if e.Globals["hits"] != 26 {
		t.Errorf("hits = %g, want 26", e.Globals["hits"])
	}
	if e.Globals["brk"] != 20 {
		t.Errorf("brk = %g, want 20", e.Globals["brk"])
	}
}

func TestBuiltins(t *testing.T) {
	e := run(t, `
global r: float;
func main() {
  r = exp(0.0) + sqrt(16.0) + abs(0.0 - 3.0) + floor(2.9) + pow(2.0, 10.0)
    + min(1.0, 2.0) + max(1.0, 2.0) + sin(0.0) + cos(0.0) + log(1.0) + mod(7.0, 4.0);
}
`, nil)
	want := 1.0 + 4 + 3 + 2 + 1024 + 1 + 2 + 0 + 1 + 0 + 3
	if math.Abs(e.Globals["r"]-want) > 1e-12 {
		t.Errorf("r = %g, want %g", e.Globals["r"], want)
	}
}

func TestRandDeterministic(t *testing.T) {
	src := `
global s: float;
func main() {
  s = 0.0;
  for i = 0 .. 1000 {
    var v: float = rand();
    if (v < 0.0) { s = 0.0 - 1.0; }
    if (v >= 1.0) { s = 0.0 - 2.0; }
    s = s + v;
  }
}
`
	e1 := run(t, src, &Options{Seed: 42})
	e2 := run(t, src, &Options{Seed: 42})
	e3 := run(t, src, &Options{Seed: 43})
	if e1.Globals["s"] != e2.Globals["s"] {
		t.Error("rand not deterministic per seed")
	}
	if e1.Globals["s"] == e3.Globals["s"] {
		t.Error("rand identical across seeds")
	}
	if e1.Globals["s"] < 0 {
		t.Error("rand out of [0,1)")
	}
	mean := e1.Globals["s"] / 1000
	if mean < 0.4 || mean > 0.6 {
		t.Errorf("rand mean = %g, want ~0.5", mean)
	}
}

func TestRuntimeErrors(t *testing.T) {
	// Each case maps to a substring its error must contain and the scalar
	// globals Run must leave written before the failure.
	cases := map[string]struct {
		src, want string
		globals   map[string]float64
	}{
		"oob":       {src: "global a: [4]float; func main() { a[7] = 1.0; }", want: "index 7 out of range [0,4) in dimension 0"},
		"oob neg":   {src: "global a: [4]float; func main() { var i: int = 0 - 1; a[i] = 1.0; }", want: "index -1 out of range"},
		"oob huge":  {src: "global a: [4]float; func main() { var x: float = a[1.0e30]; }", want: "index 1000000000000000019884624838656 out of range"},
		"nan index": {src: "global a: [4]float; func main() { var z: float = 0.0; var x: float = a[z / z]; }", want: "index NaN is not finite in dimension 0"},
		"inf index": {src: "global a: [2][4]float; func main() { var z: float = 0.0; a[1][1.0 / z] = 1.0; }", want: "index +Inf is not finite in dimension 1"},
		"int div0":  {src: "global k: int; func main() { var z: int = 0; k = 1 / z; }", want: "integer division by zero"},
		"rem0":      {src: "global k: int; func main() { var z: int = 0; k = 1 % z; }", want: "remainder by zero"},
		"log0":      {src: "global x: float; func main() { x = log(0.0); }", want: "log of non-positive value 0"},
		"sqrtneg":   {src: "global x: float; func main() { x = sqrt(0.0 - 1.0); }", want: "sqrt of negative value -1"},
		"mod0":      {src: "global x: float; func main() { x = mod(1.0, 0.0); }", want: "mod by zero"},
		"zerostep":  {src: "func main() { var s: int = 0; for i = 0 .. 4 step s { } }", want: "for step is zero"},
		"nanstep":   {src: "func main() { var z: float = 0.0; for i = 0 .. 4 step z / z { } }", want: "for step is NaN"},
		"nan start": {src: "func main() { var z: float = 0.0; for i = z / z .. 4 { } }", want: "for start is NaN"},
		"nan bound": {src: "func main() { var z: float = 0.0; for i = 0 .. z / z { } }", want: "for bound is NaN"},
		"in callee from loop": {
			src: `global a: [4]float; global done: int;
func main() { for i = 0 .. 10 { done = i; poke(i); } }
func poke(i: int) { a[i] = 1.0; }`,
			want: `3:21: runtime: index 4 out of range [0,4) in dimension 0 of "a"`, globals: map[string]float64{"done": 4},
		},
		"in if condition": {
			src:  "global k: int; global z: int; func main() { k = 5; if (k / z > 1) { k = 6; } }",
			want: "runtime: integer division by zero", globals: map[string]float64{"k": 5},
		},
		"in while condition": {
			src: `global n: int;
func main() { var x: float = 3.0; while (log(x) < 5.0) { n = n + 1; x = x - 1.0; } }`,
			want: "2:42: runtime: log of non-positive value 0", globals: map[string]float64{"n": 3},
		},
		"in nested for bound": {
			src: `global a: [3]float; global s: int;
func main() { for i = 0 .. 3 { s = s + 1; for j = 0 .. a[i * 2] { } } }`,
			want: "runtime: index 4 out of range [0,3) in dimension 0", globals: map[string]float64{"s": 3},
		},
		"store evaluates its value before its indexes": {
			src: `global a: [2][2][2]float; global done: int;
func main() { a[2][0][0] = mark(); }
func mark(): float { done = 1; return 1.0; }`,
			want: `2:15: runtime: index 2 out of range [0,2) in dimension 0 of "a"`, globals: map[string]float64{"done": 1},
		},
		"store value fails first": {src: "global a: [2]float; func main() { a[5] = log(0.0); }", want: "1:42: runtime: log of non-positive value 0"},
		"in call argument": {
			src: `global r: float; global m: int;
func main() { m = 2; r = twice(mod(1.0, 0.0)); }
func twice(x: float): float { return x * 2.0; }`,
			want: "2:32: runtime: mod by zero", globals: map[string]float64{"m": 2, "r": 0},
		},
	}
	// A rank-3 store and a rank-2 read fail in each dimension, on a stencil
	// index: i-1 at 0, j+1 at the extent, and NaN+1.
	const stencilSrc = `global a: [2][3][4]float; global b: [2][3]float; global s: float;
func main() {
  var z: float = 0.0; var nan: float = z / z;
  for i = 0 .. 2 { for j = 0 .. 3 { for k = 0 .. 4 {
    %s
  } } }
}`
	loops, exts := []string{"i", "j", "k"}, []int{2, 3, 4}
	for _, ref := range []struct{ form, array, stmt string }{
		{"rank-3 store", "a", "a[%s][%s][%s] = 1.0;"},
		{"rank-2 read", "b", "s = b[%s][%s];"},
	} {
		rank := strings.Count(ref.stmt, "%s")
		for d := range rank {
			for _, f := range []struct{ name, ix, want string }{
				{"i-1 at 0", loops[d] + "-1", fmt.Sprintf("index -1 out of range [0,%d)", exts[d])},
				{"j+1 at the extent", loops[d] + "+1", fmt.Sprintf("index %d out of range [0,%d)", exts[d], exts[d])},
				{"NaN stencil", "nan+1", "index NaN is not finite"},
			} {
				ix := make([]any, rank)
				for k := range ix {
					ix[k] = loops[k]
				}
				ix[d] = f.ix
				stmt := fmt.Sprintf(ref.stmt, ix...)
				// The statement is on line 5, after four spaces.
				col := strings.Index(stmt, ref.array+"[") + 5
				cases[fmt.Sprintf("%s, %s in dimension %d", ref.form, f.name, d)] = struct {
					src, want string
					globals   map[string]float64
				}{
					src:  fmt.Sprintf(stencilSrc, stmt),
					want: fmt.Sprintf(`5:%d: runtime: %s in dimension %d of %q`, col, f.want, d, ref.array),
				}
			}
		}
	}
	// The profiler compiles a program without the events it ignores; every
	// other observer gets the full stream. Both must fail alike, with the
	// same message and position.
	observers := map[string]func() Observer{
		"full stream": func() Observer { return nil },
		"profiler":    func() Observer { return NewProfiler() },
	}
	for name, c := range cases {
		errs := make(map[string]string, len(observers))
		for oname, obs := range observers {
			e := prep(t, c.src, &Options{Observer: obs()})
			err := e.Run()
			if err == nil {
				t.Errorf("%s, %s: Run succeeded, want error", name, oname)
				continue
			}
			errs[oname] = err.Error()
			want := c.want
			if !strings.Contains(want, "runtime: ") {
				want = "runtime: " + want
			}
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s: error %q, want it to contain %q", name, oname, err, want)
			}
			for g, v := range c.globals {
				if e.Globals[g] != v {
					t.Errorf("%s, %s: global %s = %g after the failure, want %g", name, oname, g, e.Globals[g], v)
				}
			}
		}
		if errs["full stream"] != errs["profiler"] {
			t.Errorf("%s: the observers fail differently:\n full stream %q\n profiler    %q", name, errs["full stream"], errs["profiler"])
		}
	}
}

// TestForeignPanicPassesThroughRun arms the interpreter's step fault point
// with a panic: Run recovers only its own runtime errors, so the panic
// must reach Run's caller as a panic, with its value, and not as an error.
func TestForeignPanicPassesThroughRun(t *testing.T) {
	disarm := guard.Arm("interp.step", func(string) { panic("injected") })
	defer disarm()
	for _, obs := range []Observer{nil, NewProfiler()} {
		e := prep(t, "global x: int; func main() { for i = 0 .. 5000 { x = x + 1; } }", &Options{Observer: obs})
		var err error
		got := func() (r any) {
			defer func() { r = recover() }()
			err = e.Run()
			return nil
		}()
		if got != "injected" || err != nil {
			t.Errorf("observer %T: Run panicked with %v and returned %v; want panic \"injected\" and no return", obs, got, err)
		}
		if e.Steps() != 1024 {
			t.Errorf("observer %T: panic after %d steps, want 1024", obs, e.Steps())
		}
	}
}

// TestLoopAllocsFlat checks that the engine allocates nothing per executed
// statement: a loop without user calls allocates the same at 10^3 and 10^5
// iterations, New and the profiler included.
func TestLoopAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := func(n int) float64 {
		prog := mustProgram("t", fmt.Sprintf(`
global n: int = %d;
global a: [16]float;
global s: float;
func main() {
  for i = 0 .. n {
    if (i %% 3 == 0) {
      s = s + a[i %% 16] * 2.0;
    } else {
      a[i %% 16] = sqrt(i) + s;
    }
  }
}`, n))
		return testing.AllocsPerRun(3, func() {
			e, err := New(prog, &Options{Observer: NewProfiler()})
			if err == nil {
				err = e.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1e3), allocs(1e5); small != large {
		t.Errorf("allocations grow with iterations: %v at 10^3, %v at 10^5", small, large)
	}
}

func TestStepBudget(t *testing.T) {
	e := prep(t, "global x: int; func main() { while (1 > 0) { x = x + 1; } }", &Options{MaxSteps: 1000})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("expected step budget error, got %v", err)
	}

	// The store that exceeds the budget reports its statement's position on
	// either observer, at each rank. With its left side in parentheses, the
	// statement starts a column before its array reference.
	const src = `global a: [2]float; global b: [2][2]float; global c: [2][2][2]float;
func main() {
  for i = 0 .. 2 {
    (a[i]) = 1.0;
    (b[i][1]) = 2.0;
    (c[1][i][0]) = 3.0;
  }
}`
	for steps, line := range map[int64]int{1: 4, 2: 5, 3: 6} {
		want := fmt.Sprintf("test:%d:5: runtime: step budget exceeded (%d)", line, steps)
		for oname, obs := range map[string]Observer{"full stream": nil, "profiler": NewProfiler()} {
			err := prep(t, src, &Options{MaxSteps: steps, Observer: obs}).Run()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, budget %d: error %v, want it to contain %q", oname, steps, err, want)
			}
		}
	}
}

func TestBadArrayExtent(t *testing.T) {
	prog := mustProgram("t", "global n: int = 0; global a: [n]float; func main() {}")
	if _, err := New(prog, nil); err == nil {
		t.Error("zero extent accepted")
	}
	prog2 := mustProgram("t", "global a: [99999999999]float; func main() {}")
	if _, err := New(prog2, nil); err == nil {
		t.Error("huge extent accepted")
	}
}

func TestProfilerBranchStats(t *testing.T) {
	src := `
global acc: int;
func main() {
  acc = 0;
  for i = 0 .. 1000 {
    if (i % 4 == 0) {
      acc = acc + 1;
    }
  }
}
`
	pr := NewProfiler()
	e := prep(t, src, &Options{Observer: pr})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pr.P.Branches) != 1 {
		t.Fatalf("branches = %d", len(pr.P.Branches))
	}
	for _, st := range pr.P.Branches {
		if st.Total != 1000 || st.Taken != 250 {
			t.Errorf("branch stat = %+v", st)
		}
		if st.Prob() != 0.25 {
			t.Errorf("prob = %g", st.Prob())
		}
	}
	for _, st := range pr.P.Loops {
		if st.Execs != 1 || st.Trips != 1000 {
			t.Errorf("loop stat = %+v", st)
		}
	}
}

func TestProfilerLoopStats(t *testing.T) {
	src := `
func main() {
  for i = 0 .. 10 {
    inner(i);
  }
}
func inner(k: int) {
  var j: int = 0;
  while (j < k) {
    j = j + 1;
  }
}
`
	pr := NewProfiler()
	e := prep(t, src, &Options{Observer: pr})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var whileStat *LoopStat
	for site, st := range pr.P.Loops {
		if strings.HasPrefix(site, "inner@") {
			whileStat = st
		}
	}
	if whileStat == nil {
		t.Fatal("while loop not profiled")
	}
	if whileStat.Execs != 10 || whileStat.Trips != 45 {
		t.Errorf("while stat = %+v", whileStat)
	}
	if whileStat.Mean() != 4.5 || whileStat.MinTrips != 0 || whileStat.MaxTrips != 9 {
		t.Errorf("while stat = %+v mean %g", whileStat, whileStat.Mean())
	}
}

func TestProfileStringDeterministic(t *testing.T) {
	src := "func main() { for i = 0 .. 4 { if (i > 1) { } } }"
	pr := NewProfiler()
	e := prep(t, src, &Options{Observer: pr})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s1 := pr.P.String()
	if !strings.Contains(s1, "branch main@") || !strings.Contains(s1, "loop main@") {
		t.Errorf("profile string:\n%s", s1)
	}
}

func TestBranchStatDefaults(t *testing.T) {
	var b BranchStat
	if b.Prob() != 0.5 {
		t.Errorf("empty branch prob = %g", b.Prob())
	}
	var l LoopStat
	if l.Mean() != 0 {
		t.Errorf("empty loop mean = %g", l.Mean())
	}
}

// eventCounter records raw observer events for attribution tests.
type eventCounter struct {
	NopObserver
	blocks  []string
	ops     map[OpClass]int
	vecOps  int
	autoOps int
	acc     int
	stores  int
	libs    map[string]int
	vecLibs int
}

func newEventCounter() *eventCounter {
	return &eventCounter{ops: map[OpClass]int{}, libs: map[string]int{}}
}

func (c *eventCounter) EnterBlock(id string) { c.blocks = append(c.blocks, id) }
func (c *eventCounter) Op(cl OpClass, vec VecLevel) {
	c.ops[cl]++
	if vec == VecAnnotated {
		c.vecOps++
	}
	if vec == VecAuto {
		c.autoOps++
	}
}
func (c *eventCounter) Access(addr uint64, size int, store bool) {
	c.acc++
	if store {
		c.stores++
	}
}
func (c *eventCounter) LibCall(name string, vec VecLevel) {
	c.libs[name]++
	if vec == VecAnnotated {
		c.vecLibs++
	}
}

func TestObserverEvents(t *testing.T) {
	src := `
global a: [10]float;
func main() {
  for i = 0 .. 10 {
    a[i] = exp(a[i]) + 1.0;
  }
}
`
	ec := newEventCounter()
	e := prep(t, src, &Options{Observer: ec})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 10 loads + 10 stores
	if ec.acc != 20 || ec.stores != 10 {
		t.Errorf("accesses = %d stores = %d", ec.acc, ec.stores)
	}
	if ec.libs["exp"] != 10 {
		t.Errorf("exp calls = %d", ec.libs["exp"])
	}
	// 10 FP adds
	if ec.ops[OpFloat] != 10 {
		t.Errorf("fp ops = %d", ec.ops[OpFloat])
	}
	// Attribution blocks include the for header and the body segment.
	joined := strings.Join(ec.blocks, " ")
	if !strings.Contains(joined, "main/for@L4") || !strings.Contains(joined, "main/L5") {
		t.Errorf("blocks = %v", ec.blocks)
	}
}

func TestVecContextReported(t *testing.T) {
	src := `
global a: [64]float;
func main() {
  for i = 0 .. 64 @vec {
    a[i] = a[i] * 2.0;
  }
  for i = 0 .. 64 {
    a[i] = a[i] * 2.0;
  }
}
`
	ec := newEventCounter()
	e := prep(t, src, &Options{Observer: ec})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Annotated-vector ops come only from the first loop; the second,
	// being a clean single-segment body, reports auto-vectorizable ops.
	if ec.vecOps == 0 {
		t.Fatal("no annotated-vector ops reported")
	}
	if ec.autoOps == 0 {
		t.Fatal("no auto-vectorizable ops reported for the clean plain loop")
	}
	totalFP := ec.ops[OpFloat]
	if totalFP != 128 {
		t.Errorf("fp ops = %d, want 128", totalFP)
	}
}

func TestVecDoesNotLeakIntoNestedLoop(t *testing.T) {
	src := `
global a: [8][8]float;
func main() {
  for i = 0 .. 8 @vec {
    for j = 0 .. 8 {
      a[i][j] = a[i][j] + 1.0;
    }
  }
}
`
	ec := newEventCounter()
	e := prep(t, src, &Options{Observer: ec})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ec.vecOps != 0 {
		t.Errorf("annotated vec context leaked into nested non-vec loop: %d", ec.vecOps)
	}
}

func TestAddressesDistinctPerArray(t *testing.T) {
	src := `
global a: [16]float;
global b: [16]float;
func main() {
  a[0] = 1.0;
  b[0] = 2.0;
}
`
	var addrs []uint64
	obs := &addrRecorder{addrs: &addrs}
	e := prep(t, src, &Options{Observer: obs})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] == addrs[1] {
		t.Errorf("addresses = %v", addrs)
	}
}

type addrRecorder struct {
	NopObserver
	addrs *[]uint64
}

func (r *addrRecorder) Access(addr uint64, size int, store bool) {
	*r.addrs = append(*r.addrs, addr)
}

func TestNestedCallReturnsValue(t *testing.T) {
	e := run(t, `
global out: float;
func main() {
  out = square(7.0);
}
func square(x: float): float {
  return x * x;
}
`, nil)
	if e.Globals["out"] != 49 {
		t.Errorf("out = %g", e.Globals["out"])
	}
}

func TestNegativeStepLoop(t *testing.T) {
	e := run(t, `
global sum: int;
func main() {
  sum = 0;
  for i = 10 .. 0 step 0 - 2 {
    sum = sum + i;
  }
}
`, nil)
	// 10+8+6+4+2 = 30
	if e.Globals["sum"] != 30 {
		t.Errorf("sum = %g, want 30", e.Globals["sum"])
	}
}

func TestShortCircuit(t *testing.T) {
	// a[9] would be out of bounds if && didn't short-circuit.
	e := run(t, `
global a: [4]float;
global ok: int;
func main() {
  var i: int = 9;
  if (i < 4 && a[i] > 0.0) {
    ok = 1;
  } else {
    ok = 2;
  }
}
`, nil)
	if e.Globals["ok"] != 2 {
		t.Errorf("ok = %g", e.Globals["ok"])
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
