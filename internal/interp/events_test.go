package interp_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"skope/internal/interp"
	"skope/internal/libmodel"
	"skope/internal/minilang"
	"skope/internal/workloads"
)

var updateEvents = flag.Bool("update", false, "rewrite testdata/events.golden")

// recorder is an Observer that folds every event, with all its arguments
// and in order, into one FNV-64a digest: two engines that emit the same
// event stream produce the same digest and count.
type recorder struct {
	h      hash.Hash64
	events int64
	buf    []byte
}

func newRecorder() *recorder { return &recorder{h: fnv.New64a()} }

// record hashes one event: its tag, at most one string and two numbers.
func (r *recorder) record(tag byte, s string, a, b uint64) {
	r.events++
	r.buf = append(r.buf[:0], tag)
	r.buf = binary.LittleEndian.AppendUint64(r.buf, uint64(len(s)))
	r.buf = append(r.buf, s...)
	r.buf = binary.LittleEndian.AppendUint64(r.buf, a)
	r.buf = binary.LittleEndian.AppendUint64(r.buf, b)
	r.h.Write(r.buf)
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func (r *recorder) EnterBlock(id string) { r.record('B', id, 0, 0) }
func (r *recorder) Op(class interp.OpClass, vec interp.VecLevel) {
	r.record('O', "", uint64(class), uint64(vec))
}
func (r *recorder) Access(addr uint64, size int, store bool) {
	r.record('A', "", addr, uint64(size)<<1|b2u(store))
}
func (r *recorder) LibCall(name string, vec interp.VecLevel) { r.record('L', name, uint64(vec), 0) }
func (r *recorder) Comm(bytes, msgs float64) {
	r.record('C', "", math.Float64bits(bytes), math.Float64bits(msgs))
}
func (r *recorder) Branch(site string, taken bool) { r.record('R', site, b2u(taken), 0) }
func (r *recorder) LoopTrips(site string, trips int64) {
	r.record('T', site, uint64(trips), 0)
}

// stateDigest hashes the engine's post-Run view: every scalar global and
// every array element, in name order.
func stateDigest(e *interp.Engine) uint64 {
	h := fnv.New64a()
	var buf []byte
	names := make([]string, 0, len(e.Globals))
	for n := range e.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		buf = append(buf[:0], n...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Globals[n]))
		h.Write(buf)
	}
	names = names[:0]
	for n := range e.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		buf = append(buf[:0], n...)
		for _, v := range e.Arrays[n].Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// eventCase is one pinned run: a program, its rand seed, and the scalar
// globals set between New and Run.
type eventCase struct {
	name    string
	src     string
	seed    uint64
	globals map[string]float64
}

// coverageSrc exercises the constructs the paper workloads do not: while
// loops, break, continue, return from inside nested loops, else-if chains,
// short-circuit operators, unary operators, int truncation, negative steps,
// every builtin, exchange(), user calls inside a @vec loop, and an inner
// declaration that reuses an outer local's name.
const coverageSrc = `
global n: int = 6;
global scale: float = 1.5;
global hits: int;
global acc: float;
global k: int;
global a: [n][n]float;
global v: [32]float;

func main() {
  acc = 0.0;
  for i = 0 .. n {
    for j = 0 .. n @vec {
      a[i][j] = (i * n + j) * scale - 0.5;
    }
  }
  for i = n - 1 .. 0 - 1 step 0 - 2 {
    if (i % 3 == 0) {
      continue;
    } else if (i % 3 == 1 && a[i][0] > 2.0) {
      hits = hits + 1;
    } else {
      acc = acc + -a[i][i] / 3.0;
    }
    if (!(i > 1) || rand() < 0.5) {
      break;
    }
  }
  var t: int = 7.9;
  var x: float = t / 2;
  var neg: int = -t;
  acc = acc + x + neg;
  var s: float = 1.0;
  if (s > 0.0) {
    var s: float = 2.5;
    acc = acc + s;
  }
  acc = acc + s;
  k = helper(n, 2.5);
  var w: int = 0;
  while (w < 20) {
    w = w + 3;
    if (w == 9) {
      continue;
    }
    v[w % 32] = sqrt(w) + exp(0.0 - w / 10.0) + log(w + 1.0);
    if (w > 15) {
      break;
    }
  }
  exchange(1024.0 * n, 4.0);
  for i = 0 .. 4 @vec {
    report(a[i][i]);
    v[i] = v[i] + 1.0;
  }
  var f: int = first(5);
  k = k + f;
}

func helper(m: int, f: float): int {
  var r: float = 0.0;
  for q = 0 .. m {
    r = r + pow(f, 2.0) + min(q, f) + max(q, f) + mod(q + 0.5, 2.0);
    r = r + abs(f - q) + floor(f * q) + sin(q) + cos(q);
  }
  return r;
}

func first(lim: int): int {
  for i = 0 .. 100 {
    var j: int = 0;
    while (j < i) {
      j = j + 1;
      if (j * i > lim) {
        return j;
      }
    }
  }
  return 0 - 1;
}

func report(x: float) {
  if (x > 20.0) {
    return;
  }
  acc = acc + x;
}
`

// goldenIters is the libmodel harness size for the golden: Calibrate's
// programs at fewer iterations, so the run stays short.
const goldenIters = 256

func eventCases() []eventCase {
	var cases []eventCase
	for _, w := range workloads.All(workloads.ScaleTest) {
		cases = append(cases, eventCase{name: "workload/" + w.Name, src: w.Source, seed: w.Seed})
	}
	kernels := libmodel.Kernels(goldenIters)
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, enable := range []float64{0, 1} {
			cases = append(cases, eventCase{
				name:    fmt.Sprintf("libmodel/%s/enable=%g", n, enable),
				src:     kernels[n],
				seed:    12345,
				globals: map[string]float64{"enable": enable},
			})
		}
	}
	return append(cases, eventCase{name: "coverage", src: coverageSrc, seed: 3})
}

// runEvents executes one case under the recorder and renders its golden
// line.
func runEvents(t *testing.T, c eventCase) string {
	t.Helper()
	prog, err := minilang.Parse(c.name, c.src)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.name, err)
	}
	if err := minilang.Check(prog); err != nil {
		t.Fatalf("%s: check: %v", c.name, err)
	}
	rec := newRecorder()
	e, err := interp.New(prog, &interp.Options{Observer: rec, Seed: c.seed})
	if err != nil {
		t.Fatalf("%s: new: %v", c.name, err)
	}
	for g, v := range c.globals {
		e.Globals[g] = v
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%s: run: %v", c.name, err)
	}
	return fmt.Sprintf("%s steps %d events %d digest %016x state %016x\n",
		c.name, e.Steps(), rec.events, rec.h.Sum64(), stateDigest(e))
}

// TestEventStreamGolden pins the exact event stream the engine hands its
// Observer — every EnterBlock, Op, Access, LibCall, Comm, Branch and
// LoopTrips call with its arguments — together with Steps() and the
// post-Run globals and arrays, for the five paper workloads, every libmodel
// calibration kernel, and a program covering the remaining constructs. The
// branch profiler and the timing simulator both consume this stream, so
// any engine change that keeps the golden keeps their results. Regenerate
// deliberately with:
//
//	go test ./internal/interp/ -run TestEventStreamGolden -update
func TestEventStreamGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range eventCases() {
		got.WriteString(runEvents(t, c))
	}
	path := filepath.Join("testdata", "events.golden")
	if *updateEvents {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal([]byte(got.String()), want) {
		t.Errorf("event stream drifted from %s\n--- want\n%s--- got\n%s", path, want, got.String())
	}
}

// failingSrc stops with an index error after several branches and
// completed inner loops, so its profile is partial.
const failingSrc = `
global a: [8]float;
global s: float;
func main() {
  for i = 0 .. 20 {
    for j = 0 .. i {
      s = s + j;
    }
    if (i % 3 == 0) {
      s = s + 1.0;
    }
    a[i] = s;
  }
}
`

// addressingSrc reaches every form the profiler path compiles an element
// read or store to: ranks 1 to 3 on float and int arrays (an int store
// truncates), indexed by a local, i-1, j+1, 1+k, a constant, a float
// local, a global, an element and a general expression; and comparisons
// and float division with NaN, ±Inf and -0 operands. It ends on a local
// declared int whose slot an inner float declaration shares: int
// arithmetic truncates the value that block left behind, so q is 2, not
// 3.
const addressingSrc = `
global n: int = 5;
global g: int = 2;
global q: float;
global r: float;
global hits: int;
global fa: [n]float;
global ia: [n]int;
global fb: [n][n]float;
global ib: [n][n]int;
global fc: [n][n][n]float;
global ic: [n][n][n]int;
global out: [24]float;

func main() {
  for i = 0 .. n {
    ia[i] = (i * 3 + 1) % n;
    fa[i] = i * 0.75;
    for j = 0 .. n {
      ib[i][j] = i * 1.5 + j / 4.0;
      fb[i][j] = fa[i] - j;
      for k = 0 .. n {
        ic[i][j][k] = fb[i][j] * 0.5 + k;
        fc[i][j][k] = ib[i][j] + k * 0.25;
      }
    }
  }
  for i = 1 .. n {
    for j = 0 .. n - 1 {
      for k = 0 .. n - 1 {
        fc[i][j][k] = fc[i-1][j+1][1+k] + fb[i-1][j+1] * fa[i-1] + ic[i][j+1][1+k];
        ib[i-1][j+1] = fb[i][j] + ia[1+k] - 0.5;
        ic[i][j+1][1+k] = fc[i][j][k] / 3.0;
      }
    }
  }
  var fx: float = 2.75;
  for i = 0 .. n {
    fa[ia[i]] = fa[ia[i]] + fb[g][i] + fc[0][fx][(i * 2 + 1) % n] + fb[fx - 1][4];
    ia[fx] = ia[3] + fb[fx + 0.5][g - 1] + ic[2][ia[i]][n - 1 - i];
  }

  var z: float = 0.0;
  var nz: float = -z;
  var nan: float = z / z;
  var inf: float = 1.0 / z;
  var ninf: float = -1.0 / z;
  out[0] = nan < 1.0;
  out[1] = nan == nan;
  out[2] = nan != nan;
  out[3] = inf > ninf;
  out[4] = nz == z;
  out[5] = nz < z;
  out[6] = 1.0 / nz;
  out[7] = nz / inf;
  out[8] = inf / inf;
  out[9] = z / nz;
  out[10] = nan >= nan;
  out[11] = ninf <= nz;
  out[12] = nz * 1.0;
  out[13] = nz + nz;
  out[14] = nz - z;
  out[15] = inf / ninf;
  out[16] = fa[1] / nz;
  out[17] = out[6] <= ninf;
  out[18] = inf >= out[6];
  out[19] = nan > fa[2];
  for i = 0 .. n {
    if (fb[i][1] / nz < ninf || nan <= fa[i] || fa[i] / inf == nz) {
      hits = hits + 1;
    }
  }

  var x: int = 3;
  if (x > 0) {
    var x: float = 2.5;
    r = x;
  }
  fa[x - 1] = 7.0;
  r = r + fa[x - 1] + fb[x + 1][1 + x];
  q = (x - 1) * 2.0;
}
`

// TestProfilerFastPathMatchesFullStream checks the profiler's path, which
// compiles away every event the profiler ignores, against the full
// stream: a type embedding *Profiler receives every event. Both must
// produce the same profile, Steps() and final state on every golden case
// and on a program of every addressing form, and the same error and
// partial profile on a program that fails mid-run.
func TestProfilerFastPathMatchesFullStream(t *testing.T) {
	cases := append(eventCases(),
		eventCase{name: "failing", src: failingSrc, seed: 1},
		eventCase{name: "addressing", src: addressingSrc, seed: 1})
	// Results the two paths could get wrong alike.
	want := map[string]map[string]float64{"addressing": {"q": 2}}
	for _, c := range cases {
		prog, err := minilang.Parse(c.name, c.src)
		if err == nil {
			err = minilang.Check(prog)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		type outcome struct {
			profile, err string
			steps        int64
			state        uint64
		}
		profile := func(obs interp.Observer, p *interp.Profiler) outcome {
			e, err := interp.New(prog, &interp.Options{Observer: obs, Seed: c.seed})
			if err != nil {
				t.Fatalf("%s: new: %v", c.name, err)
			}
			for g, v := range c.globals {
				e.Globals[g] = v
			}
			var o outcome
			if err := e.Run(); err != nil {
				o.err = err.Error()
			}
			for g, v := range want[c.name] {
				if got := e.Globals[g]; got != v {
					t.Errorf("%s, observer %T: %s = %g, want %g", c.name, obs, g, got, v)
				}
			}
			o.profile, o.steps, o.state = p.P.String(), e.Steps(), stateDigest(e)
			return o
		}
		fastP, fullP := interp.NewProfiler(), interp.NewProfiler()
		fast := profile(fastP, fastP)
		full := profile(struct{ *interp.Profiler }{fullP}, fullP)
		if fast != full {
			t.Errorf("%s: profiler path and full stream differ\n--- profiler path\n%+v\n--- full stream\n%+v", c.name, fast, full)
		}
		if (c.name == "failing") != (fast.err != "") {
			t.Errorf("%s: error %q", c.name, fast.err)
		}
		if fast.profile == "" {
			t.Errorf("%s: empty profile", c.name)
		}
	}
}
