// Package libmodel implements the paper's semi-analytical modeling of
// opaque library functions (§IV-C). The control flow and instruction mix of
// functions like exp or rand cannot be derived from the application source;
// the paper obtains their dynamic instruction mixes empirically, by running
// them on a local machine under hardware counters over randomly generated
// inputs, and then projects their cost onto targets with the same roofline
// model used for application blocks.
//
// This package does exactly that, with the local machine replaced by the
// local interpreter: each library function has a minilang micro-kernel — a
// pure-arithmetic software implementation (Horner polynomials, Newton
// iterations, an xorshift generator) — that is executed over many random
// inputs under a counting observer. The averaged per-invocation operation
// mix becomes the function's BlockWork, consumed by hotspot.Analyze through
// the LibModeler interface.
package libmodel

import (
	"fmt"
	"sync"

	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/minilang"
)

// Model maps library function names to their calibrated per-invocation
// instruction mixes. It implements hotspot.LibModeler.
type Model struct {
	mixes map[string]hw.BlockWork
}

// LibWork returns the per-invocation workload of the named function.
func (m *Model) LibWork(name string) (hw.BlockWork, error) {
	w, ok := m.mixes[name]
	if !ok {
		return hw.BlockWork{}, fmt.Errorf("libmodel: no model for library function %q", name)
	}
	return w, nil
}

var (
	defaultOnce  sync.Once
	defaultModel *Model
	defaultErr   error
)

// Default returns the calibrated model, running the micro-kernel profiling
// once per process.
func Default() (*Model, error) {
	defaultOnce.Do(func() {
		defaultModel, defaultErr = Calibrate(4096, 12345)
	})
	return defaultModel, defaultErr
}

// counter tallies engine events over a whole run.
type counter struct {
	interp.NopObserver
	fp, div, iop, loads, stores float64
}

func (c *counter) Op(cl interp.OpClass, vec interp.VecLevel) {
	switch cl {
	case interp.OpFloat:
		c.fp++
	case interp.OpFloatDiv:
		c.fp++
		c.div++
	case interp.OpInt:
		c.iop++
	}
}

func (c *counter) Access(addr uint64, size int, store bool) {
	if store {
		c.stores++
	} else {
		c.loads++
	}
}

// Calibrate profiles every micro-kernel over iters random inputs and
// returns the per-invocation mixes. The paper's procedure: "we randomly
// generate a sufficient number of input instances, profile dynamic
// instructions for each instance, and average the statistics".
func Calibrate(iters int, seed uint64) (*Model, error) {
	m := &Model{mixes: make(map[string]hw.BlockWork, len(kernels))}
	for name, full := range Kernels(iters) {
		prog, err := minilang.Parse("libmodel/"+name, full)
		if err != nil {
			return nil, fmt.Errorf("libmodel: kernel %s: %v", name, err)
		}
		if err := minilang.Check(prog); err != nil {
			return nil, fmt.Errorf("libmodel: kernel %s: %v", name, err)
		}
		// Baseline run measures harness overhead (kernel body disabled via
		// the "enable" switch) so it can be subtracted.
		over, err := runCount(prog, seed, 0)
		if err != nil {
			return nil, fmt.Errorf("libmodel: kernel %s baseline: %v", name, err)
		}
		full2, err := runCount(prog, seed, 1)
		if err != nil {
			return nil, fmt.Errorf("libmodel: kernel %s: %v", name, err)
		}
		n := float64(iters)
		w := hw.BlockWork{
			FLOPs:  pos(full2.fp-over.fp) / n,
			Divs:   pos(full2.div-over.div) / n,
			IOPs:   pos(full2.iop-over.iop) / n,
			Loads:  pos(full2.loads-over.loads) / n,
			Stores: pos(full2.stores-over.stores) / n,
			DSizeB: 8,
			Vec:    1,
		}
		m.mixes[name] = w
	}
	return m, nil
}

// Kernels returns the minilang program Calibrate runs for each library
// function: the driving harness at iters iterations followed by the
// function's micro-kernel. Run it with the global "enable" set to 1 for the
// measured configuration, or left at 0 for the harness-only baseline.
func Kernels(iters int) map[string]string {
	out := make(map[string]string, len(kernels))
	for name, src := range kernels {
		out[name] = fmt.Sprintf(kernelHarness, iters) + src
	}
	return out
}

func pos(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func runCount(prog *minilang.Program, seed uint64, enable float64) (*counter, error) {
	c := &counter{}
	e, err := interp.New(prog, &interp.Options{Observer: c, Seed: seed})
	if err != nil {
		return nil, err
	}
	e.Globals["enable"] = enable
	if err := e.Run(); err != nil {
		return nil, err
	}
	return c, nil
}

// kernelHarness drives a kernel: %d iterations over a uniform input stream.
// The kernel defines `func kernel(x: float): float`. With enable=0 the body
// call is skipped, measuring harness overhead for subtraction.
const kernelHarness = `
global enable: float;
global sink: float;
global iters: int = %d;

func main() {
  sink = 0.0;
  for i = 0 .. iters {
    var x: float = 0.0;
    x = rnd();
    if (enable > 0.5) {
      var r: float = 0.0;
      r = kernel(x);
      sink = sink + r;
    } else {
      sink = sink + x;
    }
  }
}

// rnd is a software uniform generator in (0,2), kept out of the measured
// kernel cost by the baseline subtraction (it runs in both configurations).
// It avoids builtins: builtin calls inside kernels would be circular.
global rndstate: float = 0.5;
func rnd(): float {
  var s: float = rndstate * 16807.0 + 0.12345;
  var k: int = s;
  rndstate = s - k;
  return rndstate * 2.0;
}
`

// kernels are the software reference implementations whose instruction
// mixes stand in for libm hardware-counter profiles. Each defines
// kernel(x: float): float using only plain arithmetic (builtins would be
// circular).
var kernels = map[string]string{
	// exp via 12-term Horner polynomial after halving range reduction.
	"exp": `
func kernel(x: float): float {
  var t: float = x / 8.0;
  var acc: float = 1.0 + t / 12.0;
  acc = 1.0 + t / 11.0 * acc;
  acc = 1.0 + t / 10.0 * acc;
  acc = 1.0 + t / 9.0 * acc;
  acc = 1.0 + t / 8.0 * acc;
  acc = 1.0 + t / 7.0 * acc;
  acc = 1.0 + t / 6.0 * acc;
  acc = 1.0 + t / 5.0 * acc;
  acc = 1.0 + t / 4.0 * acc;
  acc = 1.0 + t / 3.0 * acc;
  acc = 1.0 + t / 2.0 * acc;
  acc = 1.0 + t * acc;
  var r: float = acc * acc;
  r = r * r;
  r = r * r;
  return r;
}
`,
	// log via 4 Newton iterations on exp-free quadratic approximation.
	"log": `
func kernel(x: float): float {
  var y: float = x - 1.0;
  var g: float = y;
  for k = 0 .. 4 {
    var e: float = 1.0 + g + g * g / 2.0 + g * g * g / 6.0;
    g = g - (e - x) / e;
  }
  return g;
}
`,
	// sqrt via 5 Newton iterations.
	"sqrt": `
func kernel(x: float): float {
  var g: float = x * 0.5 + 0.5;
  for k = 0 .. 5 {
    g = 0.5 * (g + x / g);
  }
  return g;
}
`,
	// sin via 6-term Taylor with coefficient accumulation.
	"sin": `
func kernel(x: float): float {
  var x2: float = x * x;
  var term: float = x;
  var acc: float = x;
  term = 0.0 - term * x2 / 6.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 20.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 42.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 72.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 110.0;
  acc = acc + term;
  return acc;
}
`,
	// cos shares sin's structure.
	"cos": `
func kernel(x: float): float {
  var x2: float = x * x;
  var term: float = 1.0;
  var acc: float = 1.0;
  term = 0.0 - term * x2 / 2.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 12.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 30.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 56.0;
  acc = acc + term;
  term = 0.0 - term * x2 / 90.0;
  acc = acc + term;
  return acc;
}
`,
	// pow = exp(b*log(a)) at reduced depth.
	"pow": `
func kernel(x: float): float {
  var y: float = x - 1.0;
  var g: float = y;
  for k = 0 .. 3 {
    var e: float = 1.0 + g + g * g / 2.0 + g * g * g / 6.0;
    g = g - (e - x) / e;
  }
  var t: float = g * 1.5 / 8.0;
  var acc: float = 1.0;
  for k = 0 .. 10 {
    acc = 1.0 + t / (10 - k + 1) * acc;
  }
  var r: float = acc * acc;
  r = r * r;
  r = r * r;
  return r;
}
`,
	// rand: linear-congruential arithmetic plus normalization (software
	// modulus: divide, truncate, multiply back).
	"rand": `
func kernel(x: float): float {
  var m: float = 2147483648.0;
  var s: float = x * 1103515245.0 + 12345.0;
  var k: int = s / m;
  s = s - k * m;
  var u: float = s / m;
  s = s * 1103515245.0 + 12345.0;
  k = s / m;
  s = s - k * m;
  u = (u + s / m) * 0.5;
  return u;
}
`,
	// abs, floor, min, max, mod: short branch-and-arithmetic sequences.
	"abs": `
func kernel(x: float): float {
  if (x < 0.0) {
    return 0.0 - x;
  }
  return x;
}
`,
	"floor": `
func kernel(x: float): float {
  var k: int = 0;
  k = x;
  var f: float = k;
  if (f > x) {
    f = f - 1.0;
  }
  return f;
}
`,
	"min": `
func kernel(x: float): float {
  var other: float = 1.0;
  if (x < other) {
    return x;
  }
  return other;
}
`,
	"max": `
func kernel(x: float): float {
  var other: float = 1.0;
  if (x > other) {
    return x;
  }
  return other;
}
`,
	"mod": `
func kernel(x: float): float {
  var d: float = 0.75;
  var q: float = x / d;
  var k: int = 0;
  k = q;
  var f: float = k;
  if (f > q) {
    f = f - 1.0;
  }
  return x - f * d;
}
`,
}
