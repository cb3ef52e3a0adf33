// Package workloads provides minilang implementations of the paper's five
// evaluation benchmarks (§VI), preserving each benchmark's published
// structure, operation mix, and the specific properties the evaluation
// relies on:
//
//   - SORD: structured-grid 3-D viscoelastic wave propagation (earthquake
//     simulation), many routines inside a time-stepping loop, moderate
//     memory intensity, a data-dependent plasticity branch;
//   - CHARGEI: GTC particle-in-cell ion-charge deposition, eight loop
//     structures where early loops produce arrays consumed by later ones,
//     gather/scatter through particle-position indices;
//   - SRAD: speckle-reducing anisotropic diffusion on an image, with exp
//     and rand math-library calls as standalone hot spots;
//   - CFD: unstructured-grid finite-volume Euler solver: a time loop with
//     pressure/momentum/density updates, neighbor indirection, and a
//     division-heavy velocity recovery (the paper's model-underestimate);
//   - STASSUIJ: Green's Function Monte Carlo two-body correlation kernel:
//     a sparse-real x dense-complex matrix multiply (vectorizable — the
//     paper's overestimate without SIMD modeling) plus a butterfly element
//     exchange driven by an index array.
//
// Sizes are scaled down from the paper's inputs so the simulator substrate
// runs in milliseconds-to-seconds; Scale selects the input class.
package workloads

import (
	"fmt"
	"sort"

	"skope/internal/expr"
	"skope/internal/skeleton"
)

// Workload is one benchmark instance.
type Workload struct {
	// Name is the benchmark identifier ("sord", "chargei", ...).
	Name string
	// Description summarizes the benchmark and its paper role.
	Description string
	// Source is the minilang program text.
	Source string
	// Seed drives the deterministic rand() stream.
	Seed uint64
}

// Scale selects an input class. Scale 1 is the default testing size;
// benchmarks use larger values. Linear grid dimensions grow roughly with
// the square root of Scale so run time grows about linearly.
type Scale float64

// ScaleTest is the default testing size.
const ScaleTest Scale = 1

func (s Scale) dim(base int) int {
	if s <= 0 {
		s = 1
	}
	d := int(float64(base) * sqrtApprox(float64(s)))
	if d < 4 {
		d = 4
	}
	return d
}

func (s Scale) count(base int) int {
	if s <= 0 {
		s = 1
	}
	return int(float64(base) * float64(s))
}

func sqrtApprox(x float64) float64 {
	if x <= 0 {
		return 1
	}
	g := x
	for i := 0; i < 20; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// Names lists the five paper benchmarks in evaluation order.
func Names() []string { return []string{"sord", "chargei", "srad", "cfd", "stassuij"} }

// Get returns the named workload at the given scale.
func Get(name string, s Scale) (*Workload, error) {
	switch name {
	case "sord":
		return SORD(s), nil
	case "chargei":
		return CHARGEI(s), nil
	case "srad":
		return SRAD(s), nil
	case "cfd":
		return CFD(s), nil
	case "stassuij":
		return STASSUIJ(s), nil
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (want one of %v)", name, Names())
}

// All returns the five benchmarks at the given scale, in evaluation order.
func All(s Scale) []*Workload {
	out := make([]*Workload, 0, 5)
	for _, n := range Names() {
		w, _ := Get(n, s)
		out = append(out, w)
	}
	sortStable(out)
	return out
}

func sortStable(ws []*Workload) {
	order := map[string]int{}
	for i, n := range Names() {
		order[n] = i
	}
	sort.SliceStable(ws, func(i, j int) bool { return order[ws[i].Name] < order[ws[j].Name] })
}

// SORD models the Support Operator Rupture Dynamics earthquake simulator:
// a 3-D structured-grid viscoelastic wave propagation code. The paper's
// input is 50x400x400 cells per MPI rank over a time-stepping loop; the
// minilang version preserves the routine structure (stress update, memory-
// variable attenuation, velocity update, absorbing boundary, halo copy,
// source injection, energy check) at a scaled grid.
func SORD(s Scale) *Workload {
	nx, ny, nz := s.dim(24), s.dim(24), s.dim(8)
	nt := s.count(4)
	src := fmt.Sprintf(`
// SORD: 3-D viscoelastic wave propagation on a structured grid.
global nx: int = %d;
global ny: int = %d;
global nz: int = %d;
global nt: int = %d;

global vx: [nz][ny][nx]float;
global vy: [nz][ny][nx]float;
global vz: [nz][ny][nx]float;
global sxx: [nz][ny][nx]float;
global syy: [nz][ny][nx]float;
global sxy: [nz][ny][nx]float;
global mem1: [nz][ny][nx]float;
global mem2: [nz][ny][nx]float;
global halo: [nz][ny]float;
global snap: [ny][nx]float;
global srcwave: [nt * 8]float;
global energy: float;
global vmax: float;
global vmin: float;
global srcamp: float = 1.0;

func main() {
  init_grid();
  filter_source();
  for t = 0 .. nt {
    inject_source(t);
    update_stress();
    attenuate();
    viscosity();
    update_velocity();
    boundary();
    pml_layers();
    exchange_halo();
    check_energy();
    if (mod(t, 2.0) < 1.0) {
      snapshot();
    }
    stats();
  }
}

func init_grid() {
  for k = 0 .. nz {
    for j = 0 .. ny {
      for i = 0 .. nx {
        vx[k][j][i] = rand() * 0.01;
        vy[k][j][i] = rand() * 0.01;
        vz[k][j][i] = 0.0;
        sxx[k][j][i] = 0.0;
        syy[k][j][i] = 0.0;
        sxy[k][j][i] = 0.0;
        mem1[k][j][i] = 0.0;
        mem2[k][j][i] = 0.0;
      }
    }
  }
}

func inject_source(t: int) {
  var k: int = nz / 2;
  var j: int = ny / 2;
  var i: int = nx / 2;
  var wave: float = 0.0;
  wave = ricker(t);
  sxx[k][j][i] = sxx[k][j][i] + srcamp * wave;
  syy[k][j][i] = syy[k][j][i] + srcamp * wave;
}

func ricker(t: int): float {
  var a: float = (t - 2.0) * 0.7;
  var r: float = 0.0;
  r = (1.0 - 2.0 * a * a) * exp(0.0 - a * a);
  r = r + srcwave[t * 4];
  return r;
}

// Hot: stress update from velocity gradients (FD stencil, compute heavy).
func update_stress() {
  for k = 1 .. nz - 1 {
    for j = 1 .. ny - 1 {
      for i = 1 .. nx - 1 {
        var dvxx: float = (vx[k][j][i] - vx[k][j][i-1]) * 1.25;
        var dvyy: float = (vy[k][j][i] - vy[k][j-1][i]) * 1.25;
        var dvzz: float = (vz[k][j][i] - vz[k-1][j][i]) * 1.25;
        var dvxy: float = (vx[k][j][i] - vx[k][j-1][i] + vy[k][j][i] - vy[k][j][i-1]) * 0.625;
        var trace: float = dvxx + dvyy + dvzz;
        sxx[k][j][i] = sxx[k][j][i] + 1.8 * trace + 2.4 * dvxx + mem1[k][j][i] * 0.05;
        syy[k][j][i] = syy[k][j][i] + 1.8 * trace + 2.4 * dvyy + mem2[k][j][i] * 0.05;
        sxy[k][j][i] = sxy[k][j][i] + 1.2 * dvxy;
        if (sxx[k][j][i] > 4.0) {
          sxx[k][j][i] = 4.0 + (sxx[k][j][i] - 4.0) * 0.25;
        }
      }
    }
  }
}

// Hot: viscoelastic memory-variable update (compute heavy, no stencil).
func attenuate() {
  for k = 0 .. nz {
    for j = 0 .. ny {
      for i = 0 .. nx {
        var r1: float = mem1[k][j][i];
        var r2: float = mem2[k][j][i];
        mem1[k][j][i] = r1 * 0.95 + sxx[k][j][i] * 0.02 + r2 * 0.01;
        mem2[k][j][i] = r2 * 0.95 + syy[k][j][i] * 0.02 + r1 * 0.01;
      }
    }
  }
}

// Hot: velocity update from stress divergence (FD stencil).
func update_velocity() {
  for k = 1 .. nz - 1 {
    for j = 1 .. ny - 1 {
      for i = 1 .. nx - 1 {
        var dsx: float = (sxx[k][j][i+1] - sxx[k][j][i]) * 1.25 + (sxy[k][j+1][i] - sxy[k][j][i]) * 1.25;
        var dsy: float = (syy[k][j+1][i] - syy[k][j][i]) * 1.25 + (sxy[k][j][i+1] - sxy[k][j][i]) * 1.25;
        vx[k][j][i] = vx[k][j][i] + 0.004 * dsx;
        vy[k][j][i] = vy[k][j][i] + 0.004 * dsy;
        vz[k][j][i] = vz[k][j][i] + 0.002 * (sxx[k+1][j][i] - sxx[k][j][i]);
      }
    }
  }
}

// Warm: absorbing boundary on the two k-surfaces (light per-cell work).
func boundary() {
  for j = 0 .. ny {
    for i = 0 .. nx {
      vx[0][j][i] = vx[0][j][i] * 0.92;
      vy[0][j][i] = vy[0][j][i] * 0.92;
      vx[nz-1][j][i] = vx[nz-1][j][i] * 0.92;
      vy[nz-1][j][i] = vy[nz-1][j][i] * 0.92;
    }
  }
}

// Memory-bound: halo plane copy (stands in for the MPI exchange buffers).
func exchange_halo() {
  for k = 0 .. nz {
    for j = 0 .. ny {
      halo[k][j] = vx[k][j][nx-1];
    }
  }
  for k = 0 .. nz {
    for j = 0 .. ny {
      vx[k][j][0] = vx[k][j][0] * 0.5 + halo[k][j] * 0.5;
    }
  }
}

// Memory-heavy: viscous damping sweep over the memory variables (daxpy
// pattern, streaming, vectorizable by aggressive compilers).
func viscosity() {
  for k = 0 .. nz {
    for j = 0 .. ny {
      for i = 0 .. nx {
        sxy[k][j][i] = sxy[k][j][i] * 0.985 + mem1[k][j][i] * 0.005 - mem2[k][j][i] * 0.002;
      }
    }
  }
}

// Perfectly-matched-layer strips on the j-faces: medium per-cell work over
// thin boundary regions.
func pml_layers() {
  for k = 0 .. nz {
    for j = 0 .. 3 {
      for i = 0 .. nx {
        var d: float = (3.0 - j) * 0.11;
        vx[k][j][i] = vx[k][j][i] * (1.0 - d * d * 0.5);
        vy[k][j][i] = vy[k][j][i] * (1.0 - d * d * 0.5);
        vx[k][ny-1-j][i] = vx[k][ny-1-j][i] * (1.0 - d * d * 0.5);
        vy[k][ny-1-j][i] = vy[k][ny-1-j][i] * (1.0 - d * d * 0.5);
      }
    }
  }
}

// Tiny library-heavy routine: band-pass filter of the source time series.
func filter_source() {
  for t = 0 .. nt * 8 {
    var w: float = 0.0;
    w = sin(t * 0.39) * 0.6 + cos(t * 0.17) * 0.4;
    srcwave[t] = w * exp(0.0 - t * 0.01);
  }
}

// Occasional output: copy a velocity plane into the snapshot buffer
// (memory burst, every other step).
func snapshot() {
  var k: int = nz / 2;
  for j = 0 .. ny {
    for i = 0 .. nx {
      snap[j][i] = vx[k][j][i];
    }
  }
}

// Min/max field statistics with data-dependent branches.
func stats() {
  vmax = 0.0;
  vmin = 0.0;
  for k = 0 .. nz step 2 {
    for j = 0 .. ny step 2 {
      for i = 0 .. nx step 2 {
        var v: float = vx[k][j][i];
        if (v > vmax) {
          vmax = v;
        }
        if (v < vmin) {
          vmin = v;
        }
      }
    }
  }
}

// Reduction with a data-dependent branch (profiled).
func check_energy() {
  energy = 0.0;
  for k = 0 .. nz step 2 {
    for j = 0 .. ny step 2 {
      for i = 0 .. nx step 2 {
        var e: float = vx[k][j][i] * vx[k][j][i] + vy[k][j][i] * vy[k][j][i];
        if (e > 0.0001) {
          energy = energy + e;
        }
      }
    }
  }
}
`, nx, ny, nz, nt)
	return &Workload{
		Name: "sord",
		Description: fmt.Sprintf(
			"SORD earthquake simulator: %dx%dx%d grid, %d time steps", nz, ny, nx, nt),
		Source: src,
		Seed:   101,
	}
}

// CHARGEI models the GTC gyrokinetic particle-in-cell ion-charge
// deposition function: eight loop structures where some loops produce the
// arrays consumed by others (weights -> scatter -> smooth -> field).
func CHARGEI(s Scale) *Workload {
	npart := s.count(12000)
	mgrid := s.count(8192)
	src := fmt.Sprintf(`
// CHARGEI: GTC particle-in-cell ion charge deposition.
global npart: int = %d;
global mgrid: int = %d;

global px: [npart]float;    // particle positions in [0,1)
global pv: [npart]float;    // particle velocities
global w0: [npart]float;    // deposition weights (produced, then consumed)
global w1: [npart]float;
global gidx: [npart]int;    // grid cell of each particle
global gidx2: [npart]int;   // gyro-ring deposition points 2-4
global gidx3: [npart]int;
global gidx4: [npart]int;
global density: [mgrid]float;
global smoothed: [mgrid]float;
global field: [mgrid]float;
global phi: [mgrid]float;
global total: float;

func main() {
  load_particles();
  compute_weights();
  zero_grid();
  scatter_charge();
  smooth_grid();
  smooth_grid();
  solve_field();
  gather_field();
  moments();
}

// Loop 1: particle loading.
func load_particles() {
  for p = 0 .. npart {
    px[p] = rand();
    pv[p] = rand() * 2.0 - 1.0;
  }
}

// Loop 2 (hot, ~44%%): per-particle gyro-averaging weights (compute heavy).
func compute_weights() {
  for p = 0 .. npart {
    var x: float = px[p];
    var v: float = pv[p];
    var rho: float = 0.02 + 0.01 * v * v;
    var t: float = x * 6.2831853;
    var c1: float = 1.0 - t * t / 2.0 + t * t * t * t / 24.0;
    var s1: float = t - t * t * t / 6.0;
    w0[p] = (1.0 - rho) * (0.5 + 0.5 * c1 * c1);
    w1[p] = rho * (0.5 + 0.5 * s1 * s1);
    gidx[p] = x * (mgrid - 2);
    gidx2[p] = mod(x + rho, 1.0) * (mgrid - 2);
    gidx3[p] = mod(x + 2.0 * rho, 1.0) * (mgrid - 2);
    gidx4[p] = mod(x + 3.0 * rho, 1.0) * (mgrid - 2);
  }
}

// Loop 3: grid reset (memory streaming).
func zero_grid() {
  for g = 0 .. mgrid {
    density[g] = 0.0;
  }
}

// Loop 4 (hot, ~38%%): four-point gyro-ring scatter deposition (indirect
// stores spread across the grid, cache unfriendly).
func scatter_charge() {
  for p = 0 .. npart {
    var g: int = gidx[p];
    var g2: int = gidx2[p];
    var g3: int = gidx3[p];
    var g4: int = gidx4[p];
    density[g] = density[g] + w0[p] * 0.25;
    density[g+1] = density[g+1] + w0[p] * 0.25;
    density[g2] = density[g2] + w1[p] * 0.25;
    density[g2+1] = density[g2+1] + w1[p] * 0.25;
    density[g3] = density[g3] + w0[p] * 0.25;
    density[g3+1] = density[g3+1] + w0[p] * 0.25;
    density[g4] = density[g4] + w1[p] * 0.25;
    density[g4+1] = density[g4+1] + w1[p] * 0.25;
  }
}

// Loops 5-6: charge smoothing sweeps (stencil over the grid).
func smooth_grid() {
  for g = 1 .. mgrid - 1 {
    smoothed[g] = density[g] * 0.5 + (density[g-1] + density[g+1]) * 0.25;
  }
  for g = 1 .. mgrid - 1 {
    density[g] = smoothed[g];
  }
}

// Loop 7: tridiagonal-ish field solve sweep.
func solve_field() {
  phi[0] = 0.0;
  for g = 1 .. mgrid - 1 {
    phi[g] = (density[g] + phi[g-1] * 0.45) * 0.62;
  }
  for g = 1 .. mgrid - 1 {
    field[g] = (phi[g+1] - phi[g-1]) * 0.5;
  }
}

// Loop 8: gather field back to particles (indirect loads over the ring).
func gather_field() {
  for p = 0 .. npart {
    var g: int = gidx[p];
    var g2: int = gidx2[p];
    pv[p] = pv[p] + (field[g] + field[g2]) * 0.5 * w0[p];
  }
}

// Final reduction.
func moments() {
  total = 0.0;
  for g = 0 .. mgrid {
    total = total + density[g];
  }
}
`, npart, mgrid)
	return &Workload{
		Name: "chargei",
		Description: fmt.Sprintf(
			"GTC CHARGEI ion-charge deposition: %d particles, %d grid points", npart, mgrid),
		Source: src,
		Seed:   202,
	}
}

// SRAD models speckle-reducing anisotropic diffusion for ultrasound/radar
// imaging: a signature is computed from a speckle sample region (heavy in
// exp and rand library calls, the paper's #1 and #3 hot spots), then the
// image is diffused with per-pixel coefficients.
func SRAD(s Scale) *Workload {
	n := s.dim(96)
	sample := n / 4
	niter := s.count(2)
	src := fmt.Sprintf(`
// SRAD: speckle reducing anisotropic diffusion (medical imaging).
global n: int = %d;
global sample: int = %d;
global niter: int = %d;

global img: [n][n]float;
global coef: [n][n]float;
global dn: [n][n]float;
global ds: [n][n]float;
global de: [n][n]float;
global dw: [n][n]float;
global sigmean: float;
global sigvar: float;

func main() {
  gen_image();
  for it = 0 .. niter {
    sample_signature();
    compute_coefficients();
    diffuse();
  }
}

// Synthetic speckled image: multiplicative noise via rand + exp.
func gen_image() {
  for i = 0 .. n {
    for j = 0 .. n {
      var noise: float = 0.0;
      noise = rand();
      img[i][j] = exp((0.3 + 0.1 * noise) * 2.0) * 0.25;
    }
  }
}

// Hot (library): signature of the speckle sample region.
func sample_signature() {
  var sum: float = 0.0;
  var sum2: float = 0.0;
  for i = 0 .. sample {
    for j = 0 .. sample {
      var v: float = img[i][j];
      var jitter: float = 0.0;
      jitter = rand();
      var lv: float = 0.0;
      lv = log(v + 0.0001 + jitter * 0.0001);
      sum = sum + lv;
      sum2 = sum2 + lv * lv;
    }
  }
  var cnt: float = sample * sample;
  sigmean = sum / cnt;
  sigvar = (sum2 - sum * sum / cnt) / cnt;
}

// Hot: diffusion coefficient per pixel (divisions + exp similarity).
func compute_coefficients() {
  var q0: float = sigvar / (sigmean * sigmean + 0.0001);
  for i = 1 .. n - 1 {
    for j = 1 .. n - 1 {
      var c: float = img[i][j];
      dn[i][j] = img[i-1][j] - c;
      ds[i][j] = img[i+1][j] - c;
      de[i][j] = img[i][j-1] - c;
      dw[i][j] = img[i][j+1] - c;
      var g2: float = (dn[i][j] * dn[i][j] + ds[i][j] * ds[i][j] + de[i][j] * de[i][j] + dw[i][j] * dw[i][j]) / (c * c + 0.0001);
      var l: float = (dn[i][j] + ds[i][j] + de[i][j] + dw[i][j]) / (c + 0.0001);
      var q: float = (0.5 * g2 - 0.0625 * l * l) / ((1.0 + 0.25 * l) * (1.0 + 0.25 * l) + 0.0001);
      var e: float = 0.0;
      e = exp(0.0 - max(0.0, q - q0));
      coef[i][j] = min(1.0, e);
    }
  }
}

// Hot: image update from diffusion fluxes (stencil, memory heavy).
func diffuse() {
  for i = 1 .. n - 1 {
    for j = 1 .. n - 1 {
      var cn: float = coef[i][j];
      var cs: float = coef[i+1][j];
      var ce: float = coef[i][j];
      var cw: float = coef[i][j+1];
      img[i][j] = img[i][j] + 0.0625 * (cn * dn[i][j] + cs * ds[i][j] + ce * de[i][j] + cw * dw[i][j]);
    }
  }
}
`, n, sample, niter)
	return &Workload{
		Name: "srad",
		Description: fmt.Sprintf(
			"SRAD speckle removal: %dx%d image, %dx%d sample, %d iterations", n, n, sample, sample, niter),
		Source: src,
		Seed:   303,
	}
}

// CFD models the unstructured-grid finite-volume 3-D Euler solver
// mini-application: a time-stepping loop updating pressure, momentum, and
// density over cells with explicit neighbor indirection, plus the
// division-heavy velocity recovery the paper singles out (its model treats
// divisions as ordinary FLOPs and underestimates that spot).
func CFD(s Scale) *Workload {
	ncell := s.count(6000)
	niter := s.count(3)
	src := fmt.Sprintf(`
// CFD: unstructured finite-volume Euler solver.
global ncell: int = %d;
global nnb: int = 4;
global niter: int = %d;

global nbidx: [ncell][nnb]int;   // neighbor connectivity
global density: [ncell]float;
global momx: [ncell]float;
global momy: [ncell]float;
global energy: [ncell]float;
global pressure: [ncell]float;
global velx: [ncell]float;
global vely: [ncell]float;
global fluxd: [ncell]float;
global fluxx: [ncell]float;
global fluxy: [ncell]float;
global fluxe: [ncell]float;
global resid: float;

func main() {
  init_mesh();
  for it = 0 .. niter {
    compute_velocity();
    compute_pressure();
    compute_flux();
    time_step();
    check_residual();
  }
}

// Mesh setup: pseudo-random connectivity (unstructured access pattern).
func init_mesh() {
  for c = 0 .. ncell {
    density[c] = 1.0;
    momx[c] = 0.1;
    momy[c] = 0.0;
    energy[c] = 2.5;
    for k = 0 .. nnb {
      var r: float = 0.0;
      r = rand();
      nbidx[c][k] = r * (ncell - 1);
    }
  }
}

// The paper's spot 6: velocity from density and momentum — a series of
// divisions, expanded on BG/Q into reciprocal-estimate + Newton iterations.
func compute_velocity() {
  for c = 0 .. ncell {
    velx[c] = momx[c] / density[c];
    vely[c] = momy[c] / density[c];
  }
}

// Pressure from the equation of state.
func compute_pressure() {
  for c = 0 .. ncell {
    var ke: float = 0.5 * (momx[c] * velx[c] + momy[c] * vely[c]);
    pressure[c] = 0.4 * (energy[c] - ke);
    if (pressure[c] < 0.001) {
      pressure[c] = 0.001;
    }
  }
}

// Hot: flux accumulation over neighbor faces (indirect loads, compute).
func compute_flux() {
  for c = 0 .. ncell {
    var fd: float = 0.0;
    var fx: float = 0.0;
    var fy: float = 0.0;
    var fe: float = 0.0;
    for k = 0 .. nnb {
      var nb: int = nbidx[c][k];
      var avgp: float = 0.5 * (pressure[c] + pressure[nb]);
      var avgu: float = 0.5 * (velx[c] + velx[nb]);
      var avgv: float = 0.5 * (vely[c] + vely[nb]);
      fd = fd + density[nb] * avgu * 0.25;
      fx = fx + (momx[nb] * avgu + avgp) * 0.25;
      fy = fy + (momy[nb] * avgv + avgp) * 0.25;
      fe = fe + (energy[nb] + avgp) * avgu * 0.25;
    }
    fluxd[c] = fd;
    fluxx[c] = fx;
    fluxy[c] = fy;
    fluxe[c] = fe;
  }
}

// Conserved-variable update.
func time_step() {
  for c = 0 .. ncell {
    density[c] = density[c] + 0.002 * (fluxd[c] - density[c] * 0.1);
    momx[c] = momx[c] + 0.002 * (fluxx[c] - momx[c] * 0.1);
    momy[c] = momy[c] + 0.002 * (fluxy[c] - momy[c] * 0.1);
    energy[c] = energy[c] + 0.002 * (fluxe[c] - energy[c] * 0.1);
  }
}

// Residual norm with an early-convergence branch.
func check_residual() {
  resid = 0.0;
  for c = 0 .. ncell step 4 {
    var d: float = fluxd[c];
    if (d < 0.0) {
      d = 0.0 - d;
    }
    resid = resid + d;
  }
}
`, ncell, niter)
	return &Workload{
		Name: "cfd",
		Description: fmt.Sprintf(
			"CFD unstructured Euler solver: %d cells, %d iterations", ncell, niter),
		Source: src,
		Seed:   404,
	}
}

// STASSUIJ models the Green's Function Monte Carlo two-body correlation
// kernel: phase 1 multiplies a sparse 132x132 real matrix with a dense
// 132xNCOL complex matrix (the paper's top spot at 68%, vectorized by the
// XL compiler — hence the @vec annotation the analytical model ignores);
// phase 2 exchanges groups of four elements per row in a butterfly pattern
// driven by an index array (the 23% second spot).
func STASSUIJ(s Scale) *Workload {
	nrow := 132
	ncol := s.count(384)
	nnzPerRow := 5
	src := fmt.Sprintf(`
// STASSUIJ: GFMC two-body correlation operator kernel.
global nrow: int = %d;
global ncol: int = %d;
global nnzrow: int = %d;
global nnz: int = nrow * nnzrow;

global sval: [nnz]float;     // sparse matrix values (real)
global scol: [nnz]int;       // sparse matrix column indices
global densre: [nrow][ncol]float;
global densim: [nrow][ncol]float;
global outre: [nrow][ncol]float;
global outim: [nrow][ncol]float;
global xchg: [nrow][4]int;   // butterfly exchange indices
global checksum: float;

func main() {
  setup();
  spmm();
  butterfly();
  reduce();
}

func setup() {
  for r = 0 .. nrow {
    for k = 0 .. nnzrow {
      var rr: float = 0.0;
      rr = rand();
      sval[r * nnzrow + k] = rr - 0.5;
      var cc: float = 0.0;
      cc = rand();
      scol[r * nnzrow + k] = cc * (nrow - 1);
    }
    for q = 0 .. 4 {
      var xr: float = 0.0;
      xr = rand();
      xchg[r][q] = xr * (ncol / 4 - 1);
    }
  }
  for r = 0 .. nrow {
    for c = 0 .. ncol {
      densre[r][c] = 0.001 * (r + c);
      densim[r][c] = 0.001 * (r - c);
      outre[r][c] = 0.0;
      outim[r][c] = 0.0;
    }
  }
}

// Hot spot 1 (68%%): sparse x dense complex multiply. The inner loop takes
// one sparse element and scales the complex dense row — vectorized by the
// native compiler (@vec), which the paper's hardware model does not credit.
func spmm() {
  for r = 0 .. nrow {
    for k = 0 .. nnzrow {
      var v: float = sval[r * nnzrow + k];
      var src: int = scol[r * nnzrow + k];
      for c = 0 .. ncol @vec {
        outre[r][c] = outre[r][c] + v * densre[src][c];
        outim[r][c] = outim[r][c] + v * densim[src][c];
      }
    }
  }
}

// Hot spot 2 (23%%): butterfly exchange of groups of four elements per row,
// with the exchange indices coming from a separate array.
func butterfly() {
  for r = 0 .. nrow {
    for g = 0 .. ncol / 4 {
      var q: int = 0;
      q = mod(g, 4.0);
      var pairbase: int = xchg[r][q];
      var a: int = g * 4;
      var b: int = pairbase * 4;
      var tre: float = outre[r][a];
      var tim: float = outim[r][a];
      outre[r][a] = outre[r][b];
      outim[r][a] = outim[r][b];
      outre[r][b] = tre;
      outim[r][b] = tim;
    }
  }
}

func reduce() {
  checksum = 0.0;
  for r = 0 .. nrow {
    for c = 0 .. ncol step 8 {
      checksum = checksum + outre[r][c] * outre[r][c] + outim[r][c] * outim[r][c];
    }
  }
}
`, nrow, ncol, nnzPerRow)
	return &Workload{
		Name: "stassuij",
		Description: fmt.Sprintf(
			"STASSUIJ GFMC correlation kernel: %dx%d sparse x %dx%d complex dense", nrow, nrow, nrow, ncol),
		Source: src,
		Seed:   505,
	}
}

// Pedagogical returns the paper's Figure 2-style example directly as a code
// skeleton (the paper presents it in skeleton form), plus its input
// context. It exercises branches that assign context variables, a function
// called under forked contexts, a while loop with a probabilistic break,
// and a library call.
func Pedagogical() (*skeleton.Program, expr.Env) {
	const text = `
# pedagogical example in the spirit of the paper's Figure 2
def main(n, m)
  var A[n][m]
  set knob = 0
  for i = 0 : n label="outer"
    comp flops=6 loads=3 stores=1 name="prep"
    if prob=0.3
      set knob = 1
    else
      set knob = 0
    end
    call foo(i, knob)
  end
  while iters=m/4 label="conv"
    comp flops=8*m loads=3*m name="solve"
    break prob=0.02
  end
  lib exp count=n name="exptail"
end

def foo(x, k)
  if cond = k == 1
    comp flops=40*x loads=2*x stores=1 name="heavy"
  else
    comp flops=12 loads=2 name="light"
  end
end
`
	return skeleton.MustParse("pedagogical", text), expr.Env{"n": 64, "m": 128}
}
