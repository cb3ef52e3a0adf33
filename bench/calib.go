package main

import (
	"sort"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared virtual machines whose speed drifts as
// neighbours load the host. On the 2-vCPU host the bounds were measured
// on, one 2048-variant sweep took 11.8 ms in one 15-second window and
// 17.3 ms a few minutes later, CPU time grew alike and steal time stayed
// near zero; ten runs of a workload spread by 20-40% between their
// quartiles, wider than any useful regression bound. So the requests of a
// run are interleaved with a fixed kernel that shares no code with the
// program under test, timed while no request is in flight, and every
// timing is scaled by nominal/observed kernel time: a time t is reported
// as t * nominal / observed and a rate r as r * observed / nominal. Over
// that drift the ratio of sweep to kernel time varied half as much as the
// sweep time did. Raw values and the factor are printed beside the scaled
// ones.

// calibrationNominal is the kernel's median time, interleaved with
// requests, on the reference host (Intel Xeon, 2 vCPUs at 2.0 GHz).
const calibrationNominal = 950 * time.Microsecond

// calibrationInterval is the least time between two kernel runs.
const calibrationInterval = 250 * time.Millisecond

// kernel is the fixed work. It allocates nothing, so it never pays for
// the program's garbage, and its ~400 KB working set stays near the L2
// cache: xorshift fills, linear-probing inserts, a float reduction and a
// sort.
type kernel struct {
	arena, table []uint64
	xs, sorted   []float64
}

var kernelSink float64

func newKernel() *kernel {
	k := &kernel{
		arena: make([]uint64, 1<<15), table: make([]uint64, 1<<14),
		xs: make([]float64, 4096), sorted: make([]float64, 4096),
	}
	x := uint64(88172645463325252)
	for i := range k.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.xs[i] = float64(x%1000003) / 1000003
	}
	return k
}

func (k *kernel) run() time.Duration {
	start := time.Now()
	x := uint64(2463534242)
	for r := 0; r < 4; r++ {
		for i := range k.arena {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.arena[i] = x
		}
		clear(k.table)
		for _, v := range k.arena[:1<<13] {
			h := (v * 0x9E3779B97F4A7C15) >> 50
			for k.table[h] != 0 {
				h = (h + 1) & (1<<14 - 1)
			}
			k.table[h] = v
		}
	}
	f := 0.0
	for i, v := range k.xs {
		f += v*float64(i) + f*1e-9
	}
	copy(k.sorted, k.xs)
	sort.Float64s(k.sorted)
	kernelSink = f + k.sorted[0]
	return time.Since(start)
}

// calibration interleaves kernel runs with a run's requests. Requests
// hold gate for reading while in flight; a kernel run holds it for
// writing, so it never overlaps a request of any client.
type calibration struct {
	k    *kernel
	gate sync.RWMutex

	mu      sync.Mutex
	last    time.Time
	samples []float64
	spent   time.Duration
}

func newCalibration() *calibration { return &calibration{k: newKernel()} }

// maybe runs the kernel if none ran for calibrationInterval.
func (c *calibration) maybe() {
	c.mu.Lock()
	due := time.Since(c.last) >= calibrationInterval
	if due {
		c.last = time.Now()
	}
	c.mu.Unlock()
	if !due {
		return
	}
	c.gate.Lock()
	d := c.k.run()
	c.gate.Unlock()
	c.mu.Lock()
	c.samples = append(c.samples, float64(d))
	c.spent += d
	c.mu.Unlock()
}

// kernelTime is the time the kernel ran, which measure leaves out of its
// wall time.
func (c *calibration) kernelTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

// factor is nominal over observed median kernel time: below 1 when the
// host ran slow. It is 1 without samples.
func (c *calibration) factor() (f, observed float64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 1, 0, 0
	}
	observed = median(c.samples)
	return float64(calibrationNominal) / observed, observed, len(c.samples)
}
