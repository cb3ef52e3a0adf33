package explore

import (
	"fmt"
	"math"
)

// Surrogate is the cheap analytical stand-in the adaptive explorer trains
// online from completed variants: a ridge-regularized weighted least-squares
// model over the grid's axis values plus quadratic self-terms, with every
// feature standardized against the training sample. It is deliberately
// stdlib-only and deterministic — fitting the same samples in the same
// order produces bit-identical coefficients, which is what makes a fixed
// -adaptive-seed reproduce its round trace byte for byte.
//
// The model it learns,
//
//	y ≈ ȳ + Σ_j θ_j·z_j + Σ_j θ_{d+j}·z_j²   (z = standardized axis value)
//
// is intentionally crude: the objective (projected total time) is close to
// monotone in each machine parameter under the roofline model, and a
// quadratic fit over a few dozen samples ranks the remaining grid well
// enough to steer evaluation toward the optimum. The exact engine stays
// the referee — the surrogate only chooses what to evaluate next, never
// what a variant's time is.
type Surrogate struct {
	dims int // axes per sample

	// Training set, in observation order. Fitting is order-sensitive at
	// the ulp level (float summation), so callers that need reproducible
	// fits feed samples in a deterministic order.
	xs [][]float64
	ys []float64
	ws []float64

	// Fitted state (valid when fitted).
	fitted bool
	mean   []float64 // per-feature mean
	scale  []float64 // per-feature std; 0 marks a constant (dropped) column
	ymean  float64
	theta  []float64
	r2     float64
}

// NewSurrogate returns an empty surrogate over dims grid axes.
func NewSurrogate(dims int) *Surrogate {
	if dims < 0 {
		dims = 0
	}
	return &Surrogate{dims: dims}
}

// Observe adds one completed variant: x is its axis-value vector (length
// dims), y the objective (projected total time), w the sample weight —
// the evaluation's confidence score, so degraded evaluations pull the fit
// less than trustworthy ones. Non-positive and NaN weights are clamped to
// a small floor rather than dropped: even a low-confidence sample carries
// ranking signal. Samples with NaN/Inf objectives are rejected.
func (s *Surrogate) Observe(x []float64, y, w float64) error {
	if len(x) != s.dims {
		return fmt.Errorf("explore: surrogate sample has %d axes, want %d", len(x), s.dims)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("explore: surrogate objective %v is not finite", y)
	}
	if math.IsNaN(w) || w <= 0 {
		w = 1e-3
	}
	s.xs = append(s.xs, append([]float64(nil), x...))
	s.ys = append(s.ys, y)
	s.ws = append(s.ws, w)
	s.fitted = false
	return nil
}

// nfeat returns the feature count: linear + quadratic self-term per axis.
func (s *Surrogate) nfeat() int { return 2 * s.dims }

// features expands one axis vector into the raw (unstandardized) feature
// vector.
func (s *Surrogate) features(x []float64) []float64 {
	f := make([]float64, s.nfeat())
	for j, v := range x {
		f[j] = v
		f[s.dims+j] = v * v
	}
	return f
}

// Fit solves the ridge-regularized weighted normal equations over the
// observed samples. It never fails on degenerate data: constant feature
// columns (a single-valued axis, a one-point grid) are standardized to
// zero and effectively dropped, an empty or single-sample training set
// fits the weighted-mean predictor, and the ridge term keeps the system
// solvable when samples are fewer than features.
func (s *Surrogate) Fit() {
	n := len(s.ys)
	d := s.nfeat()
	s.mean = make([]float64, d)
	s.scale = make([]float64, d)
	s.theta = make([]float64, d)
	s.ymean = 0
	s.r2 = 0
	s.fitted = true
	if n == 0 {
		return
	}

	// Weighted feature means and standard deviations ("standardized
	// online": the standardization is re-derived from whatever has been
	// observed so far, so early rounds are scaled to early data).
	var wsum float64
	feats := make([][]float64, n)
	for i, x := range s.xs {
		feats[i] = s.features(x)
		wsum += s.ws[i]
		s.ymean += s.ws[i] * s.ys[i]
	}
	s.ymean /= wsum
	for j := 0; j < d; j++ {
		var m float64
		for i := range feats {
			m += s.ws[i] * feats[i][j]
		}
		m /= wsum
		var v float64
		for i := range feats {
			dv := feats[i][j] - m
			v += s.ws[i] * dv * dv
		}
		v /= wsum
		s.mean[j] = m
		if v > 1e-24 {
			s.scale[j] = math.Sqrt(v)
		}
	}
	if n == 1 {
		// One sample: the mean predictor is exact; R² of a zero-variance
		// fit is defined as 1 here (nothing left to explain).
		s.r2 = 1
		return
	}

	// Normal equations over standardized features: (ZᵀWZ + λI)θ = ZᵀW(y-ȳ).
	// λ scales with total weight so regularization strength is independent
	// of the sample count.
	lambda := 1e-6 * wsum
	a := make([][]float64, d)
	b := make([]float64, d)
	for j := range a {
		a[j] = make([]float64, d)
		a[j][j] = lambda
	}
	z := make([]float64, d)
	for i := range feats {
		for j := 0; j < d; j++ {
			z[j] = s.standardize(feats[i][j], j)
		}
		dy := s.ys[i] - s.ymean
		w := s.ws[i]
		for j := 0; j < d; j++ {
			if z[j] == 0 {
				continue
			}
			b[j] += w * z[j] * dy
			for k := j; k < d; k++ {
				a[j][k] += w * z[j] * z[k]
			}
		}
	}
	for j := 0; j < d; j++ {
		for k := 0; k < j; k++ {
			a[j][k] = a[k][j]
		}
	}
	theta, ok := solve(a, b)
	if ok {
		s.theta = theta
	}

	// Weighted R² on the training set.
	var ssr, sst float64
	for i := range feats {
		pred := s.predictFeatures(feats[i])
		ssr += s.ws[i] * (s.ys[i] - pred) * (s.ys[i] - pred)
		sst += s.ws[i] * (s.ys[i] - s.ymean) * (s.ys[i] - s.ymean)
	}
	if sst <= 0 {
		s.r2 = 1
	} else {
		s.r2 = 1 - ssr/sst
	}
}

// standardize maps one raw feature value into the fitted z-space; constant
// columns map to 0 (they carry no ranking signal).
func (s *Surrogate) standardize(v float64, j int) float64 {
	if s.scale[j] == 0 {
		return 0
	}
	return (v - s.mean[j]) / s.scale[j]
}

// Predict returns the fitted objective estimate for one axis vector. An
// unfitted (or sample-free) surrogate predicts the weighted mean (0 when
// empty) — callers should Fit after observing.
func (s *Surrogate) Predict(x []float64) float64 {
	if !s.fitted || len(x) != s.dims {
		return s.ymean
	}
	return s.predictFeatures(s.features(x))
}

func (s *Surrogate) predictFeatures(f []float64) float64 {
	y := s.ymean
	for j, v := range f {
		if s.scale[j] == 0 {
			continue
		}
		y += s.theta[j] * s.standardize(v, j)
	}
	return y
}

// R2 returns the training-set weighted coefficient of determination of the
// last Fit (0 before any fit). It can be negative when the ridge fit is
// worse than the mean predictor — a useful signal that the surrogate is
// not yet trustworthy.
func (s *Surrogate) R2() float64 { return s.r2 }

// YStd returns the weighted standard deviation of the observed objectives
// — the natural unit for the acquisition loop's exploration bonus.
func (s *Surrogate) YStd() float64 {
	n := len(s.ys)
	if n == 0 {
		return 0
	}
	var wsum, m float64
	for i, y := range s.ys {
		wsum += s.ws[i]
		m += s.ws[i] * y
	}
	m /= wsum
	var v float64
	for i, y := range s.ys {
		v += s.ws[i] * (y - m) * (y - m)
	}
	return math.Sqrt(v / wsum)
}

// solve runs Gaussian elimination with partial pivoting on the dense
// system a·x = b (a is mutated). Returns ok=false if a pivot degenerates
// despite the ridge term — callers then keep the mean predictor.
func solve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column at or below the diagonal.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if a[p][col] == 0 || math.IsNaN(a[p][col]) {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, true
}
