package gp

import (
	"fmt"
	"math"

	"spotlight/internal/linalg"
)

// This file implements the primal form of the linear-kernel GP. The dual
// form in gp.go prices every kernel alike: an n×n Cholesky per fit
// (O(n³)) and an O(n²) solve per prediction. But the paper's default
// kernel k(x,y) = bias + x·y has a finite feature map φ(x) = [√bias, x]
// of dimension D = d+1 (a dozen or so for the Figure 4 feature spaces),
// so the identical posterior can be computed from the D×D system
//
//	A = Φ̃ᵀΦ̃ + σ²I,   w = A⁻¹Φ̃ᵀỹ
//	mean(x*) = φ̃*·w,   var(x*) = σ²(1 + φ̃*ᵀA⁻¹φ̃*)
//
// (push-through identity: Φᵀ(ΦΦᵀ+σ²I)⁻¹ = (ΦᵀΦ+σ²I)⁻¹Φᵀ), where tildes
// denote the same per-feature/target standardization the dual form
// applies. PrimalStats maintains the raw second moments incrementally —
// one rank-1 update per observation, O(d²) — and Fit assembles and
// factorizes the standardized D×D system in O(d³), independent of n.
// Prediction costs O(d) for the mean and O(d²) for the variance.
//
// daBO's invalid-region penalty retargets every infeasible observation
// whenever the worst valid cost changes, which would break a naive
// incremental design; penalized rows are therefore accumulated as a
// separate moment group whose shared target is supplied at Fit time.

// PrimalStats accumulates the sufficient statistics of a linear-kernel
// GP incrementally. Add and AddPenalized are O(d²) rank-1 updates; Fit
// produces an immutable fitted PrimalLinear in O(d³) regardless of how
// many observations were absorbed.
type PrimalStats struct {
	bias  float64
	noise float64
	dim   int // fixed by the first Add/AddPenalized

	n   int            // valid observations
	m   *linalg.Matrix // Σ u·uᵀ over valid rows, u = [1, x], (d+1)×(d+1)
	ty  []float64      // Σ y·u over valid rows
	syy float64        // Σ y² over valid rows

	pn int            // penalized observations (shared target set at Fit)
	pm *linalg.Matrix // Σ u·uᵀ over penalized rows

	// Fit's temporaries, allocated by the first Fit and overwritten by
	// every later one: the combined target sums and the standardized
	// system A·w = b, all discarded once the system is factorized.
	a      *linalg.Matrix
	tyc, b []float64
	// sol is the prediction scratch shared by every model this
	// accumulator fits (see PrimalLinear).
	sol []float64
}

// NewPrimalStats returns an empty accumulator for the kernel
// k(x,y) = bias + x·y with the given observation noise variance.
func NewPrimalStats(bias, noise float64) *PrimalStats {
	if noise <= 0 {
		noise = 1e-6
	}
	return &PrimalStats{bias: bias, noise: noise}
}

// Counts returns how many valid and penalized observations have been
// absorbed.
func (p *PrimalStats) Counts() (valid, penalized int) { return p.n, p.pn }

// Add absorbs one valid observation (feature vector x, target y) as a
// rank-1 update of the raw moment matrices. All observations must share
// one dimensionality.
func (p *PrimalStats) Add(x []float64, y float64) {
	p.ensureDim(len(x))
	p.n++
	accumulate(p.m, x)
	p.ty[0] += y
	for j, v := range x {
		p.ty[j+1] += y * v
	}
	p.syy += y * y
}

// AddPenalized absorbs one observation whose target is the shared
// penalty value chosen later, at Fit time.
func (p *PrimalStats) AddPenalized(x []float64) {
	p.ensureDim(len(x))
	p.pn++
	accumulate(p.pm, x)
}

func (p *PrimalStats) ensureDim(d int) {
	if p.m == nil {
		p.dim = d
		p.m = linalg.NewMatrix(d+1, d+1)
		p.pm = linalg.NewMatrix(d+1, d+1)
		p.ty = make([]float64, d+1)
	}
	if d != p.dim {
		panic(fmt.Sprintf("gp: primal observation has %d features, accumulator holds %d", d, p.dim))
	}
}

// accumulate adds u·uᵀ for u = [1, x] to the upper triangle of m (the
// lower triangle is never read before Fit mirrors it).
func accumulate(m *linalg.Matrix, x []float64) {
	m.Set(0, 0, m.At(0, 0)+1)
	row0 := m.Row(0)
	for j, v := range x {
		row0[j+1] += v
	}
	for j, vj := range x {
		row := m.Row(j + 1)
		for k := j; k < len(x); k++ {
			row[k+1] += vj * x[k]
		}
	}
}

// finite reports whether every accumulated moment is a finite number; a
// single non-finite observation slipped past the caller's filters would
// otherwise surface only as NaN predictions much later.
func (p *PrimalStats) finite() bool {
	for j := 0; j <= p.dim; j++ {
		for k := j; k <= p.dim; k++ {
			if v := p.m.At(j, k) + p.pm.At(j, k); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if v := p.ty[j]; math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return !(math.IsNaN(p.syy) || math.IsInf(p.syy, 0))
}

// constRelTol is the relative-variance floor below which a feature (or
// the target) is treated as constant and its scale clamped to 1, exactly
// as the dual form clamps an exactly-zero standard deviation. Moment
// subtraction cannot distinguish relative variances below ~1e-12 from
// cancellation noise, so near-constant columns are folded into the same
// clamp rather than standardized by a garbage scale.
const constRelTol = 1e-12

// momentScale derives (mean, std) from a count, a sum, and a sum of
// squares, with the dual form's clamping rules.
func momentScale(n float64, sum, sumSq float64) (mean, std float64) {
	mean = sum / n
	msq := sumSq / n
	v := msq - mean*mean
	if n < 2 || v <= constRelTol*msq {
		return mean, 1
	}
	return mean, math.Sqrt(v)
}

// Fit assembles the standardized primal system — penalized rows take the
// given target — and returns the fitted surrogate. It returns ErrNoData
// when nothing has been absorbed. The accumulator is unchanged and can
// keep absorbing observations for the next fit.
func (p *PrimalStats) Fit(penalty float64) (*PrimalLinear, error) {
	nt := p.n + p.pn
	if nt == 0 {
		return nil, ErrNoData
	}
	if math.IsNaN(penalty) || math.IsInf(penalty, 0) {
		return nil, fmt.Errorf("%w: penalty %v", ErrNonFinite, penalty)
	}
	if !p.finite() {
		return nil, fmt.Errorf("%w: accumulated moments", ErrNonFinite)
	}
	d := p.dim
	fn := float64(nt)
	if p.a == nil {
		p.a = linalg.NewMatrix(d+1, d+1)
		buf := make([]float64, (d+1)*(2+blockWidth))
		p.tyc, p.b, p.sol = buf[:d+1], buf[d+1:2*(d+1)], buf[2*(d+1):]
	}

	// Combined raw moments over valid + penalized rows (upper triangle),
	// summed where they are read.
	mc := func(i, j int) float64 { return p.m.At(i, j) + p.pm.At(i, j) }
	// Combined target sums: penalized rows contribute penalty·u.
	ty := p.tyc
	for j := 0; j <= d; j++ {
		ty[j] = p.ty[j] + penalty*p.pm.At(0, j)
	}
	syy := p.syy + penalty*penalty*float64(p.pn)

	xMean := make([]float64, d)
	xStd := make([]float64, d)
	for j := 0; j < d; j++ {
		xMean[j], xStd[j] = momentScale(fn, mc(0, j+1), mc(j+1, j+1))
	}
	yMean, yStd := momentScale(fn, ty[0], syy)

	// Standardized system A·w = b over the basis [√bias, x̃₁ … x̃d].
	sb := math.Sqrt(p.bias)
	a, b := p.a, p.b
	a.Set(0, 0, p.bias*fn+p.noise)
	b[0] = sb * (ty[0] - fn*yMean) / yStd
	for j := 0; j < d; j++ {
		cross := sb * (mc(0, j+1) - fn*xMean[j]) / xStd[j]
		a.Set(0, j+1, cross)
		a.Set(j+1, 0, cross)
		b[j+1] = (ty[j+1] - fn*yMean*xMean[j]) / (yStd * xStd[j])
		for k := j; k < d; k++ {
			v := (mc(j+1, k+1) - fn*xMean[j]*xMean[k]) / (xStd[j] * xStd[k])
			if k == j {
				v += p.noise
			}
			a.Set(j+1, k+1, v)
			a.Set(k+1, j+1, v)
		}
	}
	chol, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("gp: primal system factorization failed: %w", err)
	}
	return &PrimalLinear{
		bias:  p.bias,
		noise: p.noise,
		xMean: xMean, xStd: xStd,
		yMean: yMean, yStd: yStd,
		w:    chol.SolveVec(b),
		chol: chol,
		sol:  p.sol,
	}, nil
}

// PrimalLinear is a fitted primal-form linear surrogate. Its posterior
// matches the dual GP with kernel Linear{Bias: bias} and the same noise
// on the same data (see TestPrimalMatchesDualGP). Fit once, predict
// cheaply: O(d) mean, O(d²) standard deviation, no allocation. Its
// fitted parameters are its own, but its prediction scratch belongs to
// the PrimalStats that fitted it and is shared with every other model
// that accumulator fits, so those models must not be used from multiple
// goroutines concurrently.
type PrimalLinear struct {
	bias, noise float64
	xMean, xStd []float64
	yMean, yStd float64
	w           []float64 // posterior weights over [√bias, x̃]
	chol        *linalg.Cholesky
	sol         []float64 // forward solves of one block, column-blocked
}

// blockWidth is how many candidates predictBlock carries through the
// triangular solve side by side, one register accumulator each. The
// solve scratch is column-blocked: entry k·blockWidth+c is component k of
// the block's candidate c.
const blockWidth = 8

// Predict implements Predictor, as a batch of one.
func (p *PrimalLinear) Predict(x []float64) (mean, std float64, err error) {
	xs := [1][]float64{x}
	var means, stds [1]float64
	if err := p.PredictBatch(xs[:], means[:], stds[:]); err != nil {
		return 0, 0, err
	}
	return means[0], stds[0], nil
}

// PredictBatch implements Predictor. It predicts blockWidth candidates
// at a time so that their triangular solves, each a serial chain,
// interleave.
func (p *PrimalLinear) PredictBatch(xs [][]float64, means, stds []float64) error {
	if len(means) != len(xs) || len(stds) != len(xs) {
		return fmt.Errorf("gp: batch size mismatch: %d inputs, %d/%d outputs",
			len(xs), len(means), len(stds))
	}
	for _, x := range xs {
		if len(x) != len(p.xMean) {
			return fmt.Errorf("gp: input has %d features, trained on %d", len(x), len(p.xMean))
		}
	}
	for lo := 0; lo < len(xs); lo += blockWidth {
		hi := min(lo+blockWidth, len(xs))
		p.predictBlock(xs[lo:hi], means[lo:hi], stds[lo:hi])
	}
	return nil
}

// predictBlock predicts up to blockWidth candidates. Each candidate's
// arithmetic is the one-at-a-time computation, operation for operation:
// standardize φ = [√bias, (x−mean)/std]; mean = φ·w summed in index
// order as linalg.Dot does; forward-solve L·s = φ row by row, each row
// subtracting L[i][k]·s[k] in increasing k as Cholesky.SolveLowerTo
// does; variance from φᵀA⁻¹φ = s·s summed in index order, so the forward
// solve alone is enough. Only the loop nesting
// differs: component i of every candidate is standardized, added to the
// means and solved for before component i+1, and the solve keeps one
// accumulator per candidate in a register, stepping all of them through
// each k. So every result is bit-for-bit the per-candidate one while the
// serial chains of the block overlap. The unused columns of a partial
// block keep √bias throughout; their results are dropped.
func (p *PrimalLinear) predictBlock(xs [][]float64, means, stds []float64) {
	sol, l := p.sol, p.chol.L
	var phi, mu, q [blockWidth]float64
	for i, wi := range p.w {
		if i == 0 {
			sb := math.Sqrt(p.bias)
			for c := range phi {
				phi[c] = sb
			}
		} else {
			mj, sj := p.xMean[i-1], p.xStd[i-1]
			for c, x := range xs {
				phi[c] = (x[i-1] - mj) / sj
			}
		}
		for c, v := range phi {
			mu[c] += v * wi
		}
		row := l.Row(i)
		s0, s1, s2, s3, s4, s5, s6, s7 := phi[0], phi[1], phi[2], phi[3], phi[4], phi[5], phi[6], phi[7]
		for k, lk := range row[:i] {
			sk := sol[k*blockWidth:][:blockWidth]
			s0 -= lk * sk[0]
			s1 -= lk * sk[1]
			s2 -= lk * sk[2]
			s3 -= lk * sk[3]
			s4 -= lk * sk[4]
			s5 -= lk * sk[5]
			s6 -= lk * sk[6]
			s7 -= lk * sk[7]
		}
		d := row[i]
		si := sol[i*blockWidth:][:blockWidth]
		si[0], si[1], si[2], si[3], si[4], si[5], si[6], si[7] = s0/d, s1/d, s2/d, s3/d, s4/d, s5/d, s6/d, s7/d
		for c, v := range si {
			q[c] += v * v
		}
	}
	for c := range xs {
		qc := q[c]
		if qc < 0 {
			qc = 0
		}
		variance := p.noise * (1 + qc)
		means[c] = mu[c]*p.yStd + p.yMean
		stds[c] = math.Sqrt(variance) * p.yStd
	}
}

// FitPrimalLinear fits the primal linear surrogate on a whole dataset in
// one call — the batch-oriented counterpart of New(Linear{bias},
// noise).Fit(x, y) and interchangeable with it (same posterior, built in
// O(n·d²) instead of O(n³)).
func FitPrimalLinear(bias, noise float64, x [][]float64, y []float64) (*PrimalLinear, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d inputs, %d targets", ErrNoData, len(x), len(y))
	}
	s := NewPrimalStats(bias, noise)
	for i, row := range x {
		s.Add(row, y[i])
	}
	return s.Fit(0)
}
