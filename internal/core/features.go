package core

import (
	"math"
	"math/rand"

	"spotlight/internal/gp"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Feature is one hand-designed transformation of a co-design point into a
// real value, carrying the domain information of §IV-B.
type Feature struct {
	Name string
	Fn   func(*Candidate) float64
}

// Candidate is what a feature reads: the co-design point, and its
// schedule's trip counts, computed at most once per point however many
// features read them, or not at all when Draw sampled the schedule.
// Hardware-only points carry a zero schedule; no hardware feature asks
// for trip counts, so they are never computed for them.
type Candidate struct {
	Point
	n2, n1 [workload.NumDims]int
	trips  bool
}

// Trips returns the schedule's DRAM-level (Size/T2) and L2-level (T2/T1)
// trip counts per dimension, computing them on first use. Callers must
// not modify them.
func (c *Candidate) Trips() (n2, n1 *[workload.NumDims]int) {
	if !c.trips {
		c.n2 = c.Sched.OuterTrips(c.Layer)
		c.n1 = c.Sched.InnerTrips(c.Layer)
		c.trips = true
	}
	return &c.n2, &c.n1
}

// Draw samples c's schedule from smp. The draw yields the schedule's trip
// counts too, so TransformDrawn computes none. smp must have been built
// for c's layer.
func (c *Candidate) Draw(smp *sched.Sampler, rng *rand.Rand) {
	smp.DrawInto(rng, &c.Sched, &c.n2, &c.n1)
	c.trips = true
}

// TransformInto writes the feature vector of c's point into dst, which
// has len(fs) entries. It forgets the previous point's trip counts first,
// so a caller that reuses one Candidate may set its Sched directly per
// point.
func (c *Candidate) TransformInto(dst []float64, fs []Feature) {
	c.trips = false
	c.TransformDrawn(dst, fs)
}

// TransformDrawn is TransformInto for a schedule set by Draw: it keeps
// the trip counts the draw left.
func (c *Candidate) TransformDrawn(dst []float64, fs []Feature) {
	for i, f := range fs {
		dst[i] = f.Fn(c)
	}
}

// FeatureMode selects which feature set a daBO instance trains its
// surrogate on, implementing the paper's Spotlight / Spotlight-V /
// Spotlight-A variants (§VII-D/E).
type FeatureMode int

// Feature modes.
const (
	// FeatureSpotlight uses the hand-designed feature space of Figure 4.
	FeatureSpotlight FeatureMode = iota
	// FeatureVanilla trains directly on raw parameters — off-the-shelf
	// BO (the paper's Spotlight-V).
	FeatureVanilla
	// FeatureAll uses the union of features and raw parameters
	// (Spotlight-A).
	FeatureAll
)

// String names the mode as the paper does.
func (m FeatureMode) String() string {
	switch m {
	case FeatureVanilla:
		return "vanilla"
	case FeatureAll:
		return "all"
	}
	return "spotlight"
}

// lg compresses wide-dynamic-range feature values; the surrogate's linear
// kernel then sees approximately linear trends, per feature-selection
// guideline (3) of §IV-B2.
func lg(v float64) float64 { return math.Log1p(v) }

// lgSmall tabulates lg over the small integers most software feature
// values are.
var lgSmall = func() (t [1024]float64) {
	for v := range t {
		t[v] = lg(float64(v))
	}
	return t
}()

// lgInt is lg(float64(v)), read from lgSmall when v is in it.
func lgInt(v int) float64 {
	if uint(v) < uint(len(lgSmall)) {
		return lgSmall[v]
	}
	return lg(float64(v))
}

// SoftwareFeatures returns the Figure 4 feature set used by daBO_SW. The
// first four entries are the raw cardinal parameters; the rest encode the
// domain information described in §IV-B2.
func SoftwareFeatures() []Feature {
	return []Feature{
		{"simd_lanes", func(c *Candidate) float64 { return float64(c.Accel.SIMDLanes) }},
		{"onchip_bandwidth", func(c *Candidate) float64 { return float64(c.Accel.NoCBW) }},
		{"total_pes", func(c *Candidate) float64 { return float64(c.Accel.PEs) }},
		{"pe_array_width", func(c *Candidate) float64 { return float64(c.Accel.Width) }},
		{"total_onchip_sram", func(c *Candidate) float64 {
			return float64(c.Accel.RFKB + c.Accel.L2KB)
		}},
		{"kernel_parallelism", func(c *Candidate) float64 {
			// R₀ × S₀: the filter extent resident at the outer tile level.
			return lgInt(c.Sched.T2[workload.DimR] * c.Sched.T2[workload.DimS])
		}},
		{"degree_of_unrolling", func(c *Candidate) float64 {
			// Outer unrolled loop extent × inner unrolled loop extent
			// (both L2-level loops, distributed over rows and columns).
			_, n1 := c.Trips()
			if c.Sched.OuterUnroll == c.Sched.InnerUnroll {
				return lgInt(n1[c.Sched.OuterUnroll])
			}
			return lgInt(n1[c.Sched.OuterUnroll] * n1[c.Sched.InnerUnroll])
		}},
		{"pe_utilization", peUtilization},
		{"loop_iterations", func(c *Candidate) float64 {
			return lg(loopIterations(c))
		}},
		{"dram_transfers", func(c *Candidate) float64 {
			// (X₀/X₂) × (Y₀/Y₂) × (array width + array height).
			n2, _ := c.Trips()
			return lgInt(n2[workload.DimX] * n2[workload.DimY] * (c.Accel.Width + c.Accel.Height()))
		}},
		{"common_unrolled_dims", func(c *Candidate) float64 {
			// Prime-basis linear combination spreading the few unique
			// values of each tile parameter apart (§IV-B2).
			s := &c.Sched
			return lgInt(2*s.T2[workload.DimX] + 3*s.T2[workload.DimY] + 5*c.Layer.Size(workload.DimK) +
				7*s.T2[workload.DimK] + 11*s.T1[workload.DimK])
		}},
	}
}

// peUtilization is the Figure 4 utilization feature: the fraction of the
// array doing useful work after both spatial distributions (rows take
// the outer-unrolled L2-level loop, columns the inner one), including
// partial-tile (edge-case) waste.
func peUtilization(c *Candidate) float64 {
	h, w := c.Accel.Height(), c.Accel.Width
	_, n1 := c.Trips()
	uo, ui := c.Sched.OuterUnroll, c.Sched.InnerUnroll
	if uo == ui {
		return float64(n1[uo]) / (float64(ceilDiv(n1[uo], h*w)) * float64(h*w))
	}
	rows := float64(n1[uo]) / (float64(ceilDiv(n1[uo], h)) * float64(h))
	cols := float64(n1[ui]) / (float64(ceilDiv(n1[ui], w)) * float64(w))
	return rows * cols
}

// loopIterations approximates the number of temporal iterations to
// completion after spatial distribution.
func loopIterations(c *Candidate) float64 {
	h, w := c.Accel.Height(), c.Accel.Width
	n2, trips1 := c.Trips()
	n1 := *trips1 // distributed below; the shared counts stay intact
	uo, ui := c.Sched.OuterUnroll, c.Sched.InnerUnroll
	if uo == ui {
		n1[uo] = ceilDiv(n1[uo], h*w)
	} else {
		n1[uo] = ceilDiv(n1[uo], h)
		n1[ui] = ceilDiv(n1[ui], w)
	}
	iters := 1.0
	for i := range workload.AllDims {
		iters *= float64(n2[i]) * float64(n1[i])
	}
	return iters
}

// VanillaSoftwareFeatures returns the raw software parameter encoding
// used by Spotlight-V: per-dimension tile sizes at both levels, the
// position of each dimension in each loop order, and the unroll
// dimensions as bare indices. Categorical structure is exposed to the
// surrogate without any domain interpretation — precisely the handicap
// §IV-B1 describes.
func VanillaSoftwareFeatures() []Feature {
	fs := []Feature{
		{"raw_pes", func(c *Candidate) float64 { return float64(c.Accel.PEs) }},
		{"raw_width", func(c *Candidate) float64 { return float64(c.Accel.Width) }},
		{"raw_simd", func(c *Candidate) float64 { return float64(c.Accel.SIMDLanes) }},
		{"raw_rf_kb", func(c *Candidate) float64 { return float64(c.Accel.RFKB) }},
		{"raw_l2_kb", func(c *Candidate) float64 { return float64(c.Accel.L2KB) }},
		{"raw_bw", func(c *Candidate) float64 { return float64(c.Accel.NoCBW) }},
		{"raw_outer_unroll", func(c *Candidate) float64 { return float64(c.Sched.OuterUnroll) }},
		{"raw_inner_unroll", func(c *Candidate) float64 { return float64(c.Sched.InnerUnroll) }},
	}
	for i, d := range workload.AllDims {
		i, d := i, d
		fs = append(fs,
			Feature{"raw_t2_" + d.String(), func(c *Candidate) float64 { return float64(c.Sched.T2[i]) }},
			Feature{"raw_t1_" + d.String(), func(c *Candidate) float64 { return float64(c.Sched.T1[i]) }},
			Feature{"raw_pos_outer_" + d.String(), func(c *Candidate) float64 {
				return float64(orderPosition(c.Sched.OuterOrder, d))
			}},
			Feature{"raw_pos_inner_" + d.String(), func(c *Candidate) float64 {
				return float64(orderPosition(c.Sched.InnerOrder, d))
			}},
		)
	}
	return fs
}

func orderPosition(order [workload.NumDims]workload.Dim, d workload.Dim) int {
	for i, o := range order {
		if o == d {
			return i
		}
	}
	return -1
}

// HardwareFeatures returns the feature set used by daBO_HW, which sees
// only the accelerator (software is re-optimized per hardware sample).
func HardwareFeatures() []Feature {
	return []Feature{
		{"simd_lanes", func(c *Candidate) float64 { return float64(c.Accel.SIMDLanes) }},
		{"onchip_bandwidth", func(c *Candidate) float64 { return float64(c.Accel.NoCBW) }},
		{"total_pes", func(c *Candidate) float64 { return float64(c.Accel.PEs) }},
		{"pe_array_width", func(c *Candidate) float64 { return float64(c.Accel.Width) }},
		{"pe_array_height", func(c *Candidate) float64 { return float64(c.Accel.Height()) }},
		{"total_onchip_sram", func(c *Candidate) float64 { return float64(c.Accel.RFKB + c.Accel.L2KB) }},
		{"peak_macs", func(c *Candidate) float64 { return lg(float64(c.Accel.PEs * c.Accel.SIMDLanes)) }},
		{"area", func(c *Candidate) float64 { return c.Accel.AreaMM2() }},
		{"peak_power", func(c *Candidate) float64 { return c.Accel.PeakPowerMW() }},
	}
}

// VanillaHardwareFeatures returns the raw hardware parameters for
// Spotlight-V's hardware search.
func VanillaHardwareFeatures() []Feature {
	return VanillaSoftwareFeatures()[:6]
}

// FeaturesFor returns the software (or hardware) feature set for a mode.
func FeaturesFor(mode FeatureMode, hardware bool) []Feature {
	switch mode {
	case FeatureVanilla:
		if hardware {
			return VanillaHardwareFeatures()
		}
		return VanillaSoftwareFeatures()
	case FeatureAll:
		if hardware {
			return append(HardwareFeatures(), VanillaHardwareFeatures()...)
		}
		return append(SoftwareFeatures(), VanillaSoftwareFeatures()...)
	default:
		if hardware {
			return HardwareFeatures()
		}
		return SoftwareFeatures()
	}
}

// Transform applies the feature set to a point, producing the surrogate's
// input vector. It is the one-shot form of the per-layer path, where a
// proposer reuses its Candidates and feature rows across suggestions.
func Transform(fs []Feature, p Point) []float64 {
	out := make([]float64, len(fs))
	c := &Candidate{Point: p}
	c.TransformInto(out, fs)
	return out
}

// Names returns the feature names in order.
func Names(fs []Feature) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// PermutationImportance measures each feature's importance to a trained
// surrogate (§VII-D, Figure 9): feature column j of the observed design
// matrix is shuffled and the mean absolute change in the surrogate's
// prediction is recorded. Larger changes mean the surrogate leans harder
// on that feature. The result has one entry per column of x.
func PermutationImportance(model gp.Predictor, x [][]float64, rng *rand.Rand) ([]float64, error) {
	if len(x) == 0 {
		return nil, gp.ErrNoData
	}
	base := make([]float64, len(x))
	for i, row := range x {
		m, _, err := model.Predict(row)
		if err != nil {
			return nil, err
		}
		base[i] = m
	}
	dim := len(x[0])
	imp := make([]float64, dim)
	for j := 0; j < dim; j++ {
		perm := rng.Perm(len(x))
		var total float64
		row := make([]float64, dim)
		for i := range x {
			copy(row, x[i])
			row[j] = x[perm[i]][j]
			m, _, err := model.Predict(row)
			if err != nil {
				return nil, err
			}
			total += math.Abs(m - base[i])
		}
		imp[j] = total / float64(len(x))
	}
	return imp, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
