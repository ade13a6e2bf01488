package core

import (
	"math/rand"
	"sync"

	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Spotlight is the paper's co-design strategy (§VI): daBO over the
// hardware space nested with daBO over each layer's software space, both
// searching in feature space with a linear-kernel Gaussian process
// surrogate. Its fields select the ablation variants of §VII-D/E.
type Spotlight struct {
	// Mode selects the feature set: FeatureSpotlight (the paper's
	// Figure 4 features), FeatureVanilla (Spotlight-V) or FeatureAll
	// (Spotlight-A).
	Mode FeatureMode
	// Kernel overrides the surrogate kernel; nil means the paper's
	// linear kernel.
	Kernel gp.Kernel
	// FixedDataflows restricts the software space to the three
	// ConfuciuX dataflows with K/C tiling only (Spotlight-F).
	FixedDataflows bool
	// CandidateBatch is the number of random parameter-space candidates
	// ranked by the acquisition function per suggestion (default 64).
	CandidateBatch int
	// Kappa is the LCB exploration weight (default 1.5).
	Kappa float64

	// lastSW retains the most recent software searcher for
	// feature-importance analysis (Figure 9); mu makes a single strategy
	// value safe to use from concurrent runs (parallel trials).
	mu     sync.Mutex
	lastSW *spotlightSW
}

// NewSpotlight returns the full Spotlight configuration.
func NewSpotlight() *Spotlight { return &Spotlight{} }

// NewSpotlightV returns Spotlight-V: identical machinery but the
// surrogate is trained directly on raw parameters — off-the-shelf BO.
func NewSpotlightV() *Spotlight { return &Spotlight{Mode: FeatureVanilla} }

// NewSpotlightA returns Spotlight-A: the union of features and raw
// parameters.
func NewSpotlightA() *Spotlight { return &Spotlight{Mode: FeatureAll} }

// NewSpotlightF returns Spotlight-F: the feature space over the three
// fixed dataflows with tiling searched only in K and C.
func NewSpotlightF() *Spotlight { return &Spotlight{FixedDataflows: true} }

// Name implements Strategy, matching the labels of Figure 10.
func (s *Spotlight) Name() string {
	switch {
	case s.FixedDataflows:
		return "Spotlight-F"
	case s.Mode == FeatureVanilla:
		return "Spotlight-V"
	case s.Mode == FeatureAll:
		return "Spotlight-A"
	default:
		return "Spotlight"
	}
}

func (s *Spotlight) kernel() gp.Kernel {
	if s.Kernel != nil {
		return s.Kernel
	}
	return gp.Linear{Bias: 1}
}

func (s *Spotlight) batch() int {
	if s.CandidateBatch > 0 {
		return s.CandidateBatch
	}
	return 64
}

func (s *Spotlight) kappa() float64 {
	if s.Kappa > 0 {
		return s.Kappa
	}
	return 1.5
}

// SWBudget implements Strategy: Spotlight spends the full configured
// software budget.
func (s *Spotlight) SWBudget(cfg RunConfig) int { return cfg.SWSamples }

// NewHW implements Strategy.
func (s *Spotlight) NewHW(cfg RunConfig, rng *rand.Rand) HWProposer {
	return &spotlightHW{
		dabo:     NewDABO(s.kernel(), rng, WithKappa(s.kappa()), WithTracer(cfg.Tracer, "hw")),
		features: FeaturesFor(s.Mode, true),
		space:    cfg.Space,
		budget:   cfg.Budget,
		batch:    s.batch(),
		rng:      rng,
	}
}

type spotlightHW struct {
	dabo     *DABO
	features []Feature
	space    hw.Space
	budget   hw.Budget
	batch    int
	rng      *rand.Rand
}

// Suggest ranks a batch of random candidates on the surrogate. The area
// and power budget is known a priori, so candidates exceeding it are
// resampled — using explicit constraints to steer sampling is exactly
// the kind of domain information §IV-B1 calls for (the cloud space in
// particular is >90% over budget). If the budget is unattainable within
// the retry allowance, the raw sample is kept and the cost model will
// reject it.
func (h *spotlightHW) Suggest() hw.Accel {
	cands := make([]hw.Accel, h.batch)
	feats := make([][]float64, h.batch)
	for i := range cands {
		cands[i] = h.space.Random(h.rng)
		for retry := 0; retry < 16 && !h.budget.Fits(cands[i]); retry++ {
			cands[i] = h.space.Random(h.rng)
		}
		feats[i] = Transform(h.features, Point{Accel: cands[i]})
	}
	idx := h.dabo.SuggestIndex(feats)
	return cands[idx]
}

// SetSpan implements SpanCarrier by forwarding to the embedded daBO, so
// hw-scope fit events land under the driver's hw.propose span.
func (h *spotlightHW) SetSpan(sp *obs.Span) { h.dabo.SetSpan(sp) }

func (h *spotlightHW) Observe(a hw.Accel, objective float64, err error) {
	f := Transform(h.features, Point{Accel: a})
	if InvalidObservation(objective, err) {
		h.dabo.ObserveInvalid(f)
		return
	}
	h.dabo.Observe(f, objective)
}

// NewSW implements Strategy. The proposer builds everything its layer
// search reuses up front: one schedule sampler per constraint, the
// candidate batch, and one flat feature matrix.
func (s *Spotlight) NewSW(cfg RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) SWProposer {
	constraints := []sched.Constraint{cfg.SWConstraint}
	if s.FixedDataflows {
		constraints = constraints[:0]
		for _, df := range sched.FixedDataflows() {
			constraints = append(constraints, sched.SpotlightF(df))
		}
	}
	samplers := make([]sched.Sampler, len(constraints))
	for i, c := range constraints {
		samplers[i] = c.Sampler(l, a.RFBytesPerPE(), a.L2Bytes())
	}
	features := FeaturesFor(s.Mode, false)
	batch, d := s.batch(), len(features)
	sw := &spotlightSW{
		dabo:     NewDABO(s.kernel(), rng, WithKappa(s.kappa()), WithTracer(cfg.Tracer, "sw")),
		features: features,
		samplers: samplers,
		rng:      rng,
		cands:    make([]sched.Schedule, batch),
		rows:     make([][]float64, batch),
		cand:     Candidate{Point: Point{Accel: a, Layer: l}},
		row:      make([]float64, d),
	}
	flat := make([]float64, batch*d)
	for i := range sw.rows {
		sw.rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	s.mu.Lock()
	s.lastSW = sw
	s.mu.Unlock()
	return sw
}

type spotlightSW struct {
	dabo     *DABO
	features []Feature
	samplers []sched.Sampler
	rng      *rand.Rand
	// cands and rows are the candidate batch and its feature matrix,
	// overwritten by every Suggest.
	cands []sched.Schedule
	rows  [][]float64
	// cand is the point being drawn and transformed, its accelerator and
	// layer fixed for the search; row is Observe's feature vector (DABO
	// copies what it keeps).
	cand Candidate
	row  []float64
}

// Suggest draws a batch of candidates and lets daBO pick one. While daBO
// picks at random it reads no features, so none are computed; feature
// transforms draw nothing from the RNG, so the draw order is unchanged.
// Each candidate is drawn in place, its trip counts with it.
func (w *spotlightSW) Suggest() sched.Schedule {
	rank := !w.dabo.picksAtRandom()
	for i := range w.cands {
		w.cand.Draw(&w.samplers[w.rng.Intn(len(w.samplers))], w.rng)
		if rank {
			w.cand.TransformDrawn(w.rows[i], w.features)
		}
		w.cands[i] = w.cand.Sched
	}
	return w.cands[w.dabo.SuggestIndex(w.rows)]
}

// SetSpan implements SpanCarrier by forwarding to the embedded daBO, so
// sw-scope fit events land under the enclosing sw.layer span.
func (w *spotlightSW) SetSpan(sp *obs.Span) { w.dabo.SetSpan(sp) }

func (w *spotlightSW) Observe(s sched.Schedule, objective float64, err error) {
	w.cand.Sched = s
	w.cand.TransformInto(w.row, w.features)
	if InvalidObservation(objective, err) {
		w.dabo.ObserveInvalid(w.row)
		return
	}
	w.dabo.Observe(w.row, objective)
}

// LastSWImportance computes the permutation importance of each software
// feature on the most recent layer's surrogate (Figure 9). It returns
// feature names alongside raw (unnormalized) importances, or false when
// no surrogate is available.
func (s *Spotlight) LastSWImportance(rng *rand.Rand) ([]string, []float64, bool) {
	s.mu.Lock()
	sw := s.lastSW
	s.mu.Unlock()
	if sw == nil {
		return nil, nil, false
	}
	model := sw.dabo.Surrogate()
	if model == nil {
		return nil, nil, false
	}
	imp, err := PermutationImportance(model, sw.dabo.ValidObservations(), rng)
	if err != nil {
		return nil, nil, false
	}
	return Names(sw.features), imp, true
}
