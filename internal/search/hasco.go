package search

import (
	"math"
	"math/rand"

	"spotlight/internal/core"
	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// HASCO reimplements the search structure of HASCO (Xiao et al., ISCA
// 2021) as the paper characterizes it: Bayesian optimization over the
// hardware parameters (off-the-shelf, i.e. trained on raw parameters with
// a Matérn kernel) combined with a Q-learning agent that picks among a
// small set of fixed software schedule templates. Like ConfuciuX, it
// searches neither tile sizes nor loop orders.
type HASCO struct {
	// Epsilon is the Q-learning exploration rate (default 0.3).
	Epsilon float64
	// Alpha is the Q-learning step size (default 0.5).
	Alpha float64
}

// NewHASCO returns the HASCO-like strategy.
func NewHASCO() *HASCO { return &HASCO{} }

// Name implements core.Strategy.
func (*HASCO) Name() string { return "HASCO" }

// SWBudget implements core.Strategy: a handful of template evaluations
// per layer, enough for the Q-agent to rank the three templates.
func (*HASCO) SWBudget(core.RunConfig) int { return 4 }

func (h *HASCO) epsilon() float64 {
	if h.Epsilon > 0 {
		return h.Epsilon
	}
	return 0.3
}

func (h *HASCO) alpha() float64 {
	if h.Alpha > 0 {
		return h.Alpha
	}
	return 0.5
}

// NewHW implements core.Strategy: vanilla BO over raw hardware
// parameters with a Matérn kernel — the off-the-shelf configuration the
// related-work section attributes to prior tools.
func (*HASCO) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	return &hascoHW{
		dabo:     core.NewDABO(gp.Matern52{LengthScale: 1, Variance: 1}, rng),
		features: core.VanillaHardwareFeatures(),
		space:    cfg.Space,
		rng:      rng,
	}
}

type hascoHW struct {
	dabo     *core.DABO
	features []core.Feature
	space    hw.Space
	rng      *rand.Rand
}

func (h *hascoHW) Suggest() hw.Accel {
	const batch = 64
	cands := make([]hw.Accel, batch)
	feats := make([][]float64, batch)
	for i := range cands {
		cands[i] = restrictedRandom(h.rng, h.space)
		feats[i] = core.Transform(h.features, core.Point{Accel: cands[i]})
	}
	return cands[h.dabo.SuggestIndex(feats)]
}

// restrictedRandom samples the resource-assignment subspace the prior
// tools search — PE count and buffer sizes — with the remaining
// microarchitecture parameters fixed at representative defaults, like
// ConfuciuX's decode.
func restrictedRandom(rng *rand.Rand, s hw.Space) hw.Accel {
	pes := s.PEMin + rng.Intn(s.PEMax-s.PEMin+1)
	a := hw.Accel{
		PEs:       pes,
		SIMDLanes: s.SIMDMin,
		RFKB:      snapStride(s.RFMinKB+rng.Intn(s.RFMaxKB-s.RFMinKB+1), s.RFMinKB, s.RFStride),
		L2KB:      snapStride(s.L2MinKB+rng.Intn(s.L2MaxKB-s.L2MinKB+1), s.L2MinKB, s.L2Stride),
		NoCBW:     (s.BWMin + s.BWMax) / 2,
	}
	a.Width = nearestDivisor(pes, math.Sqrt(float64(pes)))
	return a
}

func (h *hascoHW) Observe(a hw.Accel, objective float64, err error) {
	f := core.Transform(h.features, core.Point{Accel: a})
	if core.InvalidObservation(objective, err) {
		h.dabo.ObserveInvalid(f)
		return
	}
	h.dabo.Observe(f, objective)
}

// NewSW implements core.Strategy: an ε-greedy Q-learning agent over the
// three schedule templates.
func (h *HASCO) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	flows := templateSamplers(l)
	return &hascoSW{
		rng:     rng,
		flows:   flows,
		q:       make([]float64, len(flows)),
		visits:  make([]int, len(flows)),
		epsilon: h.epsilon(),
		alpha:   h.alpha(),
	}
}

type hascoSW struct {
	rng     *rand.Rand
	flows   []sched.Sampler
	q       []float64
	visits  []int
	epsilon float64
	alpha   float64
	last    int
}

func (w *hascoSW) Suggest() sched.Schedule {
	// Visit every template once, then go ε-greedy on Q.
	w.last = -1
	for i, v := range w.visits {
		if v == 0 {
			w.last = i
			break
		}
	}
	if w.last == -1 {
		if w.rng.Float64() < w.epsilon {
			w.last = w.rng.Intn(len(w.flows))
		} else {
			w.last = argmax(w.q)
		}
	}
	// Templates are tiled for reference buffers, not the sampled
	// hardware — HASCO does not co-design tiling (§VII-A).
	return w.flows[w.last].Draw(w.rng)
}

func (w *hascoSW) Observe(_ sched.Schedule, objective float64, err error) {
	reward := -50.0
	if !core.InvalidObservation(objective, err) {
		reward = -math.Log(math.Max(objective, math.SmallestNonzeroFloat64))
	}
	w.visits[w.last]++
	w.q[w.last] += w.alpha * (reward - w.q[w.last])
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
