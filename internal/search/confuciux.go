package search

import (
	"math"
	"math/rand"
	"sort"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// ConfuciuX reimplements the search structure of ConfuciuX (Kao et al.,
// MICRO 2020) as the paper characterizes it: autonomous hardware resource
// assignment via reinforcement learning (REINFORCE over per-parameter
// categorical policies), refined by a genetic algorithm in a second
// phase, while the software schedule is merely *selected* from three
// rigid dataflows (Eyeriss-like, NVDLA-like, ShiDianNao-like) with
// heuristic tiling — it searches neither tile sizes nor loop orders,
// which §VII-A identifies as the root of its inefficiency.
type ConfuciuX struct {
	// RLFraction is the fraction of the hardware budget spent in the
	// REINFORCE phase before switching to GA refinement (default 0.7).
	RLFraction float64
	// LearningRate for the policy gradient (default 0.15).
	LearningRate float64
}

// NewConfuciuX returns the ConfuciuX-like strategy.
func NewConfuciuX() *ConfuciuX { return &ConfuciuX{} }

// Name implements core.Strategy.
func (*ConfuciuX) Name() string { return "ConfuciuX" }

// SWBudget implements core.Strategy: one evaluation per fixed dataflow.
func (*ConfuciuX) SWBudget(core.RunConfig) int { return len(sched.FixedDataflows()) }

func (c *ConfuciuX) rlFraction() float64 {
	if c.RLFraction > 0 {
		return c.RLFraction
	}
	return 0.7
}

func (c *ConfuciuX) learningRate() float64 {
	if c.LearningRate > 0 {
		return c.LearningRate
	}
	return 0.15
}

// Reference buffer sizes the prior tools' schedule templates are tiled
// for (an Eyeriss-class part: 512 B per-PE register file, 108 KB
// scratchpad). The templates are hardware-oblivious — §VII-A: "neither
// aims to co-design loop tile sizes with scratchpad sizes" — so their
// tilings do not adapt to the hardware sample under consideration.
const (
	refRFBytesPerPE = 512
	refL2Bytes      = 108 << 10
)

// NewSW implements core.Strategy: enumerate the three dataflows with
// template tiling, in order. No learning happens at this level.
func (*ConfuciuX) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	return &fixedDataflowSW{rng: rng, flows: templateSamplers(l)}
}

// templateSamplers returns a sampler per fixed dataflow for layer l, with
// the template tiling fit to the reference buffers.
func templateSamplers(l workload.Layer) []sched.Sampler {
	flows := sched.FixedDataflows()
	out := make([]sched.Sampler, len(flows))
	for i, f := range flows {
		out[i] = f.Sampler(l, refRFBytesPerPE, refL2Bytes)
	}
	return out
}

type fixedDataflowSW struct {
	rng   *rand.Rand
	flows []sched.Sampler
	next  int
}

func (f *fixedDataflowSW) Suggest() sched.Schedule {
	flow := &f.flows[f.next%len(f.flows)]
	f.next++
	return flow.Draw(f.rng)
}

func (*fixedDataflowSW) Observe(sched.Schedule, float64, error) {}

// policyBuckets is the number of discrete choices per hardware parameter
// in the RL policy.
const policyBuckets = 8

// NewHW implements core.Strategy.
func (c *ConfuciuX) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	return &confuciuxHW{
		space:    cfg.Space,
		rng:      rng,
		lr:       c.learningRate(),
		rlPhase:  int(c.rlFraction() * float64(cfg.HWSamples)),
		logits:   make([][]float64, 3), // PEs, RF, L2 — the resources ConfuciuX assigns
		ga:       population[hw.Accel]{capacity: 10, rng: rng},
		topK:     8,
		baseline: math.NaN(),
	}
}

type confuciuxHW struct {
	space hw.Space
	rng   *rand.Rand
	lr    float64

	rlPhase int // samples spent in the RL phase
	samples int

	logits     [][]float64 // per parameter, per bucket
	lastChoice []int

	// Everything seen so far, for seeding the GA phase.
	seen []member[hw.Accel]
	topK int

	ga       population[hw.Accel]
	baseline float64
}

func (h *confuciuxHW) ensureLogits() {
	for i := range h.logits {
		if h.logits[i] == nil {
			h.logits[i] = make([]float64, policyBuckets)
		}
	}
}

func (h *confuciuxHW) Suggest() hw.Accel {
	h.samples++
	if h.samples <= h.rlPhase {
		return h.sampleFromPolicy()
	}
	return h.gaSuggest()
}

// sampleFromPolicy draws one bucket per parameter from the softmax
// policies and decodes them into an accelerator.
func (h *confuciuxHW) sampleFromPolicy() hw.Accel {
	h.ensureLogits()
	h.lastChoice = make([]int, len(h.logits))
	for i, l := range h.logits {
		h.lastChoice[i] = sampleSoftmax(h.rng, l)
	}
	return h.decode(h.lastChoice)
}

// decode maps bucket indices to a configuration inside the space.
// ConfuciuX assigns *resources* — PE count and buffer sizes — and leaves
// the rest of the microarchitecture at representative defaults: a square
// array, minimum-width SIMD, mid-range interconnect. This mirrors the
// published tool's design space, which §VII-A calls "severely limited"
// next to Spotlight's.
func (h *confuciuxHW) decode(choice []int) hw.Accel {
	s := h.space
	lerp := func(lo, hi, b int) int {
		if policyBuckets == 1 {
			return lo
		}
		return lo + (hi-lo)*b/(policyBuckets-1)
	}
	pes := lerp(s.PEMin, s.PEMax, choice[0])
	a := hw.Accel{
		PEs:       pes,
		SIMDLanes: s.SIMDMin,
		RFKB:      snapStride(lerp(s.RFMinKB, s.RFMaxKB, choice[1]), s.RFMinKB, s.RFStride),
		L2KB:      snapStride(lerp(s.L2MinKB, s.L2MaxKB, choice[2]), s.L2MinKB, s.L2Stride),
		NoCBW:     (s.BWMin + s.BWMax) / 2,
	}
	a.Width = nearestDivisor(pes, math.Sqrt(float64(pes)))
	return a
}

func snapStride(v, lo, stride int) int {
	return lo + ((v-lo)/stride)*stride
}

func nearestDivisor(n int, target float64) int {
	best, bestDist := 1, math.Inf(1)
	for _, d := range sched.Divisors(n) {
		if dist := math.Abs(float64(d) - target); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best
}

func sampleSoftmax(rng *rand.Rand, logits []float64) int {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	probs := make([]float64, len(logits))
	var z float64
	for i, l := range logits {
		probs[i] = math.Exp(l - maxL)
		z += probs[i]
	}
	r := rng.Float64() * z
	for i, p := range probs {
		r -= p
		if r <= 0 {
			return i
		}
	}
	return len(logits) - 1
}

// gaSuggest runs the refinement phase, seeding the population with the
// best designs found by the RL phase.
func (h *confuciuxHW) gaSuggest() hw.Accel {
	if len(h.ga.members) == 0 && len(h.seen) > 0 {
		sort.Slice(h.seen, func(i, j int) bool { return h.seen[i].fitness < h.seen[j].fitness })
		for i := 0; i < h.topK && i < len(h.seen); i++ {
			h.ga.insert(h.seen[i].genome, h.seen[i].fitness)
		}
	}
	if len(h.ga.members) < 2 {
		return h.space.Random(h.rng)
	}
	child := hw.Crossover(h.rng, h.ga.tournament(), h.ga.tournament())
	return h.resourceNeighbor(child)
}

// resourceNeighbor mutates one of the resources ConfuciuX assigns (PE
// count, register file, scratchpad) while leaving the defaulted
// microarchitecture parameters untouched.
func (h *confuciuxHW) resourceNeighbor(a hw.Accel) hw.Accel {
	s := h.space
	switch h.rng.Intn(3) {
	case 0:
		a.PEs = s.PEMin + h.rng.Intn(s.PEMax-s.PEMin+1)
		a.Width = nearestDivisor(a.PEs, math.Sqrt(float64(a.PEs)))
	case 1:
		a.RFKB = snapStride(s.RFMinKB+h.rng.Intn(s.RFMaxKB-s.RFMinKB+1), s.RFMinKB, s.RFStride)
	case 2:
		a.L2KB = snapStride(s.L2MinKB+h.rng.Intn(s.L2MaxKB-s.L2MinKB+1), s.L2MinKB, s.L2Stride)
	}
	return a
}

func (h *confuciuxHW) Observe(a hw.Accel, objective float64, err error) {
	fitness := objective
	if core.InvalidObservation(objective, err) {
		fitness = math.Inf(1)
	}
	h.seen = append(h.seen, member[hw.Accel]{a, fitness})
	if h.samples > h.rlPhase {
		h.ga.insert(a, fitness)
		return
	}
	if h.lastChoice == nil {
		return
	}
	// REINFORCE update with a running-mean baseline on -log(objective).
	reward := -50.0 // penalty for infeasible designs
	if !core.InvalidObservation(objective, err) {
		reward = -math.Log(math.Max(objective, math.SmallestNonzeroFloat64))
	}
	if math.IsNaN(h.baseline) {
		h.baseline = reward
	}
	adv := reward - h.baseline
	h.baseline += 0.1 * (reward - h.baseline)
	for p, chosen := range h.lastChoice {
		probs := softmax(h.logits[p])
		for b := range h.logits[p] {
			grad := -probs[b]
			if b == chosen {
				grad += 1
			}
			h.logits[p][b] += h.lr * adv * grad
		}
	}
	h.lastChoice = nil
}

func softmax(logits []float64) []float64 {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	out := make([]float64, len(logits))
	var z float64
	for i, l := range logits {
		out[i] = math.Exp(l - maxL)
		z += out[i]
	}
	for i := range out {
		out[i] /= z
	}
	return out
}
