// Package search implements the competing search algorithms Spotlight is
// evaluated against in §VII-E: pure random search (Spotlight-R), a
// genetic algorithm (Spotlight-GA), and faithful-in-spirit
// reimplementations of the two prior-work co-design tools — ConfuciuX
// (reinforcement learning + genetic refinement over resource assignment
// with three fixed dataflows) and HASCO (Bayesian optimization over
// hardware with Q-learning over a small fixed schedule set).
//
// Every algorithm implements core.Strategy, so all of them run under the
// same nested layerwise driver and produce directly comparable histories
// for Figures 10 and 11.
package search

import (
	"math/rand"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Random is the Spotlight-R baseline: uniform random sampling of both the
// hardware and software spaces with no learning.
type Random struct{}

// NewRandom returns the random-search strategy.
func NewRandom() *Random { return &Random{} }

// Name implements core.Strategy.
func (*Random) Name() string { return "Spotlight-R" }

// SWBudget implements core.Strategy.
func (*Random) SWBudget(cfg core.RunConfig) int { return cfg.SWSamples }

// NewHW implements core.Strategy.
func (*Random) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	return randomHW{space: cfg.Space, rng: rng}
}

type randomHW struct {
	space hw.Space
	rng   *rand.Rand
}

func (r randomHW) Suggest() hw.Accel              { return r.space.Random(r.rng) }
func (randomHW) Observe(hw.Accel, float64, error) {}

// NewSW implements core.Strategy.
func (*Random) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	return &randomSW{sampler: cfg.SWConstraint.Sampler(l, a.RFBytesPerPE(), a.L2Bytes()), rng: rng}
}

type randomSW struct {
	sampler sched.Sampler
	rng     *rand.Rand
}

func (r *randomSW) Suggest() sched.Schedule              { return r.sampler.Draw(r.rng) }
func (*randomSW) Observe(sched.Schedule, float64, error) {}
