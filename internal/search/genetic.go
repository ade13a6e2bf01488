package search

import (
	"math"
	"math/rand"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Genetic is the Spotlight-GA baseline: a steady-state genetic algorithm
// over both the hardware and software spaces. The first popSize samples
// seed the population randomly; afterwards each suggestion is the
// mutated crossover of two tournament-selected parents, and observations
// replace the worst member when they improve on it. Infeasible designs
// receive +Inf fitness, so selection pressure steers around the invalid
// regions without any model of them.
type Genetic struct {
	// PopSize is the population size (default 12).
	PopSize int
	// MutationRate is the probability of an extra mutation after
	// crossover (default 0.4).
	MutationRate float64
}

// NewGenetic returns the GA strategy with default settings.
func NewGenetic() *Genetic { return &Genetic{} }

// Name implements core.Strategy.
func (*Genetic) Name() string { return "Spotlight-GA" }

// SWBudget implements core.Strategy.
func (*Genetic) SWBudget(cfg core.RunConfig) int { return cfg.SWSamples }

func (g *Genetic) popSize() int {
	if g.PopSize > 0 {
		return g.PopSize
	}
	return 12
}

func (g *Genetic) mutationRate() float64 {
	if g.MutationRate > 0 {
		return g.MutationRate
	}
	return 0.4
}

// member is one individual with its observed fitness.
type member[T any] struct {
	genome  T
	fitness float64
}

// population is a generic steady-state GA population.
type population[T any] struct {
	members  []member[T]
	capacity int
	rng      *rand.Rand
	pending  T // genome awaiting its fitness observation
}

func (p *population[T]) full() bool { return len(p.members) >= p.capacity }

// tournament returns the fitter of two random members.
func (p *population[T]) tournament() T {
	a := p.members[p.rng.Intn(len(p.members))]
	b := p.members[p.rng.Intn(len(p.members))]
	if a.fitness <= b.fitness {
		return a.genome
	}
	return b.genome
}

// insert adds the observed genome, evicting the worst member when over
// capacity.
func (p *population[T]) insert(genome T, fitness float64) {
	p.members = append(p.members, member[T]{genome, fitness})
	if len(p.members) <= p.capacity {
		return
	}
	worst := 0
	for i, m := range p.members {
		if m.fitness > p.members[worst].fitness {
			worst = i
		}
	}
	p.members[worst] = p.members[len(p.members)-1]
	p.members = p.members[:len(p.members)-1]
}

// NewHW implements core.Strategy.
func (g *Genetic) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	return &gaHW{
		pop:      population[hw.Accel]{capacity: g.popSize(), rng: rng},
		space:    cfg.Space,
		rng:      rng,
		mutation: g.mutationRate(),
	}
}

type gaHW struct {
	pop      population[hw.Accel]
	space    hw.Space
	rng      *rand.Rand
	mutation float64
}

func (h *gaHW) Suggest() hw.Accel {
	if !h.pop.full() {
		h.pop.pending = h.space.Random(h.rng)
		return h.pop.pending
	}
	child := hw.Crossover(h.rng, h.pop.tournament(), h.pop.tournament())
	child = h.space.Neighbor(h.rng, child)
	if h.rng.Float64() < h.mutation {
		child = h.space.Neighbor(h.rng, child)
	}
	h.pop.pending = child
	return child
}

func (h *gaHW) Observe(a hw.Accel, objective float64, err error) {
	if core.InvalidObservation(objective, err) {
		objective = math.Inf(1)
	}
	h.pop.insert(a, objective)
}

// NewSW implements core.Strategy.
func (g *Genetic) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	return &gaSW{
		pop:      population[sched.Schedule]{capacity: g.popSize(), rng: rng},
		c:        cfg.SWConstraint,
		sampler:  cfg.SWConstraint.Sampler(l, a.RFBytesPerPE(), a.L2Bytes()),
		rng:      rng,
		layer:    l,
		mutation: g.mutationRate(),
	}
}

type gaSW struct {
	pop      population[sched.Schedule]
	c        sched.Constraint
	sampler  sched.Sampler
	rng      *rand.Rand
	layer    workload.Layer
	mutation float64
}

func (w *gaSW) Suggest() sched.Schedule {
	if !w.pop.full() {
		return w.sampler.Draw(w.rng)
	}
	child := sched.Crossover(w.rng, w.pop.tournament(), w.pop.tournament())
	child = w.c.Neighbor(w.rng, child, w.layer)
	if w.rng.Float64() < w.mutation {
		child = w.c.Neighbor(w.rng, child, w.layer)
	}
	return child
}

func (w *gaSW) Observe(s sched.Schedule, objective float64, err error) {
	if core.InvalidObservation(objective, err) {
		objective = math.Inf(1)
	}
	w.pop.insert(s, objective)
}
