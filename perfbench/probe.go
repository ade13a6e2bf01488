package main

import (
	"math/rand"
	"runtime"
	"sort"

	"spotlight/internal/core"
	"spotlight/internal/eval"
	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Probe sizing: how many recorded (accelerator, layer) pairs the probe
// replays, and how many daBO_SW suggestions it makes on each.
const (
	probePairs       = 24
	probeSuggestions = 40
	probeCandidates  = 64 // daBO_SW's default candidate batch
)

// probeResult holds per-call costs of the hot public functions.
type probeResult struct {
	randomNS, randomAllocs         float64
	transformNS, transformAllocs   float64
	suggestNS, suggestAllocs       float64
	evaluateNS, evaluateAllocs     float64
	cacheHitNS, cacheMissNS        float64
	pairs, suggestions, candidates int
}

// segment accumulates the time and heap allocations of one function.
type segment struct {
	ns, allocs, calls int64
	ms                runtime.MemStats
}

// measure runs fn, adding its time and allocations for n calls. Reading
// the exact allocation count stops the world, so it happens outside
// the timed stretch.
func (s *segment) measure(n int, fn func()) {
	runtime.ReadMemStats(&s.ms)
	m0 := s.ms.Mallocs
	t0 := nowNS()
	fn()
	s.ns += nowNS() - t0
	runtime.ReadMemStats(&s.ms)
	s.allocs += int64(s.ms.Mallocs - m0)
	s.calls += int64(n)
}

func (s *segment) perCall() (ns, allocs float64) {
	return ratio(float64(s.ns), float64(s.calls)), ratio(float64(s.allocs), float64(s.calls))
}

// runProbe replays, on one goroutine, the daBO_SW loop on (accelerator,
// layer) pairs recorded from a traced run: per suggestion, 64 candidate
// schedules from sched.Constraint.Random, their features from
// core.Transform, a DABO.SuggestIndex over them (after as many
// observations as the run had made at that point), and a maestro
// evaluation of the chosen schedule. Each of these is measured on its
// own. The chosen schedules are then evaluated twice through a memo
// cache, cold then warm.
func runProbe(inputs []swProbeInput, seed int64) probeResult {
	pairs := append([]swProbeInput(nil), inputs...)
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].layer.Name != pairs[j].layer.Name {
			return pairs[i].layer.Name < pairs[j].layer.Name
		}
		return pairs[i].accel.String() < pairs[j].accel.String()
	})
	if len(pairs) > probePairs {
		stride := len(pairs) / probePairs
		picked := make([]swProbeInput, 0, probePairs)
		for i := 0; i < probePairs; i++ {
			picked = append(picked, pairs[i*stride])
		}
		pairs = picked
	}

	rng := rand.New(rand.NewSource(seed))
	features := core.FeaturesFor(core.FeatureSpotlight, false)
	constraint := sched.Free()
	model := maestro.New()
	var random, transform, suggest, evaluate segment
	type item struct {
		a hw.Accel
		s sched.Schedule
		l workload.Layer
	}
	var chosen []item
	cands := make([]sched.Schedule, probeCandidates)
	feats := make([][]float64, probeCandidates)
	for _, p := range pairs {
		dabo := core.NewDABO(gp.Linear{Bias: 1}, rng, core.WithKappa(1.5))
		rf, l2 := p.accel.RFBytesPerPE(), p.accel.L2Bytes()
		for k := 0; k < probeSuggestions; k++ {
			random.measure(len(cands), func() {
				for i := range cands {
					cands[i] = constraint.Random(rng, p.layer, rf, l2)
				}
			})
			transform.measure(len(cands), func() {
				for i := range cands {
					feats[i] = core.Transform(features, core.Point{Accel: p.accel, Sched: cands[i], Layer: p.layer})
				}
			})
			var idx int
			suggest.measure(1, func() { idx = dabo.SuggestIndex(feats) })
			var cost maestro.Cost
			var err error
			evaluate.measure(1, func() { cost, err = model.Evaluate(p.accel, cands[idx], p.layer) })
			if err != nil {
				dabo.ObserveInvalid(feats[idx])
			} else {
				dabo.Observe(feats[idx], cost.DelayCycles)
			}
			chosen = append(chosen, item{p.accel, cands[idx], p.layer})
		}
	}

	cached := eval.Chain(maestro.New(), eval.WithCache())
	var miss, hit segment
	for _, pass := range []*segment{&miss, &hit} {
		pass.measure(len(chosen), func() {
			for _, it := range chosen {
				_, _ = cached.Evaluate(it.a, it.s, it.l)
			}
		})
	}

	var r probeResult
	r.randomNS, r.randomAllocs = random.perCall()
	r.transformNS, r.transformAllocs = transform.perCall()
	r.suggestNS, r.suggestAllocs = suggest.perCall()
	r.evaluateNS, r.evaluateAllocs = evaluate.perCall()
	r.cacheMissNS, _ = miss.perCall()
	r.cacheHitNS, _ = hit.perCall()
	r.pairs, r.suggestions, r.candidates = len(pairs), int(suggest.calls), int(random.calls)
	return r
}

func (r probeResult) metrics(m metricSet) {
	m.add("sched.random_ns", r.randomNS, "ns")
	m.add("sched.random_allocs", r.randomAllocs, "count")
	m.add("core.transform_ns", r.transformNS, "ns")
	m.add("core.transform_allocs", r.transformAllocs, "count")
	m.add("core.dabo_suggest_ns", r.suggestNS, "ns")
	m.add("core.dabo_suggest_allocs", r.suggestAllocs, "count")
	m.add("maestro.evaluate_ns", r.evaluateNS, "ns")
	m.add("maestro.evaluate_allocs", r.evaluateAllocs, "count")
	m.add("eval.cache_hit_ns", r.cacheHitNS, "ns")
	m.add("eval.cache_miss_ns", r.cacheMissNS, "ns")
}
