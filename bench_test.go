package spotlight

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VII), plus ablation and microarchitecture-level
// benchmarks. Each figure benchmark runs its internal/exp driver at a
// reduced-but-structurally-identical scale, so
//
//	go test -bench=. -benchmem
//
// regenerates every result series; pass figure-scale budgets through
// cmd/experiments -paper when absolute convergence quality matters.

import (
	"errors"
	"math/rand"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/exp"
	"spotlight/internal/gp"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/nas"
	"spotlight/internal/oracle"
	"spotlight/internal/sched"
	"spotlight/internal/search"
	"spotlight/internal/sim"
	"spotlight/internal/timeloop"
	"spotlight/internal/workload"
)

// benchCfg is the reduced-scale configuration shared by the figure
// benchmarks: one model, few samples, single trial.
func benchCfg(models ...string) exp.Config {
	if len(models) == 0 {
		models = []string{"Transformer"}
	}
	return exp.Config{
		Scale:     "edge",
		Objective: core.MinDelay,
		HWSamples: 6,
		SWSamples: 8,
		Trials:    1,
		Seed:      1,
		Models:    models,
	}
}

// tolerate fails the benchmark on real errors but accepts ErrNoFeasible:
// with the reduced bench sample budgets, some seeds legitimately strand
// the restricted search strategies.
func tolerate(b *testing.B, err error) {
	b.Helper()
	if err != nil && !errors.Is(err, core.ErrNoFeasible) {
		b.Fatal(err)
	}
}

// BenchmarkFig6EdgeSingleModel regenerates Figure 6: edge-scale
// single-model co-design versus hand-designed accelerators and prior
// co-design tools.
func BenchmarkFig6EdgeSingleModel(b *testing.B) {
	cfg := benchCfg("ResNet-50")
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.Fig6(cfg)
		tolerate(b, err)
	}
}

// BenchmarkFig7CloudSingleModel regenerates Figure 7: cloud-scale
// co-design (EDP and delay) versus scaled-up hand-designed baselines.
func BenchmarkFig7CloudSingleModel(b *testing.B) {
	cfg := benchCfg("Transformer")
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.Fig7(cfg)
		tolerate(b, err)
	}
}

// BenchmarkFig8MultiModel regenerates Figure 8: single- vs multi-model
// vs generalization co-design. Uses two models so the multi-model and
// generalization paths both execute.
func BenchmarkFig8MultiModel(b *testing.B) {
	cfg := benchCfg("ResNet-50", "Transformer")
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.Fig8(cfg)
		tolerate(b, err)
	}
}

// BenchmarkFig9FeatureImportance regenerates Figure 9: permutation
// importance of every daBO_SW feature.
func BenchmarkFig9FeatureImportance(b *testing.B) {
	cfg := benchCfg("Transformer")
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.Fig9(cfg)
		tolerate(b, err)
	}
}

// BenchmarkFig10Convergence regenerates Figure 10: convergence of the
// seven search algorithms on one model.
func BenchmarkFig10Convergence(b *testing.B) {
	cfg := benchCfg("ResNet-50")
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.Fig10(cfg)
		tolerate(b, err)
	}
}

// BenchmarkFig11SampleCDF regenerates Figure 11: the per-trial CDFs of
// hardware sample quality, derived from Figure 10 runs.
func BenchmarkFig11SampleCDF(b *testing.B) {
	cfg := benchCfg("Transformer")
	curves, err := exp.Fig10(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdfs := exp.Fig11(curves)
		if len(cdfs) == 0 {
			b.Fatal("no CDFs")
		}
	}
}

// BenchmarkSurrogateAccuracy regenerates the §VII-D surrogate study:
// Spearman ρ and top-quintile hit rate for linear and Matérn kernels.
func BenchmarkSurrogateAccuracy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := exp.SurrogateAccuracy(cfg, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscussionThroughput regenerates the §VII-C analysis:
// throughput-per-Joule and reuse versus the hand-designed baselines.
func BenchmarkDiscussionThroughput(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.Discussion(cfg, "Transformer")
		tolerate(b, err)
	}
}

// BenchmarkTimeloopAgreement regenerates the §VII-F cross-model
// validation: rank agreement between the two analytical models.
func BenchmarkTimeloopAgreement(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := exp.CrossModelAgreement(cfg, "Transformer", 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFeatureSets compares a full co-design run under the
// three feature modes of §VII-D — Spotlight (features), Spotlight-V (raw
// parameters), Spotlight-A (union) — the repository's headline design
// choice.
func BenchmarkAblationFeatureSets(b *testing.B) {
	model, err := workload.ByName("Transformer")
	if err != nil {
		b.Fatal(err)
	}
	rc := core.RunConfig{
		Models: []workload.Model{model}, Objective: core.MinDelay,
		HWSamples: 6, SWSamples: 8, Eval: maestro.New(),
	}
	for _, strat := range []*core.Spotlight{
		core.NewSpotlight(), core.NewSpotlightV(), core.NewSpotlightA(),
	} {
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc.Seed = int64(i + 1)
				_, err := core.Run(rc, strat)
				tolerate(b, err)
			}
		})
	}
}

// BenchmarkAblationKernels compares surrogate fit+predict cost for the
// linear kernel against Matérn-5/2 — the §V-A complexity argument for
// the linear kernel.
func BenchmarkAblationKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, d = 100, 11
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.NormFloat64()
	}
	probe := make([]float64, d)
	kernels := []gp.Kernel{gp.Linear{Bias: 1}, gp.Matern52{LengthScale: 1, Variance: 1}}
	for _, k := range kernels {
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := gp.New(k, 1e-4)
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 32; j++ {
					if _, _, err := m.Predict(probe); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationSearchStrategies times one nested co-design run per
// competing algorithm — the per-sample cost tradeoff behind Figure 10's
// wall-clock axis.
func BenchmarkAblationSearchStrategies(b *testing.B) {
	model, err := workload.ByName("Transformer")
	if err != nil {
		b.Fatal(err)
	}
	rc := core.RunConfig{
		Models: []workload.Model{model}, Objective: core.MinDelay,
		HWSamples: 6, SWSamples: 8, Eval: maestro.New(),
	}
	for _, strat := range []core.Strategy{
		core.NewSpotlight(), search.NewRandom(), search.NewGenetic(),
		search.NewConfuciuX(), search.NewHASCO(),
	} {
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rc.Seed = int64(i + 1)
				// Tiny sample budgets legitimately strand restricted
				// strategies on some seeds; that is a measured outcome,
				// not a bench failure.
				if _, err := core.Run(rc, strat); err != nil && !errors.Is(err, core.ErrNoFeasible) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaestroEvaluate measures the primary cost model's single-point
// evaluation latency — the inner loop of every search.
func BenchmarkMaestroEvaluate(b *testing.B) {
	m := maestro.New()
	a := hw.EyerissEdge().Accel
	l := workload.ResNet50().Layers[6]
	rng := rand.New(rand.NewSource(1))
	s := sched.Free().Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Evaluate(a, s, l)
	}
}

// BenchmarkMaestroEvaluateBatch compares the batched fast path against
// per-call Evaluate at a search-round-shaped batch size: the same 64
// candidate schedules for one (accelerator, layer) pair, either through
// one EvaluateBatch call (per-layer setup amortized, errors built
// lazily) or 64 Evaluate calls. Run with -benchmem; the acceptance bar
// (BENCH_6.json) is ≥2× items/sec and ≥5× fewer allocs/op batched.
func BenchmarkMaestroEvaluateBatch(b *testing.B) {
	m := maestro.New()
	a := hw.EyerissEdge().Accel
	l := workload.ResNet50().Layers[6]
	rng := rand.New(rand.NewSource(1))
	free := sched.Free()
	const batch = 64
	ss := make([]sched.Schedule, batch)
	for i := range ss {
		ss[i] = free.Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
		if i%7 == 3 { // salt with capacity-invalid candidates, as real rounds have
			ss[i].T2[workload.DimK] = l.K + 1
		}
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = m.EvaluateBatch(a, ss, l)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range ss {
				_, _ = m.Evaluate(a, s, l)
			}
		}
	})
}

// BenchmarkTransformerLayerSearch is the ROADMAP item 5 end-to-end
// measurement: one full per-layer software search over the Transformer's
// layers (the workload whose GEMM-heavy shapes made per-call evaluation
// the bottleneck), batched versus sequential candidate evaluation.
// Results are bit-identical; only throughput differs.
func BenchmarkTransformerLayerSearch(b *testing.B) {
	for _, nobatch := range []bool{false, true} {
		name := "batched"
		if nobatch {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg("Transformer")
			cfg.HWSamples = 2
			cfg.SWSamples = 64
			cfg.DisableBatch = nobatch
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				_, err := exp.Fig6(cfg)
				tolerate(b, err)
			}
		})
	}
}

// BenchmarkTimeloopEvaluate measures the second model's evaluation
// latency.
func BenchmarkTimeloopEvaluate(b *testing.B) {
	m := timeloop.New()
	a := hw.EyerissEdge().Accel
	l := workload.ResNet50().Layers[6]
	rng := rand.New(rand.NewSource(1))
	s := sched.Free().Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.Evaluate(a, s, l)
	}
}

// BenchmarkScheduleSampling measures the candidate generator that feeds
// every acquisition batch, per drawn schedule: one-shot is
// Constraint.Random, which builds a sampler per draw; per-layer draws
// from one sampler built up front, as a layer search does. The
// spotlight-f rows sample a fixed dataflow whose untiled dimensions are
// fit by FitTiles, which the per-layer sampler computes once.
func BenchmarkScheduleSampling(b *testing.B) {
	l := workload.ResNet50().Layers[6]
	for _, tc := range []struct {
		name string
		c    sched.Constraint
	}{
		{"free", sched.Free()},
		{"spotlight-f", sched.SpotlightF(sched.NVDLALike())},
	} {
		b.Run(tc.name+"/one-shot", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				_ = tc.c.Random(rng, l, 512, 128<<10)
			}
		})
		b.Run(tc.name+"/per-layer", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			smp := tc.c.Sampler(l, 512, 128<<10)
			for i := 0; i < b.N; i++ {
				_ = smp.Draw(rng)
			}
		})
	}
}

// BenchmarkFeatureTransform measures the Figure 4 feature computation
// for one candidate: one-shot is core.Transform; per-layer reuses one
// Candidate and feature row, as a layer search does.
func BenchmarkFeatureTransform(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := hw.EdgeSpace().Random(rng)
	l := workload.ResNet50().Layers[6]
	s := sched.Free().Random(rng, l, a.RFBytesPerPE(), a.L2Bytes())
	p := core.Point{Accel: a, Sched: s, Layer: l}
	fs := core.SoftwareFeatures()
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Transform(fs, p)
		}
	})
	b.Run("per-layer", func(b *testing.B) {
		c := core.Candidate{Point: p}
		row := make([]float64, len(fs))
		for i := 0; i < b.N; i++ {
			c.Sched = s
			c.TransformInto(row, fs)
		}
	})
}

// BenchmarkDABOSuggest measures one acquisition step at the paper's
// full budget: 64 candidates ranked on a surrogate trained on 100
// observations of the 11-dimensional Figure 4 feature space, with a
// refit forced every iteration (the worst case the search loop can hit).
func BenchmarkDABOSuggest(b *testing.B) {
	const nObs, dim, batch = 100, 11, 64
	rng := rand.New(rand.NewSource(1))
	point := func() []float64 {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return x
	}
	xs := make([][]float64, nObs)
	ys := make([]float64, nObs)
	for i := range xs {
		xs[i] = point()
		ys[i] = 1 + rng.Float64()
	}
	cands := make([][]float64, batch)
	for i := range cands {
		cands[i] = point()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh optimizer per iteration keeps the benchmark stationary:
		// each SuggestIndex pays exactly one fit at n=100 followed by a
		// 64-wide batch prediction — the hot path of §V's inner loop.
		d := core.NewDABO(gp.Linear{Bias: 1}, rng, core.WithWarmup(0), core.WithRefitEvery(1))
		for j := range xs {
			d.Observe(xs[j], ys[j])
		}
		_ = d.SuggestIndex(cands)
	}
}

// BenchmarkTopDesignCrossCheck regenerates the §VII-F recommendation:
// re-evaluate the search's top designs on the second analytical model.
func BenchmarkTopDesignCrossCheck(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := exp.TopDesignCrossCheck(cfg, "Transformer")
		tolerate(b, err)
	}
}

// BenchmarkSimValidation runs the analytical-vs-simulator validation.
func BenchmarkSimValidation(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := exp.SimCheck(cfg, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNASJointSearch runs the §VIII future-work extension: joint
// model/hardware/schedule search with a quality floor.
func BenchmarkNASJointSearch(b *testing.B) {
	cfg := nas.SearchConfig{
		CoDesign: core.RunConfig{
			Space:     hw.EdgeSpace(),
			Budget:    hw.EdgeBudget(),
			Objective: core.MinEDP,
			HWSamples: 3,
			SWSamples: 5,
			Eval:      maestro.New(),
		},
		QualityFloor: 0.5,
		ArchSamples:  4,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		_, err := nas.Search(cfg)
		tolerate(b, err)
	}
}

// BenchmarkOracleEnumeration measures exhaustive schedule enumeration of
// a tiny layer — the ground-truth generator the searchers are validated
// against.
func BenchmarkOracleEnumeration(b *testing.B) {
	a := hw.Accel{PEs: 16, Width: 4, SIMDLanes: 2, RFKB: 64, L2KB: 64, NoCBW: 64}
	l := workload.Conv("tiny", 1, 4, 2, 1, 1, 4, 4)
	opts := oracle.Options{Orders: oracle.StructuredOrders()[:2]}
	for i := 0; i < b.N; i++ {
		if _, err := oracle.BestSchedule(maestro.New(), core.MinDelay, a, l, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateTrace measures the trace-driven simulator on a
// moderate loop nest.
func BenchmarkSimulateTrace(b *testing.B) {
	a := hw.EyerissEdge().Accel
	l := workload.Conv("t", 1, 16, 8, 3, 3, 10, 10)
	var s sched.Schedule
	for i, d := range workload.AllDims {
		size := l.Size(d)
		s.T2[i] = size
		if size%2 == 0 {
			s.T2[i] = size / 2
		}
		s.T1[i] = 1
	}
	s.OuterOrder = sched.CanonicalOrder()
	s.InnerOrder = sched.CanonicalOrder()
	s.OuterUnroll, s.InnerUnroll = workload.DimK, workload.DimC
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(a, s, l, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
