package main

import (
	"spotlight/internal/engine"
)

// workloadDef names a workload, says why it is in the benchmark, and
// builds its inputs from the configuration's seed.
type workloadDef struct {
	name, why string
	build     func(cfg benchConfig) bench
}

// Workload sizes. They set how much work one iteration does; see
// README.md for the measurements they were chosen from.
const (
	edgeHW, edgeSW         = 100, 24
	baselineHW, baselineSW = 125, 25
	// baselineSearches is how many searches per strategy an iteration
	// runs, each from its own seed: how many sampled accelerators fit the
	// area budget varies from seed to seed, and several independent
	// searches average that out.
	baselineSearches = 4
)

var jobsMixed = jobsMix{
	strategies: []string{"spotlight", "random", "ga"},
	models:     []string{"MobileNetV2", "ResNet-50", "Transformer"},
	seedPool:   7,
	uses:       2,
	hw:         8,
	sw:         9,
	evalSpec:   "maestro,cache",
}

func searchSpec(strategy string, hw, sw int, seed int64, evalSpec string) engine.JobSpec {
	return engine.JobSpec{
		Kind:      engine.KindSearch,
		Strategy:  strategy,
		Models:    []string{"ResNet-50"},
		Scale:     "edge",
		Objective: "delay",
		HWSamples: hw,
		SWSamples: sw,
		Seed:      seed,
		Eval:      evalSpec,
		Workers:   2,
	}
}

var workloads = []workloadDef{
	{
		name: "spotlight_edge",
		why:  "the paper's daBO loop; candidate generation dominates host time",
		build: func(cfg benchConfig) bench {
			return &searchBench{
				specs:    []engine.JobSpec{searchSpec("spotlight", edgeHW, edgeSW, cfg.seed, "maestro")},
				evalSpec: "maestro",
			}
		},
	},
	{
		name: "baselines_eval",
		why:  "feedback-free random and GA rounds through a memo cache into maestro; the eval path dominates",
		build: func(cfg benchConfig) bench {
			b := &searchBench{evalSpec: "maestro,cache"}
			for _, strategy := range []string{"random", "ga"} {
				for k := int64(0); k < baselineSearches; k++ {
					b.specs = append(b.specs, searchSpec(strategy, baselineHW, baselineSW, cfg.seed*baselineSearches+k, b.evalSpec))
				}
			}
			return b
		},
	},
	{
		name: "jobs_mixed",
		why:  "short mixed search jobs on a shared Runner with tracing, checkpoints and a disk journal always on",
		build: func(cfg benchConfig) bench {
			return newJobsBench(jobsMixed, cfg.seed, cfg.workdir)
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
