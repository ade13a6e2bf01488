package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/engine"
	"spotlight/internal/eval"
	"spotlight/internal/obs"
)

// jobsMix is the served-jobs workload's traffic: every combination of
// strategy and model, at a small budget, each run with every search
// seed of its own small pool, and every such spec submitted uses times,
// so that repeats hit the shared memo cache.
type jobsMix struct {
	strategies []string
	models     []string
	seedPool   int
	uses       int
	hw, sw     int
	evalSpec   string
}

func (m jobsMix) jobCount() int { return len(m.strategies) * len(m.models) * m.seedPool * m.uses }

// jobList builds the workload's jobs from seed. Each (strategy, model)
// combination has its own pool of search seeds derived from seed. Jobs
// go out in blocks holding each combination once, in an order the seed
// shuffles, and each combination takes its pool seeds in a shuffled
// order too. Every run
// therefore carries the same mix of heavy and light jobs and the same
// share of repeats; only the search seeds and the order vary.
func (m jobsMix) jobList(seed int64) []engine.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	type combo struct {
		strategy, model string
		seeds           []int64 // one entry per job of this combination
	}
	var combos []combo
	for _, s := range m.strategies {
		for _, model := range m.models {
			c := combo{strategy: s, model: model}
			base := seed*1000 + int64(len(combos)*m.seedPool) + 1
			for u := 0; u < m.uses; u++ {
				for i := 0; i < m.seedPool; i++ {
					c.seeds = append(c.seeds, base+int64(i))
				}
			}
			rng.Shuffle(len(c.seeds), func(i, j int) { c.seeds[i], c.seeds[j] = c.seeds[j], c.seeds[i] })
			combos = append(combos, c)
		}
	}
	out := make([]engine.JobSpec, 0, m.jobCount())
	for b := 0; b < m.seedPool*m.uses; b++ {
		for _, i := range rng.Perm(len(combos)) {
			out = append(out, engine.JobSpec{
				Kind:      engine.KindSearch,
				Strategy:  combos[i].strategy,
				Models:    []string{combos[i].model},
				Scale:     "edge",
				Objective: "delay",
				HWSamples: m.hw,
				SWSamples: m.sw,
				Seed:      combos[i].seeds[b],
				Eval:      m.evalSpec,
				Workers:   1,
			}.Normalized())
		}
	}
	return out
}

func specKey(s engine.JobSpec) string {
	return fmt.Sprintf("%s/%s/%d", s.Strategy, strings.Join(s.Models, "+"), s.Seed)
}

// direct is a spec's reference: the same spec run alone through
// engine.RunSearch with a fresh pipeline.
type direct struct {
	spec   engine.JobSpec
	digest string
	wallS  float64
	evals  int64
}

// jobsBench drives an engine.Runner configured as cmd/spotlightd
// configures it, from two closed-loop clients.
type jobsBench struct {
	mix     jobsMix
	jobs    []engine.JobSpec
	workdir string
	clients int

	distinct []*direct // first-occurrence order
	byKey    map[string]*direct
}

func newJobsBench(mix jobsMix, seed int64, workdir string) *jobsBench {
	b := &jobsBench{mix: mix, jobs: mix.jobList(seed), workdir: workdir, clients: 2, byKey: map[string]*direct{}}
	for _, s := range b.jobs {
		if _, ok := b.byKey[specKey(s)]; !ok {
			d := &direct{spec: s}
			b.byKey[specKey(s)] = d
			b.distinct = append(b.distinct, d)
		}
	}
	return b
}

// forDistinct runs fn on every distinct spec from the workload's two
// client goroutines, and returns the first error.
func (b *jobsBench) forDistinct(fn func(d *direct) error) error {
	var next atomic.Int64
	errs := make([]error, b.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(b.distinct) || errs[c] != nil {
					return
				}
				errs[c] = fn(b.distinct[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reference runs every distinct spec directly, untraced, recording its
// digest, wall time and requested evaluations.
func (b *jobsBench) reference(ctx context.Context) error {
	return b.forDistinct(func(d *direct) error {
		pipe, err := eval.FromSpec(d.spec.Eval, eval.SpecOptions{})
		if err != nil {
			return err
		}
		rec := &evalRecorder{}
		t0 := time.Now()
		res, err := engine.RunSearch(ctx, d.spec, engine.SearchOptions{Eval: wrapEvaluator(pipe, rec)})
		d.wallS = time.Since(t0).Seconds()
		if classify(err) == outcomeFailed {
			return fmt.Errorf("direct run %s: %w", specKey(d.spec), err)
		}
		d.digest = resultDigest(res, err)
		d.evals = rec.items.Load()
		return pipe.Close()
	})
}

func (b *jobsBench) referenceDigest() string {
	ds := make([]string, len(b.jobs))
	for i, s := range b.jobs {
		ds[i] = b.byKey[specKey(s)].digest
	}
	return combineDigests(ds)
}

// tracedDirect runs every distinct spec once more under the benchmark's
// wrappers, for the core, eval and maestro layer metrics of the jobs'
// searches (the Runner builds its strategies and pipelines internally,
// out of the wrappers' reach). It also returns how many of these runs
// produced another design than the untraced direct run.
func (b *jobsBench) tracedDirect(ctx context.Context, out io.Writer) (*layerTotals, int, error) {
	var mu sync.Mutex
	tot := &layerTotals{iterations: 1}
	mismatches := 0
	err := b.forDistinct(func(d *direct) error {
		tp, err := newTracedPipeline(d.spec.Eval)
		if err != nil {
			return err
		}
		res, ts, err := runTraced(ctx, d.spec, tp)
		if classify(err) == outcomeFailed {
			return err
		}
		got := resultDigest(res, err)
		mu.Lock()
		defer mu.Unlock()
		if got != d.digest {
			mismatches++
			fmt.Fprintf(out, "OUTPUT CHECK FAILED: traced direct run %s digest %s, untraced %s\n", specKey(d.spec), got, d.digest)
		}
		tot.addSearch(ts)
		tot.addEval(tp.pipeRec, tp.backendRec)
		return nil
	})
	return tot, mismatches, err
}

// countingTracer counts the events reaching the server-wide sink.
type countingTracer struct {
	inner  obs.Tracer
	events atomic.Int64
}

func (c *countingTracer) Enabled() bool { return true }
func (c *countingTracer) Emit(e obs.Event) {
	c.events.Add(1)
	c.inner.Emit(e)
}

type jobsInstance struct {
	b       *jobsBench
	dir     string
	runner  *engine.Runner
	counter *countingTracer
	stats   *jobStats
}

// jobStats are the served-jobs figures read from public handles. The
// journal size is filled in by close, after the journal is flushed.
type jobStats struct {
	jobs, repeats int
	events        int64 // summed per-job trace buffer lengths
	serverEvents  int64 // events through the server-wide tracer
	journalMB     float64
	evals         int64   // evaluations the jobs' searches requested
	latencyS      float64 // summed submit-to-done latency
	directS       float64 // summed direct-run wall of the same specs
}

// setup builds the Runner with a fresh cache directory and opens the
// shared pipeline, and with it the disk journal.
func (b *jobsBench) setup(traced bool) (instance, error) {
	dir, err := os.MkdirTemp(b.workdir, "jobs-")
	if err != nil {
		return nil, err
	}
	var tr obs.Tracer = obs.NewMetricsTracer(obs.NewRegistry())
	var counter *countingTracer
	if traced {
		counter = &countingTracer{inner: tr}
		tr = counter
	}
	r := engine.NewRunner(engine.RunnerConfig{Concurrency: 2, CacheDir: dir, Tracer: tr})
	inst := &jobsInstance{b: b, dir: dir, runner: r, counter: counter, stats: &jobStats{}}
	if _, err := r.Pipelines().Get(b.mix.evalSpec); err != nil {
		_ = inst.close()
		return nil, err
	}
	return inst, nil
}

// close drains the runner, which flushes the journal, measures the
// journal and removes the cache directory.
func (j *jobsInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := j.runner.Shutdown(ctx)
	files, _ := filepath.Glob(filepath.Join(j.dir, "*"))
	for _, f := range files {
		if fi, serr := os.Stat(f); serr == nil {
			j.stats.journalMB += float64(fi.Size()) / (1 << 20)
		}
	}
	if rerr := os.RemoveAll(j.dir); err == nil {
		err = rerr
	}
	return err
}

// run is the closed loop: each client submits its next job only after
// the previous one is done, until every job of the list has run.
func (j *jobsInstance) run(ctx context.Context) (iterOutcome, error) {
	var out iterOutcome
	jobs := j.b.jobs
	handles := make([]*engine.Job, len(jobs))
	lat := make([]float64, len(jobs))
	var next atomic.Int64
	errs := make([]error, j.b.clients)
	var wg sync.WaitGroup
	for c := 0; c < j.b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				h, err := j.runner.Submit(jobs[i])
				if err != nil {
					errs[c] = err
					return
				}
				select {
				case <-h.Done():
				case <-ctx.Done():
					errs[c] = ctx.Err()
					return
				}
				lat[i] = time.Since(t0).Seconds()
				handles[i] = h
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	seen := map[string]bool{}
	ds := make([]string, len(jobs))
	for i, h := range handles {
		st := h.Status()
		outcome := outcomeOK
		if st.State != engine.StateDone {
			outcome = outcomeFailed
			if strings.Contains(st.Error, core.ErrNoFeasible.Error()) {
				outcome = outcomeInfeasible
			}
		}
		best := 0.0
		if st.BestObjective != nil {
			best = *st.BestObjective
		}
		out.add(outcome, best)
		hist, _ := h.Artifact("history.csv")
		design, _ := h.Artifact("design.json")
		ds[i] = designDigest(outcome, hist, design)
		out.ops = append(out.ops, lat[i]*1e3)
		d := j.b.byKey[specKey(jobs[i])]
		out.evals += d.evals
		j.stats.evals += d.evals
		j.stats.jobs++
		if seen[specKey(jobs[i])] {
			j.stats.repeats++
		}
		seen[specKey(jobs[i])] = true
		j.stats.events += int64(h.Trace().Len())
		j.stats.latencyS += lat[i]
		j.stats.directS += d.wallS
	}
	if j.counter != nil {
		j.stats.serverEvents = j.counter.events.Load()
	}
	out.digest = combineDigests(ds)
	out.jobs = j.stats
	return out, nil
}

// jobMetrics renders the engine, obs and diskcache metrics of the
// traced served-jobs iterations; on the search workloads, which run no
// jobs, they are 0.
func jobMetrics(m metricSet, its []*jobStats) {
	var t jobStats
	for _, s := range its {
		t.jobs += s.jobs
		t.repeats += s.repeats
		t.events += s.events
		t.serverEvents += s.serverEvents
		t.evals += s.evals
		t.journalMB += s.journalMB
		t.latencyS += s.latencyS
		t.directS += s.directS
	}
	m.add("engine.job_overhead_ratio", ratio(t.latencyS, t.directS), "ratio")
	m.add("engine.repeat_share", ratio(float64(t.repeats), float64(t.jobs)), "ratio")
	m.add("obs.events_per_job", ratio(float64(t.events), float64(t.jobs)), "count")
	m.add("obs.events_per_eval", ratio(float64(t.serverEvents), float64(t.evals)), "ratio")
	m.add("diskcache.journal_mb", ratio(t.journalMB, float64(len(its))), "MB")
}
