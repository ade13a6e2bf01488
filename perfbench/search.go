package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"spotlight/internal/core"
	"spotlight/internal/engine"
	"spotlight/internal/eval"
)

// Outcome classes of one search or job.
const (
	outcomeOK         = "ok"
	outcomeInfeasible = "infeasible" // core.ErrNoFeasible: a real result, not a failure
	outcomeFailed     = "failed"
)

func classify(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, core.ErrNoFeasible):
		return outcomeInfeasible
	}
	return outcomeFailed
}

// designDigest hashes what a search produced: its outcome and, for a
// search that found a feasible design, its history without the
// wall-clock elapsed_s column and its best design. Other outcomes hash
// the outcome alone, because a job that ends without a design keeps no
// artifacts to compare.
func designDigest(outcome string, historyCSV, designJSON []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "outcome=%s\n", outcome)
	if outcome == outcomeOK {
		for _, line := range strings.Split(strings.TrimSpace(string(historyCSV)), "\n") {
			cols := strings.Split(line, ",")
			if len(cols) > 1 {
				cols = append(cols[:1], cols[2:]...)
			}
			fmt.Fprintln(h, strings.Join(cols, ","))
		}
		h.Write(designJSON)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultDigest is designDigest for a search's core.Result and error.
func resultDigest(res core.Result, err error) string {
	outcome := classify(err)
	if outcome != outcomeOK {
		return designDigest(outcome, nil, nil)
	}
	// A design that fails to encode hashes as empty, which the digest
	// comparison then reports.
	design, _ := engine.DesignJSON(res, res.Config.Objective)
	return designDigest(outcome, engine.HistoryCSV(res), design)
}

// combineDigests folds per-search digests, in order, into one.
func combineDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// searchBench runs one or more searches in sequence through
// engine.RunSearch, all sharing one evaluation pipeline that is built
// fresh, with empty caches, for every iteration.
type searchBench struct {
	specs    []engine.JobSpec
	evalSpec string

	refDigest string
	refEvals  int64 // evaluations the search loop requests per iteration
}

func (b *searchBench) reference(ctx context.Context) error {
	pipe, err := eval.FromSpec(b.evalSpec, eval.SpecOptions{})
	if err != nil {
		return err
	}
	rec := &evalRecorder{}
	ev := wrapEvaluator(pipe, rec)
	var ds []string
	for _, spec := range b.specs {
		res, err := engine.RunSearch(ctx, spec, engine.SearchOptions{Eval: ev})
		if classify(err) == outcomeFailed {
			return fmt.Errorf("reference %s search: %w", spec.Strategy, err)
		}
		ds = append(ds, resultDigest(res, err))
	}
	b.refDigest = combineDigests(ds)
	b.refEvals = rec.items.Load()
	return pipe.Close()
}

func (b *searchBench) referenceDigest() string { return b.refDigest }

type searchInstance struct {
	b     *searchBench
	specs []engine.JobSpec
	pipe  *eval.Pipeline  // untraced iterations
	tp    *tracedPipeline // traced iterations
}

// setup resolves and validates the specs and builds the pipeline.
func (b *searchBench) setup(traced bool) (instance, error) {
	inst := &searchInstance{b: b}
	for _, s := range b.specs {
		s = s.Normalized()
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, _, err := s.SearchConfig(nil, nil); err != nil {
			return nil, err
		}
		inst.specs = append(inst.specs, s)
	}
	var err error
	if traced {
		inst.tp, err = newTracedPipeline(b.evalSpec)
	} else {
		inst.pipe, err = eval.FromSpec(b.evalSpec, eval.SpecOptions{})
	}
	return inst, err
}

func (s *searchInstance) close() error {
	if s.pipe == nil {
		return nil
	}
	return s.pipe.Close()
}

func (s *searchInstance) run(ctx context.Context) (iterOutcome, error) {
	var out iterOutcome
	var ds []string
	traced := s.tp != nil
	if traced {
		out.layers = &layerTotals{iterations: 1}
	}
	for _, spec := range s.specs {
		var res core.Result
		var err error
		if traced {
			var ts tracedSearch
			res, ts, err = runTraced(ctx, spec, s.tp)
			out.layers.addSearch(ts)
		} else {
			res, err = engine.RunSearch(ctx, spec, engine.SearchOptions{Eval: s.pipe})
		}
		out.add(classify(err), res.Best.Objective)
		ds = append(ds, resultDigest(res, err))
		prev := 0.0
		for _, h := range res.History {
			ms := h.Elapsed.Seconds() * 1e3
			out.ops = append(out.ops, ms-prev)
			prev = ms
		}
	}
	if traced {
		out.layers.addEval(s.tp.pipeRec, s.tp.backendRec)
	}
	out.digest = combineDigests(ds)
	out.evals = s.b.refEvals
	return out, nil
}

// tracedPipeline is a pipeline assembled by hand with eval.Chain so the
// benchmark can record calls at the backend under it, wrapped in turn
// by a recorder for the calls the search loop makes.
type tracedPipeline struct {
	ev                  core.Evaluator
	pipeRec, backendRec *evalRecorder
}

// newTracedPipeline builds the traced equivalent of an eval spec made
// of a backend name and "cache" tokens.
func newTracedPipeline(spec string) (*tracedPipeline, error) {
	parts := strings.Split(spec, ",")
	backend, err := eval.Open(parts[0])
	if err != nil {
		return nil, err
	}
	var mws []eval.Middleware
	for _, tok := range parts[1:] {
		if tok != "cache" {
			return nil, fmt.Errorf("traced pipeline: unsupported middleware %q in %q", tok, spec)
		}
		mws = append(mws, eval.WithCache())
	}
	tp := &tracedPipeline{pipeRec: &evalRecorder{keep: true}, backendRec: &evalRecorder{}}
	tp.ev = wrapEvaluator(eval.Chain(wrapEvaluator(backend, tp.backendRec), mws...), tp.pipeRec)
	return tp, nil
}

// runTraced runs spec the way engine.RunSearch does, translating it
// with JobSpec.SearchConfig and driving core.RunContext, but with the
// strategy's proposers and the pipeline wrapped by the benchmark.
func runTraced(ctx context.Context, spec engine.JobSpec, tp *tracedPipeline) (core.Result, tracedSearch, error) {
	cfg, strat, err := spec.SearchConfig(tp.ev, nil)
	if err != nil {
		return core.Result{}, tracedSearch{}, err
	}
	ts := tracedSearch{workers: cfg.Workers, rec: &layerRecorder{}, pipe: tp.pipeRec}
	ts.run.start = nowNS()
	res, err := core.RunContext(ctx, cfg, wrapStrategy(strat, ts.rec))
	ts.run.end = nowNS()
	return res, ts, err
}
