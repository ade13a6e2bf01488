package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// The wrappers in this file time and count calls at the program's
// public seams: the core.Strategy proposers, the core.Evaluator handed
// to the search loop, and the backend placed under eval.Chain. They must
// not change which code path the search takes, so each forwards the
// optional methods its inner value has, matched by method set only:
// RoundSize on software proposers and EvaluateBatch on evaluators. The
// span-threading methods are not forwarded because traced runs leave
// the program's own tracing off, and with a nil span core.RunContext
// calls Evaluate and EvaluateBatch either way.

// roundSizer is the method set of a proposer that asks the search loop
// to collect several suggestions into one evaluation round.
type roundSizer interface{ RoundSize() int }

// batcher is the method set of an evaluator with a batch entry point.
type batcher interface {
	EvaluateBatch(hw.Accel, []sched.Schedule, workload.Layer) ([]maestro.Cost, []error)
}

// layerRecorder collects the timings of one traced search. Proposers
// are goroutine-confined, so each proposer wrapper records into its own
// slices and registers itself here once, at creation; the recorder
// reads them after the search returns, when every worker has joined.
type layerRecorder struct {
	mu  sync.Mutex
	hws []*hwWrap
	sws []*swWrap
}

// swProbeInput is one (accelerator, layer) pair a software proposer was
// created for, kept as input for the single-goroutine probe.
type swProbeInput struct {
	accel hw.Accel
	layer workload.Layer
}

// wrapStrategy returns s with every proposer it builds timed into rec.
func wrapStrategy(s core.Strategy, rec *layerRecorder) core.Strategy {
	return &strategyWrap{Strategy: s, rec: rec}
}

type strategyWrap struct {
	core.Strategy
	rec *layerRecorder
}

func (s *strategyWrap) NewHW(cfg core.RunConfig, rng *rand.Rand) core.HWProposer {
	w := &hwWrap{inner: s.Strategy.NewHW(cfg, rng)}
	s.rec.mu.Lock()
	s.rec.hws = append(s.rec.hws, w)
	s.rec.mu.Unlock()
	return w
}

func (s *strategyWrap) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	inner := s.Strategy.NewSW(cfg, rng, a, l)
	w := &swWrap{inner: inner, pair: swProbeInput{accel: a, layer: l}}
	s.rec.mu.Lock()
	s.rec.sws = append(s.rec.sws, w)
	s.rec.mu.Unlock()
	if rs, ok := inner.(roundSizer); ok {
		return &roundSWWrap{swWrap: w, rs: rs}
	}
	return w
}

// hwWrap times the hardware proposer. A trial runs from the start of
// Suggest to the end of the matching Observe: proposal, every layer's
// software search, and the feedback.
type hwWrap struct {
	inner   core.HWProposer
	suggest []interval
	observe []interval
}

func (w *hwWrap) Suggest() hw.Accel {
	t0 := nowNS()
	a := w.inner.Suggest()
	w.suggest = append(w.suggest, interval{t0, nowNS()})
	return a
}

func (w *hwWrap) Observe(a hw.Accel, objective float64, err error) {
	t0 := nowNS()
	w.inner.Observe(a, objective, err)
	w.observe = append(w.observe, interval{t0, nowNS()})
}

// swWrap times one software proposer (one layer search).
type swWrap struct {
	inner   core.SWProposer
	pair    swProbeInput
	suggest []interval
	observe []interval
}

func (w *swWrap) Suggest() sched.Schedule {
	t0 := nowNS()
	s := w.inner.Suggest()
	w.suggest = append(w.suggest, interval{t0, nowNS()})
	return s
}

func (w *swWrap) Observe(s sched.Schedule, objective float64, err error) {
	t0 := nowNS()
	w.inner.Observe(s, objective, err)
	w.observe = append(w.observe, interval{t0, nowNS()})
}

// roundSWWrap is swWrap for proposers that size their own rounds.
type roundSWWrap struct {
	*swWrap
	rs roundSizer
}

func (w *roundSWWrap) RoundSize() int { return w.rs.RoundSize() }

// evalRecorder counts and times the calls reaching one evaluator. It is
// shared by the search's worker goroutines, so counters are atomic and
// the call intervals (kept only when keep is set) sit behind a mutex.
type evalRecorder struct {
	keep    bool
	calls   atomic.Int64
	items   atomic.Int64
	invalid atomic.Int64
	ns      atomic.Int64

	mu  sync.Mutex
	ivs []interval
}

func (r *evalRecorder) record(t0, t1 int64, items int, errs ...error) {
	r.calls.Add(1)
	r.items.Add(int64(items))
	r.ns.Add(t1 - t0)
	for _, err := range errs {
		if errors.Is(err, maestro.ErrInvalid) {
			r.invalid.Add(1)
		}
	}
	if r.keep {
		r.mu.Lock()
		r.ivs = append(r.ivs, interval{t0, t1})
		r.mu.Unlock()
	}
}

// wrapEvaluator returns ev with its calls recorded into rec, keeping
// ev's batch entry point if it has one.
func wrapEvaluator(ev core.Evaluator, rec *evalRecorder) core.Evaluator {
	w := &evalWrap{inner: ev, rec: rec}
	if b, ok := ev.(batcher); ok {
		return &batchEvalWrap{evalWrap: w, b: b}
	}
	return w
}

type evalWrap struct {
	inner core.Evaluator
	rec   *evalRecorder
}

func (w *evalWrap) Name() string { return w.inner.Name() }

func (w *evalWrap) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	t0 := nowNS()
	c, err := w.inner.Evaluate(a, s, l)
	w.rec.record(t0, nowNS(), 1, err)
	return c, err
}

type batchEvalWrap struct {
	*evalWrap
	b batcher
}

func (w *batchEvalWrap) EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	t0 := nowNS()
	cs, errs := w.b.EvaluateBatch(a, ss, l)
	w.rec.record(t0, nowNS(), len(ss), errs...)
	return cs, errs
}
