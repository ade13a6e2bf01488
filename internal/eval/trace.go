package eval

import (
	"errors"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// Outcome classifications shared by the trace middleware and the stats
// layer, so "what counts as invalid" is defined exactly once.
const (
	OutcomeOK      = "ok"      // evaluation succeeded
	OutcomeInvalid = "invalid" // error wrapping maestro.ErrInvalid: infeasible point
	OutcomeError   = "error"   // any other fault (timeout, panic, transient)
)

// Outcome classifies an evaluation result the way every counter and
// trace event reports it.
func Outcome(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, maestro.ErrInvalid):
		return OutcomeInvalid
	default:
		return OutcomeError
	}
}

// Trace is the trace middleware: it emits one obs.EvalDone event per
// call that reaches its inner evaluator, carrying the measured duration
// and the outcome classification. FromSpec places it directly above the
// backend, so — like the stats layer — it records true backend work:
// cache hits never reach it. It is observe-only and therefore
// name-transparent, exactly like cache and stats.
type Trace struct {
	inner core.Evaluator
	tr    obs.Tracer
	scope string // the wrapped evaluator's name, carried as Event.Scope
}

// WithTrace returns the trace middleware. A nil (or disabled) tracer
// makes the layer a pure pass-through with one branch of overhead. The
// inner evaluator's name at construction time is stamped on every
// eval.done/eval.batch event as its Scope, which is what lets tracestat
// attribute evaluation time per backend.
func WithTrace(tr obs.Tracer) Middleware {
	return func(inner core.Evaluator) core.Evaluator {
		return &Trace{inner: inner, tr: tr, scope: inner.Name()}
	}
}

// Name implements core.Evaluator; tracing never changes results, so it
// is transparent in the name (and the checkpoint fingerprint).
func (t *Trace) Name() string { return t.inner.Name() }

// Evaluate implements core.Evaluator as a round of one.
func (t *Trace) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	return evaluateOne(t, a, s, l)
}

// EvaluateRound implements core.RoundEvaluator: one eval.done event per
// item with its outcome, parented under sp and following sp's sink, so
// each spotlightd job sees its own evaluations even though the pipeline
// is shared. A round of one carries its duration on that event; a
// multi-item round has no per-item durations, so it adds one eval.batch
// event with the round size and the whole-round duration instead.
func (t *Trace) EvaluateRound(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer,
	costs []maestro.Cost, errs []error) {

	if !obs.Active(sp, t.tr) {
		core.EvaluateRound(t.inner, sp, a, ss, l, costs, errs)
		return
	}
	start := obs.Now()
	core.EvaluateRound(t.inner, sp, a, ss, l, costs, errs)
	dur := obs.MS(obs.Since(start))
	for i := range ss {
		e := obs.Event{Type: obs.EvalDone, Scope: t.scope, Detail: Outcome(errs[i])}
		if len(ss) == 1 {
			e.DurMS = dur
		}
		sp.EmitTo(t.tr, e)
	}
	if len(ss) > 1 {
		sp.EmitTo(t.tr, obs.Event{Type: obs.EvalBatch, Scope: t.scope, N: len(ss), DurMS: dur})
	}
}
