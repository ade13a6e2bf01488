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

// Outcome classifications shared by the trace layer's counters and its
// eval.done events, so "what counts as invalid" is defined exactly once.
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

// Counter names in a trace layer's registry (Pipeline.Metrics). Every
// other counter there is a backend event, under the name the backend
// reported it by.
const (
	MetricItems     = "eval.items"      // items that reached the inner evaluator
	MetricOK        = "eval.ok"         // items classified OutcomeOK
	MetricInvalid   = "eval.invalid"    // items classified OutcomeInvalid
	MetricError     = "eval.error"      // items classified OutcomeError
	MetricLatencyNS = "eval.latency_ns" // summed round durations
)

// Trace is the pipeline's one observe layer. FromSpec places it
// directly above the backend, so it records true backend work: cache
// hits never reach it. Each round is timed once and its outcomes are
// counted into the layer's own obs.Registry; when the round's span or
// the layer's tracer is live, the same outcomes are also emitted as
// eval.done (and eval.batch) events. It also implements sim.EventSink,
// so backend path events are counted and traced through the same
// layer. It never changes results, so it is name-transparent.
type Trace struct {
	inner core.Evaluator
	tr    obs.Tracer
	scope string // the wrapped evaluator's name, carried as Event.Scope

	reg                                   *obs.Registry
	items, ok, invalid, failed, latencyNS *obs.Counter
}

// WithTrace returns the observe layer. A nil (or disabled) tracer
// leaves only the counters. The inner evaluator's name at construction
// time is stamped on every eval.done/eval.batch event as its Scope,
// which is what lets tracestat attribute evaluation time per backend.
func WithTrace(tr obs.Tracer) Middleware {
	return func(inner core.Evaluator) core.Evaluator {
		reg := obs.NewRegistry()
		return &Trace{
			inner:     inner,
			tr:        tr,
			scope:     inner.Name(),
			reg:       reg,
			items:     reg.Counter(MetricItems),
			ok:        reg.Counter(MetricOK),
			invalid:   reg.Counter(MetricInvalid),
			failed:    reg.Counter(MetricError),
			latencyNS: reg.Counter(MetricLatencyNS),
		}
	}
}

// Name implements core.Evaluator; observing never changes results, so
// the layer is transparent in the name (and the checkpoint fingerprint).
func (t *Trace) Name() string { return t.inner.Name() }

// Evaluate implements core.Evaluator as a round of one.
func (t *Trace) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	return evaluateOne(t, a, s, l)
}

// EvaluateRound implements core.RoundEvaluator. The round is timed
// once; its outcomes are tallied locally and added to the counters once
// per round. When traced, each item gets one eval.done event with its
// outcome, parented under sp and following sp's sink, so each
// spotlightd job sees its own evaluations even though the pipeline is
// shared. A round of one carries its duration on that event; a
// multi-item round has no per-item durations, so it adds one eval.batch
// event with the round size and the whole-round duration instead.
// Latency is observability only: it is never fed back into the search,
// and the clock is read through obs, the one package sanctioned to.
func (t *Trace) EvaluateRound(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer,
	costs []maestro.Cost, errs []error) {

	start := obs.Now()
	core.EvaluateRound(t.inner, sp, a, ss, l, costs, errs)
	dur := obs.Since(start)
	traced := obs.Active(sp, t.tr)
	var ok, invalid, failed int64
	for i := range ss {
		outcome := Outcome(errs[i])
		switch outcome {
		case OutcomeOK:
			ok++
		case OutcomeInvalid:
			invalid++
		default:
			failed++
		}
		if traced {
			e := obs.Event{Type: obs.EvalDone, Scope: t.scope, Detail: outcome}
			if len(ss) == 1 {
				e.DurMS = obs.MS(dur)
			}
			sp.EmitTo(t.tr, e)
		}
	}
	addNonZero(t.items, int64(len(ss)))
	addNonZero(t.ok, ok)
	addNonZero(t.invalid, invalid)
	addNonZero(t.failed, failed)
	addNonZero(t.latencyNS, int64(dur))
	if traced && len(ss) > 1 {
		sp.EmitTo(t.tr, obs.Event{Type: obs.EvalBatch, Scope: t.scope, N: len(ss), DurMS: obs.MS(dur)})
	}
}

// addNonZero skips the atomic add when a round left a counter unchanged.
func addNonZero(c *obs.Counter, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// Event implements sim.EventSink: each named backend event is counted
// in the layer's registry and, when a tracer is attached, forwarded as
// a backend.path trace event — counters and traces share this one entry
// point, so the two can never disagree about what the backend did.
func (t *Trace) Event(name string) {
	t.reg.Counter(name).Add(1)
	if obs.Enabled(t.tr) {
		t.tr.Emit(obs.Event{Type: obs.BackendPath, Detail: name})
	}
}
