// Package eval unifies access to the cost-model backends behind one
// composable evaluation pipeline. The paper's §VIII anticipates swapping
// in "more costly but more accurate evaluation backends", and every
// consumer of the cost model — the nested daBO driver in internal/core,
// the baselines in internal/search, the figure harnesses in
// internal/exp, and both CLIs — needs the same supporting machinery
// around whichever backend it runs: fault containment, memoization, and
// instrumentation. This package provides that machinery once:
//
//   - A named backend registry: Register associates a name with a
//     constructor, Open instantiates by name, and Backends lists what is
//     available. The three bundled backends (maestro, timeloop, sim)
//     self-register.
//   - A middleware chain: Chain(backend, mw...) wraps a backend in
//     layers that each preserve the evaluator contract. The bundled
//     middlewares are WithCache (a concurrency-safe memo cache with one
//     table per accelerator-layer pair and single-flight deduplication),
//     WithTrace (per-backend item/outcome/latency counters and trace
//     events), and WithGuard (the resilience.Guard panic/timeout/retry
//     policy).
//   - A spec language: FromSpec("sim,cache,guard") builds the whole
//     pipeline from one flag-friendly string, which is how the CLIs and
//     the experiment harness configure evaluation.
//
// A Pipeline satisfies core.Evaluator, so it drops into
// core.RunConfig.Eval unchanged. An uncached, unguarded pipeline is a
// pure pass-through: it produces bit-identical results (and therefore
// bit-identical search History) to calling the backend directly.
package eval

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/sim"
	"spotlight/internal/workload"
)

// Factory constructs one backend instance. Factories are invoked once
// per Open call, so every pipeline owns its backend (stateful backends
// like sim's hybrid never alias across pipelines).
type Factory func() (core.Evaluator, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register associates a backend name with its constructor. Registering
// an empty name, a nil factory, or a duplicate name panics: registration
// happens at init time, where a loud failure beats a shadowed backend.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("eval: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic("eval: Register called twice for backend " + name)
	}
	registry[name] = f
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// UnknownBackendError is returned by Open (and FromSpec) for a name with
// no registered backend. It lists what is registered so CLIs can print
// an actionable message instead of a bare failure.
type UnknownBackendError struct {
	Name       string
	Registered []string
}

// Error implements error.
func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("eval: unknown backend %q (registered backends: %s)",
		e.Name, strings.Join(e.Registered, ", "))
}

// Open instantiates the named backend. An unknown name returns an
// *UnknownBackendError listing the registered names.
func Open(name string) (core.Evaluator, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, &UnknownBackendError{Name: name, Registered: Backends()}
	}
	return f()
}

// Middleware is one layer of an evaluation pipeline: it wraps an
// evaluator in another evaluator. Middlewares must preserve the
// evaluator contract — in particular the error classification (errors
// wrapping maestro.ErrInvalid mark infeasible points) — and must be safe
// for concurrent Evaluate calls whenever the wrapped evaluator is.
type Middleware func(core.Evaluator) core.Evaluator

// Pipeline is a backend composed with its middleware stack. It
// implements core.Evaluator (Evaluate and Name delegate to the outermost
// layer) plus Validate, which core.RunConfig checks before a run starts.
// Handles to the cache, trace and disk layers, when present, are
// retained for reporting.
type Pipeline struct {
	backend core.Evaluator // innermost layer
	outer   core.Evaluator // fully composed chain
	cache   *Cache         // nil when the chain has no cache layer
	trace   *Trace         // nil when the chain has no trace layer
	disk    *Disk          // nil when the chain has no persistent cache layer
	spec    string         // the spec the pipeline was built from, if any
}

// Chain composes a backend with middlewares, innermost first: the first
// middleware wraps the backend directly, the last sees every call first.
// When the backend is sim's hybrid and the chain contains a trace layer,
// the backend's path events (simulated/fallback) are wired into that
// layer, so backend-specific counters live in the middleware rather
// than the backend.
func Chain(backend core.Evaluator, mw ...Middleware) *Pipeline {
	p := &Pipeline{backend: backend, outer: backend}
	for _, m := range mw {
		if m == nil {
			continue
		}
		p.outer = m(p.outer)
		switch layer := p.outer.(type) {
		case *Cache:
			p.cache = layer
		case *Trace:
			p.trace = layer
		case *Disk:
			p.disk = layer
		}
	}
	if b, ok := backend.(*sim.Backend); ok && p.trace != nil {
		b.Events = p.trace
	}
	return p
}

// Evaluate implements core.Evaluator.
func (p *Pipeline) Evaluate(a hw.Accel, s sched.Schedule, l workload.Layer) (maestro.Cost, error) {
	return p.outer.Evaluate(a, s, l)
}

// EvaluateRound implements core.RoundEvaluator by handing the round,
// and the span that caused it, to the outermost layer. Each layer
// forwards it inward; results are identical to per-item Evaluate.
func (p *Pipeline) EvaluateRound(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer,
	costs []maestro.Cost, errs []error) {
	core.EvaluateRound(p.outer, sp, a, ss, l, costs, errs)
}

// EvaluateBatch implements core.BatchEvaluator: one untraced round
// into freshly allocated result slices.
func (p *Pipeline) EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	costs := make([]maestro.Cost, len(ss))
	errs := make([]error, len(ss))
	p.EvaluateRound(nil, a, ss, l, costs, errs)
	return costs, errs
}

// Name implements core.Evaluator. Trajectory-neutral layers (cache,
// trace) are name-transparent, so a pipeline's name — and with it the
// checkpoint fingerprint — depends only on the layers that can change
// what the search observes (the backend, and guard under faults).
func (p *Pipeline) Name() string { return p.outer.Name() }

// Validate reports whether the pipeline is runnable: a backend must be
// present, and every layer must have wrapped rather than dropped its
// inner evaluator. core.RunConfig calls this before a search starts.
func (p *Pipeline) Validate() error {
	if p == nil {
		return errors.New("eval: nil pipeline")
	}
	if p.backend == nil {
		return errors.New("eval: pipeline has no backend")
	}
	if p.outer == nil {
		return errors.New("eval: pipeline chain is broken (middleware returned nil)")
	}
	if p.backend.Name() == "" {
		return errors.New("eval: backend has an empty name")
	}
	return nil
}

// Backend returns the innermost layer of the pipeline.
func (p *Pipeline) Backend() core.Evaluator { return p.backend }

// Cache returns the pipeline's cache layer, or nil.
func (p *Pipeline) Cache() *Cache { return p.cache }

// Metrics returns the trace layer's counters (the Metric* names plus one
// counter per backend event), or nil when the chain has no trace layer.
func (p *Pipeline) Metrics() *obs.Registry {
	if p.trace == nil {
		return nil
	}
	return p.trace.reg
}

// Disk returns the pipeline's persistent cache layer, or nil.
func (p *Pipeline) Disk() *Disk { return p.disk }

// Close releases pipeline resources — today, flushing and closing the
// persistent cache journal. Pipelines without a disk layer close
// trivially; the CLIs call this (and check the error) on every exit
// path, including signal-driven ones.
func (p *Pipeline) Close() error {
	if p.disk == nil {
		return nil
	}
	return p.disk.Close()
}

// Spec returns the spec string the pipeline was built from (empty for
// hand-assembled chains).
func (p *Pipeline) Spec() string { return p.spec }

// Report renders the pipeline's counters — the backend's first, then
// its backend events in name order, then the caches — as human-readable
// lines, for the CLIs to print after a run. It returns "" when the
// pipeline has none of those layers.
func (p *Pipeline) Report() string {
	var b strings.Builder
	if p.trace != nil {
		c := p.trace.reg.Snapshot().Counters
		items := c[MetricItems]
		var avg time.Duration
		if items > 0 {
			avg = time.Duration(c[MetricLatencyNS] / items)
		}
		fmt.Fprintf(&b, "eval stats [%s]: evals=%d ok=%d invalid=%d errors=%d avg=%s\n",
			p.trace.scope, items, c[MetricOK], c[MetricInvalid], c[MetricError], avg)
		events := make([]string, 0, len(c))
		for name := range c { //lint:allow maporder(sorted before use below)
			if !strings.HasPrefix(name, "eval.") {
				events = append(events, name)
			}
		}
		sort.Strings(events)
		for _, ev := range events {
			fmt.Fprintf(&b, "eval stats [%s]: %s=%d\n", p.trace.scope, ev, c[ev])
		}
	}
	if p.cache != nil {
		c := p.cache.Snapshot()
		fmt.Fprintf(&b, "eval cache: hits=%d misses=%d coalesced=%d entries=%d\n",
			c.Hits, c.Misses, c.Coalesced, c.Entries)
	}
	if p.disk != nil {
		if s := p.disk.Store(); s != nil {
			d := s.Snapshot()
			mode := "rw"
			switch {
			case d.Degraded:
				mode = "degraded"
			case d.ReadOnly:
				mode = "ro"
			}
			fmt.Fprintf(&b, "eval diskcache [%s]: hits=%d misses=%d appends=%d entries=%d recovered=%d dropped=%dB mode=%s\n",
				s.Path(), d.Hits, d.Misses, d.Puts, d.Entries, d.Recovered, d.DroppedBytes, mode)
		} else {
			fmt.Fprintf(&b, "eval diskcache: disabled (%v)\n", p.disk.OpenErr())
		}
	}
	return b.String()
}
