package main

import (
	"fmt"
	"io"
)

// layerTotals accumulates the traced searches of one benchmark run into
// the per-layer metrics. Time totals are reported per traced iteration.
type layerTotals struct {
	iterations     int
	capacityBaseNS int64 // summed run wall × workers of the traced searches
	selfNS         int64 // run wall not covered by any recorded layer call

	swSuggestNS, swObserveNS       int64
	swSuggestCalls, swObserveCalls int64
	hwSuggestNS, hwObserveNS       int64
	trialMS                        []float64
	busyNS, capacityNS             int64 // pool: layer-search time vs workers × trial wall

	evalCalls, evalItems, evalInvalid, evalNS int64
	backendItems, backendNS                   int64

	probe []swProbeInput
}

// merge adds o's totals to t.
func (t *layerTotals) merge(o *layerTotals) {
	t.iterations += o.iterations
	t.capacityBaseNS += o.capacityBaseNS
	t.selfNS += o.selfNS
	t.swSuggestNS += o.swSuggestNS
	t.swObserveNS += o.swObserveNS
	t.swSuggestCalls += o.swSuggestCalls
	t.swObserveCalls += o.swObserveCalls
	t.hwSuggestNS += o.hwSuggestNS
	t.hwObserveNS += o.hwObserveNS
	t.trialMS = append(t.trialMS, o.trialMS...)
	t.busyNS += o.busyNS
	t.capacityNS += o.capacityNS
	t.evalCalls += o.evalCalls
	t.evalItems += o.evalItems
	t.evalInvalid += o.evalInvalid
	t.evalNS += o.evalNS
	t.backendItems += o.backendItems
	t.backendNS += o.backendNS
	t.probe = append(t.probe, o.probe...)
}

// printShares prints each layer's time as a share of the traced
// searches' thread time (run wall × workers), the base the layers'
// summed per-goroutine times are comparable with.
func (t *layerTotals) printShares(out io.Writer) {
	threadNS := float64(t.capacityBaseNS)
	fmt.Fprintf(out, "layer shares (base: traced run wall × workers = %.1f ms over %d iterations):\n", threadNS/1e6, t.iterations)
	for _, r := range []struct {
		name string
		ns   int64
	}{
		{"core.sw_suggest", t.swSuggestNS},
		{"core.sw_observe", t.swObserveNS},
		{"core.hw_suggest+observe", t.hwSuggestNS + t.hwObserveNS},
		{"eval (pipeline, incl. backend)", t.evalNS},
		{"  eval self", t.evalNS - t.backendNS},
		{"  maestro", t.backendNS},
		{"core.self (run wall not covered)", t.selfNS},
	} {
		fmt.Fprintf(out, "  %-34s %10.1f ms %6.1f%%\n", r.name, float64(r.ns)/1e6, 100*ratio(float64(r.ns), threadNS))
	}
}

// tracedSearch is one search run under the benchmark's wrappers.
type tracedSearch struct {
	run     interval
	workers int
	rec     *layerRecorder
	pipe    *evalRecorder // may be shared with other, sequential searches
}

func sumNS(ivs []interval) int64 {
	var t int64
	for _, iv := range ivs {
		t += iv.end - iv.start
	}
	return t
}

// within returns the intervals that start inside run.
func within(ivs []interval, run interval) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.start >= run.start && iv.start <= run.end {
			out = append(out, iv)
		}
	}
	return out
}

// addSearch folds one traced search into the totals.
func (t *layerTotals) addSearch(ts tracedSearch) {
	t.capacityBaseNS += int64(ts.workers) * (ts.run.end - ts.run.start)
	children := within(ts.pipe.ivs, ts.run)
	for _, h := range ts.rec.hws {
		t.hwSuggestNS += sumNS(h.suggest)
		t.hwObserveNS += sumNS(h.observe)
		children = append(children, h.suggest...)
		children = append(children, h.observe...)
		for i := range h.observe {
			trial := h.observe[i].end - h.suggest[i].start
			t.trialMS = append(t.trialMS, float64(trial)/1e6)
			t.capacityNS += int64(ts.workers) * trial
		}
	}
	for _, s := range ts.rec.sws {
		t.swSuggestNS += sumNS(s.suggest)
		t.swObserveNS += sumNS(s.observe)
		t.swSuggestCalls += int64(len(s.suggest))
		t.swObserveCalls += int64(len(s.observe))
		children = append(children, s.suggest...)
		children = append(children, s.observe...)
		if len(s.suggest) > 0 && len(s.observe) > 0 {
			t.busyNS += s.observe[len(s.observe)-1].end - s.suggest[0].start
		}
		t.probe = append(t.probe, s.pair)
	}
	t.selfNS += ts.run.end - ts.run.start - unionNS(children)
}

// addEval folds an evaluator recorder pair (pipeline and backend) in.
func (t *layerTotals) addEval(pipe, backend *evalRecorder) {
	t.evalCalls += pipe.calls.Load()
	t.evalItems += pipe.items.Load()
	t.evalInvalid += pipe.invalid.Load()
	t.evalNS += pipe.ns.Load()
	t.backendItems += backend.items.Load()
	t.backendNS += backend.ns.Load()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics renders the core, pool, eval and maestro per-layer metrics.
func (t *layerTotals) metrics(m metricSet) {
	it := float64(t.iterations)
	if it == 0 {
		it = 1
	}
	perIterMS := func(ns int64) float64 { return float64(ns) / 1e6 / it }
	m.add("core.sw_suggest_ms", perIterMS(t.swSuggestNS), "ms")
	m.add("core.sw_suggest_calls", float64(t.swSuggestCalls)/it, "count")
	m.add("core.sw_suggest_ns", ratio(float64(t.swSuggestNS), float64(t.swSuggestCalls)), "ns")
	m.add("core.sw_observe_ms", perIterMS(t.swObserveNS), "ms")
	m.add("core.sw_observe_ns", ratio(float64(t.swObserveNS), float64(t.swObserveCalls)), "ns")
	m.add("core.hw_suggest_ms", perIterMS(t.hwSuggestNS), "ms")
	m.add("core.hw_observe_ms", perIterMS(t.hwObserveNS), "ms")
	trials := append([]float64(nil), t.trialMS...)
	m.add("core.trial_p50_ms", quantile(trials, 0.5), "ms")
	m.add("core.trial_p90_ms", quantile(trials, tailQuantile(len(trials))), "ms")
	m.add("core.self_ms", perIterMS(t.selfNS), "ms")
	m.add("pool.busy_ratio", ratio(float64(t.busyNS), float64(t.capacityNS)), "ratio")

	m.add("eval.calls", float64(t.evalCalls)/it, "count")
	m.add("eval.items", float64(t.evalItems)/it, "count")
	m.add("eval.items_per_call", ratio(float64(t.evalItems), float64(t.evalCalls)), "count")
	m.add("eval.ns_per_item", ratio(float64(t.evalNS), float64(t.evalItems)), "ns")
	m.add("eval.self_ms", perIterMS(t.evalNS-t.backendNS), "ms")
	hit := 0.0
	if t.evalItems > 0 {
		hit = 1 - float64(t.backendItems)/float64(t.evalItems)
	}
	m.add("eval.cache_hit_ratio", hit, "ratio")
	m.add("eval.invalid_ratio", ratio(float64(t.evalInvalid), float64(t.evalItems)), "ratio")
	m.add("maestro.items", float64(t.backendItems)/it, "count")
	m.add("maestro.ms", perIterMS(t.backendNS), "ms")
	m.add("maestro.ns_per_item", ratio(float64(t.backendNS), float64(t.backendItems)), "ns")
}
