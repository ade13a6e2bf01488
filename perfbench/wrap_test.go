package main

import (
	"context"
	"testing"

	"spotlight/internal/engine"
	"spotlight/internal/eval"
	"spotlight/internal/maestro"
)

// TestWrappersKeepSearchPath runs small searches twice: once with only
// a counter under eval.Chain, once under every benchmark wrapper. The
// calls reaching the backend, and so eval.items_per_call, must match:
// a wrapper that hid RoundSize or EvaluateBatch would send the search
// down its one-item-per-call path. The designs must match too.
func TestWrappersKeepSearchPath(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		batched  bool // the strategy's proposers batch their rounds
	}{
		{"random", true},
		{"ga", true},
		{"spotlight", false},
	} {
		spec := engine.JobSpec{Strategy: tc.strategy, Models: []string{"MobileNetV2"}, HWSamples: 3, SWSamples: 8, Seed: 5, Eval: "maestro", Workers: 2}.Normalized()

		bare := &evalRecorder{}
		res, err := engine.RunSearch(context.Background(), spec, engine.SearchOptions{Eval: eval.Chain(wrapEvaluator(maestro.New(), bare))})
		if classify(err) == outcomeFailed {
			t.Fatalf("%s unwrapped: %v", tc.strategy, err)
		}
		want := resultDigest(res, err)

		tp, err := newTracedPipeline(spec.Eval)
		if err != nil {
			t.Fatal(err)
		}
		res, ts, err := runTraced(context.Background(), spec, tp)
		if classify(err) == outcomeFailed {
			t.Fatalf("%s wrapped: %v", tc.strategy, err)
		}
		if got := resultDigest(res, err); got != want {
			t.Errorf("%s: wrapped digest %s, unwrapped %s", tc.strategy, got, want)
		}

		perCall := func(r *evalRecorder) float64 { return ratio(float64(r.items.Load()), float64(r.calls.Load())) }
		if b, w := perCall(bare), perCall(tp.backendRec); b != w {
			t.Errorf("%s: eval.items_per_call wrapped %v, unwrapped %v", tc.strategy, w, b)
		}
		if d := perCall(tp.pipeRec); d != perCall(tp.backendRec) {
			t.Errorf("%s: search-side items_per_call %v differs from backend-side %v on an uncached pipeline", tc.strategy, d, perCall(tp.backendRec))
		}
		if batched := perCall(bare) > 1; batched != tc.batched {
			t.Errorf("%s: items_per_call %v, batched path expected %v", tc.strategy, perCall(bare), tc.batched)
		}
		if len(ts.rec.sws) == 0 || len(ts.rec.hws) != 1 {
			t.Errorf("%s: recorder saw %d software and %d hardware proposers", tc.strategy, len(ts.rec.sws), len(ts.rec.hws))
		}
	}
}
