package eval

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// evaluateRound runs one untraced round through ev into fresh result
// slices.
func evaluateRound(ev core.Evaluator, a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	costs, errs := make([]maestro.Cost, len(ss)), make([]error, len(ss))
	core.EvaluateRound(ev, nil, a, ss, l, costs, errs)
	return costs, errs
}

// batchGroup is the triples of one (accel, layer) pair — the shape a
// round requires — in their original order.
type batchGroup struct {
	a  triple
	ss []sched.Schedule
}

func groupTriples(trs []triple) []batchGroup {
	var out []batchGroup
	for _, tr := range trs {
		matched := false
		for i := range out {
			if out[i].a.a == tr.a && out[i].a.l == tr.l {
				out[i].ss = append(out[i].ss, tr.s)
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, batchGroup{a: tr, ss: []sched.Schedule{tr.s}})
		}
	}
	return out
}

// assertPipelineBatchMatchesBare checks the flagship property at the
// pipeline level: every batched result must be bitwise identical (cost
// bits, error strings, ErrInvalid classification) to a fresh bare
// backend evaluated sequentially.
func assertPipelineBatchMatchesBare(t *testing.T, p core.BatchEvaluator, groups []batchGroup) {
	t.Helper()
	bare := maestro.New()
	for g, grp := range groups {
		costs, errs := p.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
		if len(costs) != len(grp.ss) || len(errs) != len(grp.ss) {
			t.Fatalf("group %d: %d costs / %d errs for %d schedules", g, len(costs), len(errs), len(grp.ss))
		}
		for i, s := range grp.ss {
			wantCost, wantErr := bare.Evaluate(grp.a.a, s, grp.a.l)
			if (errs[i] == nil) != (wantErr == nil) {
				t.Fatalf("group %d item %d: err=%v, want %v", g, i, errs[i], wantErr)
			}
			if wantErr != nil {
				if errs[i].Error() != wantErr.Error() ||
					errors.Is(errs[i], maestro.ErrInvalid) != errors.Is(wantErr, maestro.ErrInvalid) {
					t.Fatalf("group %d item %d: error mismatch: %q vs %q", g, i, errs[i], wantErr)
				}
				continue
			}
			if !costBitsEqual(costs[i], wantCost) {
				t.Fatalf("group %d item %d: cost not bit-identical:\n%+v\n%+v", g, i, costs[i], wantCost)
			}
		}
	}
}

// TestPipelineBatchMatchesBareBackend runs the full default middleware
// stack (maestro,cache + trace) through EvaluateBatch under 8
// racing workers — the satellite-1 property at the eval layer. The
// duplicated triples from randomTriples land as in-batch duplicate keys
// and cross-worker races on the same entries.
func TestPipelineBatchMatchesBareBackend(t *testing.T) {
	rec := &recordingTracer{}
	p := MustFromSpec("maestro,cache", SpecOptions{Tracer: rec})
	groups := groupTriples(randomTriples(77, 48))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			assertPipelineBatchMatchesBare(t, p, groups)
		}()
	}
	wg.Wait()

	var items int
	for _, g := range groups {
		items += len(g.ss)
	}
	snap := p.Cache().Snapshot()
	if got := snap.Hits + snap.Misses; got != int64(workers*items) {
		t.Fatalf("hits(%d)+misses(%d) != %d batched items", snap.Hits, snap.Misses, workers*items)
	}
	if snap.Hits == 0 {
		t.Fatal("no cache hits despite duplicate keys across 8 workers")
	}
	// The trace layer sits under the cache, so it counts backend work:
	// exactly the cache's misses.
	if n := p.Metrics().Counter(MetricItems).Value(); n != snap.Misses {
		t.Fatalf("trace layer counted %d items, cache missed %d", n, snap.Misses)
	}
}

// TestBatchTraceEvents: the trace layer emits one eval.done per item of
// a multi-item round plus one eval.batch carrying the round size, and
// every event passes the obs schema (what `tracestat -check` enforces).
// A round of one emits its eval.done alone.
func TestBatchTraceEvents(t *testing.T) {
	rec := &recordingTracer{}
	p := MustFromSpec("maestro", SpecOptions{Tracer: rec})
	grp := groupTriples(randomTriples(9, 6))[0]

	p.EvaluateBatch(grp.a.a, grp.ss, grp.a.l)
	var done, batch int
	for _, e := range rec.events {
		e.Seq, e.TMS = 1, 0 // sink stamps, absent from a bare recorder
		if err := e.Validate(); err != nil {
			t.Fatalf("batched trace event fails schema: %v", err)
		}
		switch e.Type {
		case obs.EvalDone:
			done++
		case obs.EvalBatch:
			batch++
			if e.N != len(grp.ss) {
				t.Fatalf("eval.batch N=%d, want %d", e.N, len(grp.ss))
			}
		}
	}
	if done != len(grp.ss) || batch != 1 {
		t.Fatalf("got %d eval.done and %d eval.batch events, want %d and 1", done, batch, len(grp.ss))
	}

	// A round of one carries its duration on its eval.done instead.
	rec.events = nil
	p.EvaluateBatch(grp.a.a, grp.ss[:1], grp.a.l)
	if len(rec.events) != 1 || rec.events[0].Type != obs.EvalDone {
		t.Fatalf("round of one emitted %+v, want a single eval.done", rec.events)
	}
}

// TestBatchFallbackForNonBatchBackend: a backend without EvaluateBatch
// (the scriptable fake) still serves rounds through the per-item
// fallback loop, preserving order and per-item outcomes.
func TestBatchFallbackForNonBatchBackend(t *testing.T) {
	var n int
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		n++
		if n%2 == 0 {
			return maestro.Cost{}, fmt.Errorf("point %d: %w", n, maestro.ErrInvalid)
		}
		return maestro.Cost{DelayCycles: float64(n)}, nil
	}}
	p := Chain(fake, WithTrace(nil))
	trs := randomTriples(13, 4)
	ss := make([]sched.Schedule, len(trs))
	for i, tr := range trs {
		ss[i] = tr.s
	}
	costs, errs := p.EvaluateBatch(trs[0].a, ss, trs[0].l)
	if fake.calls.Load() != int64(len(ss)) {
		t.Fatalf("fallback reached backend %d times, want %d", fake.calls.Load(), len(ss))
	}
	for i := range ss {
		odd := i%2 == 0 // n starts at 1
		if odd && (errs[i] != nil || costs[i].DelayCycles != float64(i+1)) {
			t.Fatalf("item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
		if !odd && !errors.Is(errs[i], maestro.ErrInvalid) {
			t.Fatalf("item %d: want ErrInvalid, got %v", i, errs[i])
		}
	}
	wantOK, wantInvalid := int64((len(ss)+1)/2), int64(len(ss)/2)
	if c := p.Metrics().Snapshot().Counters; c[MetricItems] != int64(len(ss)) || c[MetricOK] != wantOK || c[MetricInvalid] != wantInvalid {
		t.Fatalf("counters %v, want items=%d ok=%d invalid=%d", c, len(ss), wantOK, wantInvalid)
	}
}

// TestBatchCacheTransientNotMemoized: a transient (non-ErrInvalid)
// fault inside a round is returned but withdrawn — a later round
// re-evaluates instead of reusing it.
func TestBatchCacheTransientNotMemoized(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{}, errors.New("transient") }}
	c := WithCache()(fake).(*Cache)
	tr := randomTriples(21, 1)[0]
	ss := []sched.Schedule{tr.s}

	if _, errs := evaluateRound(c, tr.a, ss, tr.l); errs[0] == nil {
		t.Fatal("fault swallowed")
	}
	if _, errs := evaluateRound(c, tr.a, ss, tr.l); errs[0] == nil {
		t.Fatal("fault swallowed on retry")
	}
	if got := fake.calls.Load(); got != 2 {
		t.Fatalf("backend called %d times, want 2 (faults must not be memoized)", got)
	}
	if snap := c.Snapshot(); snap.Entries != 0 || snap.Hits != 0 {
		t.Fatalf("snapshot %+v, want no entries and no hits", snap)
	}
}

// TestBatchCacheDuplicateKeysSingleFlight: duplicates of one key inside
// a single batch produce exactly one inner evaluation; the duplicates
// resolve from the in-batch leader's entry after it publishes (no
// deadlock), and all copies agree.
func TestBatchCacheDuplicateKeysSingleFlight(t *testing.T) {
	fake := &fakeEval{fn: func() (maestro.Cost, error) { return maestro.Cost{DelayCycles: 5}, nil }}
	c := WithCache()(fake).(*Cache)
	tr := randomTriples(22, 1)[0]
	ss := []sched.Schedule{tr.s, tr.s, tr.s, tr.s}

	costs, errs := evaluateRound(c, tr.a, ss, tr.l)
	for i := range ss {
		if errs[i] != nil || costs[i].DelayCycles != 5 {
			t.Fatalf("item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
	}
	if got := fake.calls.Load(); got != 1 {
		t.Fatalf("backend called %d times for one key, want 1", got)
	}
	snap := c.Snapshot()
	if snap.Misses != 1 || snap.Hits != int64(len(ss)-1) || snap.Entries != 1 {
		t.Fatalf("snapshot %+v, want 1 miss, %d hits, 1 entry", snap, len(ss)-1)
	}
}

// TestBatchCachePanicWithdrawsLeaders: a backend panic mid-batch must
// withdraw every unpublished leader entry before propagating, so later
// callers re-evaluate instead of deadlocking on dead entries.
func TestBatchCachePanicWithdrawsLeaders(t *testing.T) {
	first := true
	fake := &fakeEval{fn: func() (maestro.Cost, error) {
		if first {
			first = false
			panic("backend crash")
		}
		return maestro.Cost{DelayCycles: 2}, nil
	}}
	c := WithCache()(fake).(*Cache)
	trs := randomTriples(23, 3)
	ss := make([]sched.Schedule, len(trs))
	for i, tr := range trs {
		ss[i] = tr.s
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through the batch cache")
			}
		}()
		evaluateRound(c, trs[0].a, ss, trs[0].l)
	}()

	costs, errs := evaluateRound(c, trs[0].a, ss, trs[0].l)
	for i := range ss {
		if errs[i] != nil || costs[i].DelayCycles != 2 {
			t.Fatalf("post-panic item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
	}
}

// TestBatchEmpty: zero-length batches are legal no-ops at every layer.
func TestBatchEmpty(t *testing.T) {
	p := MustFromSpec("maestro,cache", SpecOptions{})
	tr := randomTriples(24, 1)[0]
	costs, errs := p.EvaluateBatch(tr.a, nil, tr.l)
	if len(costs) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(costs), len(errs))
	}
	if n := p.Metrics().Counter(MetricItems).Value(); n != 0 {
		t.Fatalf("empty batch counted %d items", n)
	}
}
