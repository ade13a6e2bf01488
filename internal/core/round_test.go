package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// scriptEval is a deterministic evaluator without a batch method: call i
// returns delay i+1, and every 3rd call is an ErrInvalid verdict.
type scriptEval struct{ calls int }

func (e *scriptEval) Name() string { return "script" }

func (e *scriptEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	e.calls++
	if e.calls%3 == 0 {
		return maestro.Cost{}, fmt.Errorf("call %d: %w", e.calls, maestro.ErrInvalid)
	}
	d := float64(e.calls)
	return maestro.Cost{DelayCycles: d, EnergyNJ: d, AreaMM2: 1, PowerMW: 1, Utilization: 1}, nil
}

// batchScript is scriptEval with a batch method that counts its calls.
type batchScript struct {
	scriptEval
	batches int
}

func (e *batchScript) EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error) {
	e.batches++
	costs := make([]maestro.Cost, len(ss))
	errs := make([]error, len(ss))
	for i := range ss {
		costs[i], errs[i] = e.Evaluate(a, ss[i], l)
	}
	return costs, errs
}

// TestEvaluateBatchFallback: EvaluateRound over an evaluator without a
// round method degrades to a per-item loop in order, and over a batch
// evaluator sends multi-item rounds to EvaluateBatch but single items
// to Evaluate.
func TestEvaluateBatchFallback(t *testing.T) {
	ev := &scriptEval{}
	ss := make([]sched.Schedule, 7)
	costs, errs := make([]maestro.Cost, len(ss)), make([]error, len(ss))
	EvaluateRound(ev, nil, hw.Accel{}, ss, workload.Layer{}, costs, errs)
	if ev.calls != len(ss) {
		t.Fatalf("fallback made %d calls, want %d", ev.calls, len(ss))
	}
	for i := range ss {
		if (i+1)%3 == 0 {
			if !errors.Is(errs[i], maestro.ErrInvalid) {
				t.Fatalf("item %d: want ErrInvalid, got %v", i, errs[i])
			}
			continue
		}
		if errs[i] != nil || costs[i].DelayCycles != float64(i+1) {
			t.Fatalf("item %d: cost=%+v err=%v", i, costs[i], errs[i])
		}
	}

	b := &batchScript{}
	EvaluateRound(b, nil, hw.Accel{}, ss, workload.Layer{}, costs, errs)
	EvaluateRound(b, nil, hw.Accel{}, ss[:1], workload.Layer{}, costs, errs)
	if b.batches != 1 || b.calls != len(ss)+1 {
		t.Fatalf("batch evaluator saw %d batches and %d evaluations, want 1 and %d", b.batches, b.calls, len(ss)+1)
	}
}

// roundRecorder is a RoundProposer that records the interleaving of
// Suggest and Observe calls, so tests can check the driver drains whole
// rounds before feeding back.
type roundRecorder struct {
	round    int // value RoundSize reports
	suggests int
	log      []string // "s" per Suggest, "o" per Observe
}

func (r *roundRecorder) RoundSize() int { return r.round }

func (r *roundRecorder) Suggest() sched.Schedule {
	r.suggests++
	r.log = append(r.log, "s")
	var s sched.Schedule
	s.T2[0] = r.suggests // distinguishable, validity irrelevant to the mock eval
	return s
}

func (r *roundRecorder) Observe(sched.Schedule, float64, error) {
	r.log = append(r.log, "o")
}

// TestBatchedRoundClamping: an effectively unbounded RoundSize is capped
// at the remaining budget — exactly budget Suggests, all ahead of their
// round's Observes — and the best result matches the sequential replay.
func TestBatchedRoundClamping(t *testing.T) {
	const budget = 10
	cfg := RunConfig{Eval: &scriptEval{}, Objective: MinDelay}
	sw := &roundRecorder{round: 1 << 20}
	res := runLayerSearch(context.Background(), cfg, sw, hw.Accel{}, workload.Layer{Name: "x"}, budget, nil)
	if sw.suggests != budget {
		t.Fatalf("driver drew %d suggestions, want %d", sw.suggests, budget)
	}
	for i, c := range sw.log[:budget] {
		if c != "s" {
			t.Fatalf("call %d is %q; one unbounded round must suggest everything first", i, c)
		}
	}
	if len(sw.log) != 2*budget {
		t.Fatalf("%d calls logged, want %d (every suggestion observed)", len(sw.log), 2*budget)
	}
	if !res.Valid || res.Cost.DelayCycles != 1 {
		t.Fatalf("best = %+v, want the first (cheapest) scripted cost", res)
	}
}

// TestBatchedMatchesSequentialDriver: the round driver at round size 3
// and the sequential reference loop produce identical LayerResults and
// the same number of proposer calls against the scripted evaluator.
func TestBatchedMatchesSequentialDriver(t *testing.T) {
	const budget = 8
	cfg := RunConfig{Eval: &scriptEval{}, Objective: MinDelay}
	sw := &roundRecorder{round: 3}
	batched := runLayerSearch(context.Background(), cfg, sw, hw.Accel{}, workload.Layer{Name: "x"}, budget, nil)
	blog := sw.log

	cfg.Eval = &scriptEval{}
	sw = &roundRecorder{round: 3}
	sequential := runLayerSearchRef(cfg, sw, hw.Accel{}, workload.Layer{Name: "x"}, budget)
	if batched != sequential {
		t.Fatalf("results diverge:\nbatched:    %+v\nsequential: %+v", batched, sequential)
	}
	if len(blog) != len(sw.log) || len(blog) != 2*budget {
		t.Fatalf("call logs have %d and %d entries, want %d", len(blog), len(sw.log), 2*budget)
	}
}

// TestRoundOfOneAllocatesNothing: a layer search whose proposer runs in
// rounds of 1 allocates nothing per evaluation, once the pooled round
// buffers are warm.
func TestRoundOfOneAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	cfg := RunConfig{Eval: constEval{}, Objective: MinDelay}
	sw := &constSW{}
	search := func() { runLayerSearch(context.Background(), cfg, sw, hw.Accel{}, workload.Layer{Name: "x"}, 64, nil) }
	search()
	if avg := testing.AllocsPerRun(20, search); avg != 0 {
		t.Fatalf("64 rounds of 1 allocated %.1f objects, want 0", avg)
	}
}

// constEval is an allocation-free evaluator returning one fixed cost.
type constEval struct{}

func (constEval) Name() string { return "const" }

func (constEval) Evaluate(hw.Accel, sched.Schedule, workload.Layer) (maestro.Cost, error) {
	return maestro.Cost{DelayCycles: 1, EnergyNJ: 1, AreaMM2: 1, PowerMW: 1, Utilization: 1}, nil
}

// constSW is an allocation-free proposer without a round size.
type constSW struct{}

func (*constSW) Suggest() sched.Schedule                { return sched.Schedule{} }
func (*constSW) Observe(sched.Schedule, float64, error) {}
