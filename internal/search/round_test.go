package search

import (
	"math/rand"
	"reflect"
	"testing"

	"spotlight/internal/core"
	"spotlight/internal/hw"
	"spotlight/internal/workload"
)

// stripElapsed zeroes the wall-clock column of a history so runs can be
// compared bit-for-bit; Elapsed is the one field the determinism
// contract excludes.
func stripElapsed(h []core.HistoryPoint) []core.HistoryPoint {
	out := make([]core.HistoryPoint, len(h))
	for i, p := range h {
		p.Elapsed = 0
		out[i] = p
	}
	return out
}

// oneAtATime wraps a strategy so its software proposers hide any
// RoundSize: the driver then runs them in rounds of 1, the sequential
// sample-evaluate-observe loop.
type oneAtATime struct{ core.Strategy }

func (s oneAtATime) NewSW(cfg core.RunConfig, rng *rand.Rand, a hw.Accel, l workload.Layer) core.SWProposer {
	return struct{ core.SWProposer }{s.Strategy.NewSW(cfg, rng, a, l)}
}

// TestBatchedRunsBitIdentical is the round invariant at the driver
// level: for every strategy, History, Best and Top are bit-identical
// whether the proposers size their own rounds or run in rounds of 1,
// at any worker count.
func TestBatchedRunsBitIdentical(t *testing.T) {
	strategies := []func() core.Strategy{
		func() core.Strategy { return NewRandom() },
		func() core.Strategy { return NewGenetic() },
		func() core.Strategy { return NewConfuciuX() },
		func() core.Strategy { return NewHASCO() },
	}
	for _, mk := range strategies {
		name := mk().Name()
		t.Run(name, func(t *testing.T) {
			type variant struct {
				sequential bool
				workers    int
			}
			variants := []variant{
				{sequential: true, workers: 1}, // reference: rounds of 1, serial
				{sequential: false, workers: 1},
				{sequential: true, workers: 8},
				{sequential: false, workers: 8},
			}
			var ref core.Result
			for vi, v := range variants {
				cfg := tinyConfig(42)
				cfg.Workers = v.workers
				strat := mk()
				if v.sequential {
					strat = oneAtATime{strat}
				}
				res, err := core.Run(cfg, strat)
				if err != nil {
					t.Fatalf("run (sequential=%v workers=%d) failed: %v", v.sequential, v.workers, err)
				}
				if vi == 0 {
					ref = res
					continue
				}
				if !reflect.DeepEqual(stripElapsed(ref.History), stripElapsed(res.History)) {
					t.Errorf("History diverged (sequential=%v workers=%d)", v.sequential, v.workers)
				}
				if !reflect.DeepEqual(ref.Best, res.Best) {
					t.Errorf("Best diverged (sequential=%v workers=%d)", v.sequential, v.workers)
				}
				if !reflect.DeepEqual(ref.Top, res.Top) {
					t.Errorf("Top diverged (sequential=%v workers=%d)", v.sequential, v.workers)
				}
			}
		})
	}
}

// TestRoundSizes pins each proposer's advertised round size to its
// feedback structure, the contract the round driver relies on. HASCO's
// Q-agent reads what Observe updates, so it runs in the default rounds
// of 1 and declares no round size.
func TestRoundSizes(t *testing.T) {
	cfg := tinyConfig(1)
	rng := rand.New(rand.NewSource(3))
	a := cfg.Space.Random(rng)
	l := tinyModel().Layers[0]
	newSW := func(s core.Strategy) core.RoundProposer {
		sw, ok := s.NewSW(cfg, rng, a, l).(core.RoundProposer)
		if !ok {
			t.Fatalf("%s software proposer does not implement RoundProposer", s.Name())
		}
		return sw
	}
	if got := newSW(NewRandom()).RoundSize(); got != feedbackFreeRound {
		t.Errorf("random RoundSize = %d, want feedback-free", got)
	}
	if got := newSW(NewConfuciuX()).RoundSize(); got != feedbackFreeRound {
		t.Errorf("confuciux RoundSize = %d, want feedback-free", got)
	}
	if _, ok := NewHASCO().NewSW(cfg, rng, a, l).(core.RoundProposer); ok {
		t.Error("hasco software proposer declares a round size; its suggestions depend on feedback")
	}
	// The GA batches the population seed as one round, then collapses to
	// sequential breeding.
	ga := newSW(NewGenetic())
	if got := ga.RoundSize(); got <= 1 {
		t.Errorf("seeding GA RoundSize = %d, want > 1", got)
	}
}
