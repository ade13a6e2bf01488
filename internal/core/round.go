package core

import (
	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/obs"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// BatchEvaluator is implemented by backends that can cost many
// candidate schedules against one (accelerator, layer) pair in one call
// (maestro amortizes its per-layer setup this way). Results are
// positional, len(costs) == len(errs) == len(ss), and every (costs[i],
// errs[i]) pair is bit-for-bit what Evaluate(a, ss[i], l) returns —
// same cost fields, same error strings, same errors.Is classification.
// Implementations must be safe for concurrent calls whenever their
// Evaluate is.
type BatchEvaluator interface {
	Evaluator
	EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]maestro.Cost, []error)
}

// RoundEvaluator is the evaluation round every eval middleware
// implements (see DESIGN.md §12): cost ss against one (accelerator,
// layer) pair, writing costs[i]/errs[i] for ss[i] into slices the
// caller owns, with the same per-item results as Evaluate. sp is the
// span that caused the round (nil when untraced); the trace events the
// round emits are parented under it and follow its sink, which is what
// gives each job its own eval telemetry off one shared pipeline.
type RoundEvaluator interface {
	Evaluator
	EvaluateRound(sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer, costs []maestro.Cost, errs []error)
}

// EvaluateRound evaluates one round through ev and is the only place
// the fallbacks live: ev's own round method when it has one, else one
// EvaluateBatch call for a multi-item round, else a loop over Evaluate.
// Sending single items to Evaluate keeps a round of 1 allocation-free on
// backends whose Evaluate is (EvaluateBatch allocates its result
// slices). costs and errs must be at least len(ss) long.
func EvaluateRound(ev Evaluator, sp *obs.Span, a hw.Accel, ss []sched.Schedule, l workload.Layer,
	costs []maestro.Cost, errs []error) {

	if r, ok := ev.(RoundEvaluator); ok {
		r.EvaluateRound(sp, a, ss, l, costs, errs)
		return
	}
	if b, ok := ev.(BatchEvaluator); ok && len(ss) > 1 {
		cs, es := b.EvaluateBatch(a, ss, l)
		copy(costs, cs)
		copy(errs, es)
		return
	}
	for i := range ss {
		costs[i], errs[i] = ev.Evaluate(a, ss[i], l)
	}
}

// RoundProposer is implemented by software proposers whose next
// RoundSize() Suggest calls are independent of any intervening Observe
// calls, so the driver may collect that many candidates up front and
// evaluate them in one round, delivering the Observe feedback
// afterwards in suggestion order. Every other proposer runs in rounds
// of 1.
//
// RoundSize is consulted before each round and may change as the
// proposer's state evolves (a genetic searcher batches its whole
// initial population, then drops to 1 once selection pressure makes
// each suggestion depend on the previous observation). The driver caps
// the round at the remaining sample budget; proposers whose suggestions
// never depend on feedback simply return a number at least as large as
// any plausible budget. A RoundSize below 1 is treated as 1.
type RoundProposer interface {
	SWProposer
	RoundSize() int
}
