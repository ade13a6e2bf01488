package search

// This file declares which software proposers support round batching
// (core.RoundProposer): a proposer advertises how many upcoming Suggest
// calls are independent of intervening Observe feedback, and the nested
// driver evaluates that many candidates in one core.EvaluateBatch call.
// The contract is strict — a round must draw exactly the same RNG
// stream whether or not Observe calls are interleaved — which is what
// keeps batched and unbatched Histories bit-identical.

// feedbackFreeRound is the round size advertised by proposers whose
// suggestions never depend on feedback; the driver caps each round at
// the remaining sample budget, so the value only needs to exceed any
// plausible per-layer budget.
const feedbackFreeRound = 1 << 20

// RoundSize implements core.RoundProposer: random sampling consumes
// only its own RNG, so the whole budget is one feedback-free round.
func (*randomSW) RoundSize() int { return feedbackFreeRound }

// RoundSize implements core.RoundProposer: the dataflow rotation
// advances on Suggest alone and Observe is a no-op, so ConfuciuX's
// template sweep is one feedback-free round.
func (*fixedDataflowSW) RoundSize() int { return feedbackFreeRound }

// RoundSize implements core.RoundProposer for the GA: while the
// population is seeding, every suggestion is an independent random
// draw, so the remaining seed samples batch as one round; once the
// population is full, each child is bred from the fitnesses of all
// prior observations, so rounds collapse to single suggestions.
func (w *gaSW) RoundSize() int {
	if !w.pop.full() {
		return w.pop.capacity - len(w.pop.members)
	}
	return 1
}

// RoundSize implements core.RoundProposer for HASCO's Q-agent: Suggest
// reads the visit counts and Q-values that Observe updates, so every
// suggestion depends on the previous observation and rounds are always
// single evaluations (they still flow through the batch path, keeping
// the evaluation stack uniform across strategies).
func (*hascoSW) RoundSize() int { return 1 }
