package maestro

import (
	"fmt"

	"spotlight/internal/hw"
	"spotlight/internal/sched"
	"spotlight/internal/workload"
)

// EvaluateBatch evaluates many candidate schedules against one
// (accelerator, layer) pair in a single call. Results are positional:
// costs[i] and errs[i] correspond to ss[i], and each pair is bit-for-bit
// identical to what Evaluate(a, ss[i], l) returns — same cost fields,
// same error strings, same errors.Is(err, ErrInvalid) classification.
//
// The win over calling Evaluate in a loop comes from amortization:
// accelerator and layer validation run once per batch, the per-layer
// context (dimension extents, capacity bounds, MAC count, the sqrt-based
// energy coefficients) is built once, schedule validation is fused with
// trip-count computation, and capacity-invalid schedules get lazy
// errors whose messages are only formatted if something actually reads
// them. For valid and capacity-invalid schedules the inner loop
// allocates nothing; the whole call allocates the two result slices plus
// at most one error slab.
func (m *Model) EvaluateBatch(a hw.Accel, ss []sched.Schedule, l workload.Layer) ([]Cost, []error) {
	costs := make([]Cost, len(ss))
	errs := make([]error, len(ss))
	if len(ss) == 0 {
		return costs, errs
	}
	if err := a.Validate(); err != nil {
		shared := fmt.Errorf("%w: %v", ErrInvalid, err)
		for i := range errs {
			errs[i] = shared
		}
		return costs, errs
	}
	if err := l.Validate(); err != nil {
		shared := fmt.Errorf("%w: %v", ErrInvalid, err)
		for i := range errs {
			errs[i] = shared
		}
		return costs, errs
	}

	ctx := newLayerCtx(a, l)
	// Lazy-error slab: preallocated to len(ss) on first use so appends
	// never reallocate while &slab[i] pointers are held in errs.
	var slab []batchInvalid
	push := func(e batchInvalid) *batchInvalid {
		if slab == nil {
			slab = make([]batchInvalid, 0, len(ss))
		}
		slab = append(slab, e)
		return &slab[len(slab)-1]
	}

	for i := range ss {
		s := &ss[i]
		n2, n1, ok := s.TripCounts(ctx.sizes)
		if !ok {
			// Structural failures are rare: their message is formatted
			// now, so slab elements never carry a schedule or a layer.
			errs[i] = fmt.Errorf("%w: %v", ErrInvalid, s.Validate(l))
			continue
		}
		if rfNeed := sched.TileFootprint(l, s.T1); rfNeed > ctx.rfCap {
			errs[i] = push(batchInvalid{op: invalidRF, need: rfNeed, cap_: ctx.rfCap})
			continue
		}
		if l2Need := sched.TileFootprint(l, s.T2); l2Need > ctx.l2Cap {
			errs[i] = push(batchInvalid{op: invalidL2, need: l2Need, cap_: ctx.l2Cap})
			continue
		}
		costs[i] = ctx.costOf(s, n2, n1)
	}
	return costs, errs
}

// batchInvalidOp names which capacity check a batched schedule failed.
type batchInvalidOp uint8

const (
	invalidRF batchInvalidOp = iota // T1 footprint exceeds the PE register file
	invalidL2                       // T2 footprint exceeds the scratchpad
)

// batchInvalid is the lazy counterpart of the fmt.Errorf-wrapped
// capacity errors Evaluate returns: formatting is deferred to Error(),
// so batches full of invalid candidates (the common case during random
// search, per §IV of the paper) never pay for message construction the
// searchers immediately discard. Error() reproduces the sequential
// message byte-for-byte; Unwrap preserves errors.Is(err, ErrInvalid).
//
// An element is small and pointer-free: a memoized verdict keeps its
// whole slab alive.
type batchInvalid struct {
	op   batchInvalidOp
	need int64 // bytes the tile needs ...
	cap_ int64 // ... vs bytes available
}

// Unwrap matches fmt.Errorf("%w: ...", ErrInvalid, ...): only ErrInvalid
// is in the wrap chain, never the inner validation error.
func (e *batchInvalid) Unwrap() error { return ErrInvalid }

func (e *batchInvalid) Error() string {
	if e.op == invalidRF {
		return fmt.Sprintf("%v: RF tile needs %d B, PE register file holds %d B",
			ErrInvalid, e.need, e.cap_)
	}
	return fmt.Sprintf("%v: L2 working set needs %d B, scratchpad holds %d B",
		ErrInvalid, e.need, e.cap_)
}
