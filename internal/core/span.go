package core

import "spotlight/internal/obs"

// SpanCarrier is implemented by proposers whose internal trace events
// (DABO's dabo.fit/dabo.degraded) should be attributed to the caller's
// current span. The driver calls SetSpan before the proposer works
// under a span and SetSpan(nil) after; calls are goroutine-confined —
// each proposer is driven by exactly one goroutine at a time (the
// Strategy concurrency contract), so no synchronization is implied.
type SpanCarrier interface {
	SetSpan(*obs.Span)
}

// setSpan forwards sp to v when it carries spans.
func setSpan(v any, sp *obs.Span) {
	if sc, ok := v.(SpanCarrier); ok {
		sc.SetSpan(sp)
	}
}
