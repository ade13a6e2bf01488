package core

import (
	"fmt"
	"math"

	"spotlight/internal/hw"
	"spotlight/internal/maestro"
	"spotlight/internal/workload"
)

// runLayerSearchRef is the reference the round driver is tested
// against: the paper's sequential per-sample loop — suggest one
// schedule, evaluate it, observe it — with the driver's non-finite-cost
// classification.
func runLayerSearchRef(cfg RunConfig, sw SWProposer, accel hw.Accel,
	layer workload.Layer, budget int) LayerResult {

	best := LayerResult{Layer: layer}
	bestObj := math.Inf(1)
	for i := 0; i < budget; i++ {
		s := sw.Suggest()
		cost, err := cfg.Eval.Evaluate(accel, s, layer)
		obj := math.Inf(1)
		if err == nil {
			obj = cfg.Objective.LayerCost(cost)
		}
		if err == nil && (!cost.Finite() || math.IsNaN(obj) || math.IsInf(obj, 0)) {
			err = fmt.Errorf("%w: evaluator returned non-finite cost for layer %s",
				maestro.ErrInvalid, layer.Name)
		}
		if err != nil {
			sw.Observe(s, math.Inf(1), err)
			continue
		}
		sw.Observe(s, obj, nil)
		if obj < bestObj {
			bestObj = obj
			best.Schedule = s
			best.Cost = cost
			best.Valid = true
		}
	}
	return best
}
