package obsv

// AutoscaleMetrics bundles the cost-aware autoscaler's decision
// counters. Same inert-when-nil contract as the other bundles.
type AutoscaleMetrics struct {
	Grows    *Counter
	Shrinks  *Counter
	Reclaims *Counter
	Holds    *Counter
}

// NewAutoscaleMetrics registers the autoscaler instrument set on reg.
// Pass nil reg for an inert bundle.
func NewAutoscaleMetrics(reg *Registry) *AutoscaleMetrics {
	if reg == nil {
		return &AutoscaleMetrics{}
	}
	return &AutoscaleMetrics{
		Grows:    reg.Counter("flowgo_autoscale_decisions_total", "Autoscale decisions by kind.", Labels("kind", "grow")),
		Shrinks:  reg.Counter("flowgo_autoscale_decisions_total", "Autoscale decisions by kind.", Labels("kind", "shrink")),
		Reclaims: reg.Counter("flowgo_autoscale_decisions_total", "Autoscale decisions by kind.", Labels("kind", "reclaim")),
		Holds:    reg.Counter("flowgo_autoscale_decisions_total", "Autoscale decisions by kind.", Labels("kind", "hold")),
	}
}
