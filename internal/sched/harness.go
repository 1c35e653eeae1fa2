package sched

import "repro/internal/resources"

// The methods below are kept for the frozen benchmark harness (bench/)
// alone; placement asks Choose. ROADMAP item 14 deletes this file.

// PickIndexed is Choose over the signature's placement index, the pick
// bench/layers.go:427 prices as sched.minload_pick_ns. ROADMAP item 14
// deletes this.
func (p MinLoad) PickIndexed(t *TaskView, idx resources.SigIndex, ctx *Context) *resources.Node {
	return p.Choose(t, idx.Candidates(t.Constraints, nil), ctx)
}

// Pick is Choose over a node list, the pick bench/layers.go:474 prices as
// sched.locality_pick_ns. ROADMAP item 14 deletes this.
func (p Locality) Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	return p.Choose(t, resources.ListCandidates(fitting), ctx)
}
