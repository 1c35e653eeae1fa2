// Package sched provides the Task Scheduler of the runtime (paper Fig. 6)
// as a family of pluggable policies. The paper calls for engines that
// "schedule in parallel the workflow to be executed, … improve data
// locality, … exploit heterogeneous computing platforms" (Sec. II-A) and
// for "intelligent decisions … learning from previous executions"
// (Sec. VI-C); each of those behaviours is one policy here, so experiments
// can compare them directly.
package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/deps"
	"repro/internal/mlpredict"
	"repro/internal/resources"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

// TaskView is the scheduler-facing summary of a ready task.
type TaskView struct {
	// ID is the task's graph ID.
	ID int64
	// Class groups tasks that run the same code (the predictor key).
	Class string
	// Constraints are the task's resource requirements.
	Constraints resources.Constraints
	// EstDuration is the declared base duration at SpeedFactor 1 (0 if
	// unknown).
	EstDuration time.Duration
	// InputKeys are the data versions the task reads.
	InputKeys []deps.Version
	// InputBytes is the total input size (covariate for the predictor).
	InputBytes int64
	// Priority orders ready tasks; higher runs first.
	Priority int
}

// Context carries the shared facilities policies may consult. Any field
// may be nil; policies must degrade gracefully.
type Context struct {
	// Registry locates data replicas (locality policies).
	Registry *transfer.Registry
	// Net models transfer costs (EFT-style policies).
	Net *simnet.Network
	// Predictor estimates durations from history (ML policy).
	Predictor *mlpredict.Predictor
}

// Policy selects a node for a task among the nodes that currently fit its
// constraints. Returning nil leaves the task queued. The fitting slice is
// in pool insertion order and non-empty.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Pick chooses a node, or nil to wait.
	Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node
}

// IndexedPolicy is the capability split for index-backed placement: a
// policy that picks through the pool's per-signature placement index
// (resources.SigIndex) instead of scanning a materialized candidate
// slice, turning an O(pool) decision into a heap walk or a sample.
//
// Contract: PickIndexed returns nil ONLY when no node currently fits the
// task — indexed policies never decline a placeable task. The engine
// treats nil as a signature-wide capacity failure and parks the whole
// bucket; a policy that declines placements as a decision (WaitFast)
// must stay on the legacy Pick path, where nil means "wait". Policies
// must pick deterministically given the index state (and their own
// seeded randomness), so index-backed and scan-backed runs agree.
type IndexedPolicy interface {
	Policy
	// PickIndexed chooses among the signature's currently fitting nodes
	// via the index, or returns nil when none fits.
	PickIndexed(t *TaskView, idx resources.SigIndex, ctx *Context) *resources.Node
}

// Prioritizer is an optional Policy extension: the shared scheduling
// engine (internal/engine) orders ready tasks by descending Priority
// before placing them, which is how an informed policy implements
// longest-processing-time-first and similar list heuristics. Priority is
// evaluated once per ready-queue push; policies that do not implement
// the interface (or that return equal priorities) fall back to
// submission order.
type Prioritizer interface {
	// Priority ranks a ready task; higher places first.
	Priority(t *TaskView, ctx *Context) float64
}

// estimate returns the best duration estimate for t on a reference core.
func estimate(t *TaskView, ctx *Context) time.Duration {
	if ctx != nil && ctx.Predictor != nil && ctx.Predictor.Trained(t.Class, 1) {
		return ctx.Predictor.Predict(t.Class, t.InputBytes)
	}
	if t.EstDuration > 0 {
		return t.EstDuration
	}
	return time.Second
}

// runTime scales the estimate by the node's speed factor.
func runTime(est time.Duration, n *resources.Node) time.Duration {
	sf := n.Desc().SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	return time.Duration(float64(est) / sf)
}

// unreachablePenalty is the staging cost charged per input whose every
// replica sits behind a cut link (network partition): large enough that
// any reachable alternative wins, small enough that summing it over many
// inputs cannot overflow a Duration.
const unreachablePenalty = 24 * time.Hour

// inputRow is one input's catalog row (transfer.Registry.Row).
type inputRow struct {
	size    int64
	holders []string
}

// inputRows reads the catalog rows of t's inputs — once per Pick; every
// candidate is then costed from them. Nil when there is nothing to cost
// (or nothing to cost it with: non-nil rows imply ctx.Net).
func inputRows(t *TaskView, ctx *Context) []inputRow {
	if ctx == nil || ctx.Registry == nil || ctx.Net == nil || len(t.InputKeys) == 0 {
		return nil
	}
	rows := make([]inputRow, len(t.InputKeys))
	for i, k := range t.InputKeys {
		rows[i].size, rows[i].holders = ctx.Registry.Row(k)
	}
	return rows
}

// transferTime estimates the time to stage the inputs n does not hold
// onto it. Inputs with replicas that are all unreachable from n
// (partitioned away) cost unreachablePenalty each, steering cost-aware
// policies to nodes that can actually be fed; inputs with no replica at
// all cost nothing (no candidate can fetch them).
func transferTime(rows []inputRow, n *resources.Node, ctx *Context) time.Duration {
	var total time.Duration
	for _, r := range rows {
		if _, local := slices.BinarySearch(r.holders, n.Name()); local || len(r.holders) == 0 {
			continue
		}
		if _, tt, ok := ctx.Net.BestSource(n.Name(), r.holders, r.size); ok {
			total += tt
		} else {
			total += unreachablePenalty
		}
	}
	return total
}

// FIFO assigns each task to the first node that fits, in pool order. It is
// the baseline the paper's smarter engines are compared against.
type FIFO struct{}

var _ Policy = FIFO{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Pick implements Policy.
func (FIFO) Pick(_ *TaskView, fitting []*resources.Node, _ *Context) *resources.Node {
	return fitting[0]
}

var _ IndexedPolicy = FIFO{}

// PickIndexed implements IndexedPolicy: the first fitting node in pool
// insertion order, without materializing the candidate slice.
func (FIFO) PickIndexed(t *TaskView, idx resources.SigIndex, _ *Context) *resources.Node {
	return idx.FirstFitting(t.Constraints)
}

// MinLoad balances by busy-core fraction, breaking ties by node name so
// the pick never depends on pool insertion order — the property that
// lets the index-backed heap pick and the scan-backed slice pick agree
// byte for byte.
type MinLoad struct{}

var _ Policy = MinLoad{}

// Name implements Policy.
func (MinLoad) Name() string { return "min-load" }

// Pick implements Policy.
func (MinLoad) Pick(_ *TaskView, fitting []*resources.Node, _ *Context) *resources.Node {
	best := fitting[0]
	bestFrac := loadFrac(best)
	for _, n := range fitting[1:] {
		if f := loadFrac(n); f < bestFrac || (f == bestFrac && n.Name() < best.Name()) {
			best, bestFrac = n, f
		}
	}
	return best
}

var _ IndexedPolicy = MinLoad{}

// PickIndexed implements IndexedPolicy: the signature's load heap yields
// the (frac, name)-minimum fitting node in O(log n) instead of O(pool).
func (MinLoad) PickIndexed(t *TaskView, idx resources.SigIndex, _ *Context) *resources.Node {
	return idx.MinLoadFitting(t.Constraints)
}

func loadFrac(n *resources.Node) float64 {
	c := n.Desc().Cores
	if c == 0 {
		return 1
	}
	return float64(n.BusyCores()) / float64(c)
}

// P2C is power-of-two-choices placement: sample two candidates, run the
// less loaded one (ties by node name). The sampling is seeded and
// deterministic given the placement sequence, so two backends driving
// the same workload with the same seed place identically. With the
// index it is an O(1) pick regardless of pool size; without it (legacy
// Pick, used for multi-node groups and hinted re-picks) it samples the
// fitting slice instead. The classic result applies: two random choices
// keep the maximum load within O(log log n) of perfect balancing at a
// fraction of MinLoad's bookkeeping.
type P2C struct {
	// Seed seeds the sampler (0 ⇒ 1).
	Seed int64
	rng  *rand.Rand
}

// NewP2C returns a power-of-two-choices policy with its own seeded
// sampler. Policies are not safe for concurrent use by multiple engines;
// give each engine its own instance.
func NewP2C(seed int64) *P2C { return &P2C{Seed: seed} }

var _ Policy = (*P2C)(nil)
var _ IndexedPolicy = (*P2C)(nil)

// Name implements Policy.
func (*P2C) Name() string { return "p2c" }

func (p *P2C) sampler() *rand.Rand {
	if p.rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 1
		}
		p.rng = rand.New(rand.NewSource(seed))
	}
	return p.rng
}

// Pick implements Policy over a materialized fitting slice.
func (p *P2C) Pick(_ *TaskView, fitting []*resources.Node, _ *Context) *resources.Node {
	if len(fitting) == 1 {
		return fitting[0]
	}
	rng := p.sampler()
	a := fitting[rng.Intn(len(fitting))]
	b := fitting[rng.Intn(len(fitting))]
	if a == b {
		return a
	}
	fa, fb := loadFrac(a), loadFrac(b)
	if fa < fb || (fa == fb && a.Name() < b.Name()) {
		return a
	}
	return b
}

// PickIndexed implements IndexedPolicy: two samples from the signature's
// undrained member set, exact-minimum fallback when neither fits.
func (p *P2C) PickIndexed(t *TaskView, idx resources.SigIndex, _ *Context) *resources.Node {
	return idx.PowerOfTwoPick(t.Constraints, p.sampler())
}

// Locality places each task where most of its input bytes already reside,
// the behaviour enabled by the storage interface's getLocations
// (paper Sec. VI-A-1, experiment E4).
type Locality struct{}

var _ Policy = Locality{}

// Name implements Policy.
func (Locality) Name() string { return "locality" }

// Pick implements Policy — the scan reference: every candidate is asked
// how many of the task's input bytes it holds. Under an active network
// partition the local-bytes tie-break becomes availability-aware: among
// equally local candidates a node that can actually be fed (no input
// marooned behind a cut link) beats one that cannot, so locality placement
// steers around partitions instead of landing tasks where their data is
// unreachable.
func (Locality) Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	if ctx == nil || ctx.Registry == nil {
		return fitting[0]
	}
	var rows []inputRow // read only under a partition
	if ctx.Net != nil && ctx.Net.HasCuts() {
		rows = inputRows(t, ctx)
	}
	feedable := func(n *resources.Node) bool {
		return transferTime(rows, n, ctx) < unreachablePenalty
	}
	best := fitting[0]
	bestLocal := ctx.Registry.LocalBytes(best.Name(), t.InputKeys)
	bestFed := feedable(best)
	for _, n := range fitting[1:] {
		local := ctx.Registry.LocalBytes(n.Name(), t.InputKeys)
		fed := feedable(n)
		switch {
		case local > bestLocal:
		case local == bestLocal && fed && !bestFed:
		case local == bestLocal && fed == bestFed && n.FreeCores() > best.FreeCores():
		default:
			continue
		}
		best, bestLocal, bestFed = n, local, fed
	}
	return best
}

var _ IndexedPolicy = Locality{}

// PickIndexed implements IndexedPolicy with the question turned around:
// instead of asking every candidate what it holds, each input is asked
// once who holds it and how big it is, and the bytes are summed per
// holder (one to three names). Only a holder can score above zero, so
// when one fits the winner is the best fitting holder — most local
// bytes, then most free cores, then first in pool order — read through
// the index by name, without visiting the rest of the set. Only when no
// holder fits is the signature's fitting set walked; every candidate
// then scores zero, and Pick's winner is the one with the most cached
// free cores, first in pool order. Under a partition the fitting set is
// materialized for Pick, which keeps the feedable tie-break in one place.
func (Locality) PickIndexed(t *TaskView, idx resources.SigIndex, ctx *Context) *resources.Node {
	if ctx == nil || ctx.Registry == nil {
		return idx.FirstFitting(t.Constraints)
	}
	if ctx.Net != nil && ctx.Net.HasCuts() {
		if fitting := idx.AppendFitting(nil, t.Constraints); len(fitting) > 0 {
			return Locality{}.Pick(t, fitting, ctx)
		}
		return nil
	}
	type held struct {
		node  string
		bytes int64
	}
	var buf [8]held // on the stack unless the inputs have more holders
	holders := buf[:0]
	for _, k := range t.InputKeys {
		size, names := ctx.Registry.Row(k)
		if size == 0 {
			continue
		}
	names:
		for _, name := range names {
			for i := range holders {
				if holders[i].node == name {
					holders[i].bytes += size
					continue names
				}
			}
			holders = append(holders, held{name, size})
		}
	}
	var best *resources.Node
	var bestLocal int64
	var bestFree int
	var bestSeq uint64
	for _, h := range holders {
		n, free, seq := idx.FittingByName(h.node, t.Constraints)
		if n != nil && (best == nil || h.bytes > bestLocal ||
			h.bytes == bestLocal && (free > bestFree || free == bestFree && seq < bestSeq)) {
			best, bestLocal, bestFree, bestSeq = n, h.bytes, free, seq
		}
	}
	if best != nil {
		return best
	}
	idx.EachFitting(t.Constraints, func(n *resources.Node, free int) {
		if best == nil || free > bestFree {
			best, bestFree = n, free
		}
	})
	return best
}

// EFT picks the node with the earliest estimated finish time: input
// staging plus speed-scaled compute. It models the list-scheduling engines
// of Pegasus/COMPSs (paper Sec. II-A).
type EFT struct{}

var _ Policy = EFT{}

// Name implements Policy.
func (EFT) Name() string { return "eft" }

// Pick implements Policy.
func (EFT) Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	est := estimate(t, ctx)
	rows := inputRows(t, ctx)
	best := fitting[0]
	bestFinish := transferTime(rows, best, ctx) + runTime(est, best)
	for _, n := range fitting[1:] {
		if f := transferTime(rows, n, ctx) + runTime(est, n); f < bestFinish {
			best, bestFinish = n, f
		}
	}
	return best
}

// ML is the intelligent-runtime policy: identical shape to EFT but it
// refuses to guess — while the predictor is untrained for a class it
// behaves like MinLoad, and as history accumulates its placements converge
// to informed earliest-finish-time decisions (experiment E8).
type ML struct{}

var _ Policy = ML{}

// Name implements Policy.
func (ML) Name() string { return "ml" }

// Pick implements Policy.
func (ML) Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	if ctx == nil || ctx.Predictor == nil || !ctx.Predictor.Trained(t.Class, 3) {
		return MinLoad{}.Pick(t, fitting, ctx)
	}
	return EFT{}.Pick(t, fitting, ctx)
}

var _ Prioritizer = ML{}

// Priority implements Prioritizer: longest-predicted-task-first, so big
// tasks claim the fast nodes before small ones fill them. Untrained
// classes rank 0 (submission order).
func (ML) Priority(t *TaskView, ctx *Context) float64 {
	if ctx == nil || ctx.Predictor == nil || !ctx.Predictor.Trained(t.Class, 3) {
		return 0
	}
	return ctx.Predictor.Predict(t.Class, t.InputBytes).Seconds()
}

// EnergyAware minimises estimated task energy (cores × active watts ×
// runtime), breaking ties by finish time. On a heterogeneous pool it
// steers small tasks to low-power fog nodes (experiment E10).
type EnergyAware struct {
	// MaxSlowdown bounds how much longer the energy-optimal node may
	// take versus the fastest fitting node (≤ 0 ⇒ 3×).
	MaxSlowdown float64
}

var _ Policy = EnergyAware{}

// Name implements Policy.
func (EnergyAware) Name() string { return "energy" }

// Pick implements Policy.
func (p EnergyAware) Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	maxSlow := p.MaxSlowdown
	if maxSlow <= 0 {
		maxSlow = 3
	}
	est := estimate(t, ctx)
	cores := t.Constraints.EffectiveCores()

	// Find the fastest finish to bound acceptable slowdown.
	fastest := time.Duration(1<<62 - 1)
	for _, n := range fitting {
		if f := runTime(est, n); f < fastest {
			fastest = f
		}
	}

	var best *resources.Node
	var bestEnergy float64
	var bestFinish time.Duration
	for _, n := range fitting {
		rt := runTime(est, n)
		if float64(rt) > maxSlow*float64(fastest) {
			continue
		}
		e := float64(cores) * n.Desc().ActiveWattsPerCore * rt.Seconds()
		if best == nil || e < bestEnergy || (e == bestEnergy && rt < bestFinish) {
			best, bestEnergy, bestFinish = n, e, rt
		}
	}
	if best == nil {
		return EFT{}.Pick(t, fitting, ctx)
	}
	return best
}

// WaitFast wraps a policy with head-of-line tier discipline: a task whose
// estimated reference duration is at least MinWait may only be placed on
// nodes that run it within MaxSlowdown × that estimate — otherwise Pick
// declines and the task waits for the busier, faster tier to free up
// instead of occupying a slow one for many times longer. Short tasks
// (below MinWait) run anywhere; they are cheap even on the slowest node.
//
// Declining parks the task's whole signature bucket for the wave, which
// is exactly the head-of-line blocking the engine's work stealing
// (engine.StealConfig) is built to bypass: long heads hold their claim on
// the fast tier while short entries behind them are stolen onto the idle
// slow nodes.
type WaitFast struct {
	// Inner picks among the acceptable nodes (nil ⇒ MinLoad).
	Inner Policy
	// MaxSlowdown bounds the accepted runtime stretch versus a reference
	// (SpeedFactor 1) core (≤ 0 ⇒ 2).
	MaxSlowdown float64
	// MinWait is the estimate below which a task never waits (≤ 0 ⇒ 10s).
	MinWait time.Duration
}

var _ Policy = WaitFast{}
var _ Prioritizer = WaitFast{}

// Name implements Policy.
func (p WaitFast) Name() string { return "wait-fast" }

// Pick implements Policy: it filters the fitting set down to nodes fast
// enough for the task and delegates the choice to Inner; an empty
// filtered set declines the placement.
func (p WaitFast) Pick(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	inner := p.Inner
	if inner == nil {
		inner = MinLoad{}
	}
	maxSlow := p.MaxSlowdown
	if maxSlow <= 0 {
		maxSlow = 2
	}
	minWait := p.MinWait
	if minWait <= 0 {
		minWait = 10 * time.Second
	}
	est := estimate(t, ctx)
	if est >= minWait {
		fast := make([]*resources.Node, 0, len(fitting))
		for _, n := range fitting {
			if float64(runTime(est, n)) <= maxSlow*float64(est) {
				fast = append(fast, n)
			}
		}
		if len(fast) == 0 {
			return nil
		}
		fitting = fast
	}
	return inner.Pick(t, fitting, ctx)
}

// Priority implements Prioritizer by delegating to Inner when it ranks
// ready tasks (equal priorities otherwise, i.e. submission order).
func (p WaitFast) Priority(t *TaskView, ctx *Context) float64 {
	if pr, ok := p.Inner.(Prioritizer); ok {
		return pr.Priority(t, ctx)
	}
	return 0
}

// Names lists the policies ByName knows, in the form a usage line shows.
const Names = "fifo | min-load | p2c | locality | eft | ml | energy | wait-fast"

// ByName returns the named policy. An unknown name is an error that
// lists the valid ones.
func ByName(name string) (Policy, error) {
	switch name {
	case "fifo":
		return FIFO{}, nil
	case "min-load":
		return MinLoad{}, nil
	case "p2c":
		return NewP2C(1), nil
	case "locality":
		return Locality{}, nil
	case "eft":
		return EFT{}, nil
	case "ml":
		return ML{}, nil
	case "energy":
		return EnergyAware{}, nil
	case "wait-fast":
		return WaitFast{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want %s)", name, Names)
}
