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

// Policy selects a node for a task among the nodes that currently fit
// its constraints. The engine asks only when enough nodes fit — one, or
// one per member of a multi-node group — and shows them as a
// resources.Candidates view: the signature's placement index for an
// unhinted single-node task, an explicit list otherwise (see
// resources.Candidates). A policy is written once, against the view's
// operations; it never learns which form it was shown.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Choose picks one of the candidates, or returns nil to decline: the
	// task stays queued.
	Choose(t *TaskView, c resources.Candidates, ctx *Context) *resources.Node
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

// inputRows reads the catalog rows of t's inputs — once per pick; every
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

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Choose implements Policy: the first candidate in pool order.
func (FIFO) Choose(_ *TaskView, c resources.Candidates, _ *Context) *resources.Node {
	return c.First()
}

// MinLoad balances by busy-core fraction, breaking ties by node name so
// the pick never depends on pool insertion order: through the index it is
// a heap walk, over a list a scan, and the two agree byte for byte.
type MinLoad struct{}

// Name implements Policy.
func (MinLoad) Name() string { return "min-load" }

// Choose implements Policy: the least-loaded candidate.
func (MinLoad) Choose(_ *TaskView, c resources.Candidates, _ *Context) *resources.Node {
	return c.MinLoad()
}

// P2C is power-of-two-choices placement: sample two candidates, run the
// less loaded one (ties by node name). The sampling is seeded and
// deterministic given the placement sequence, so two backends driving
// the same workload with the same seed place identically. Through the
// index it is an O(1) pick regardless of pool size; over a list (a
// multi-node group, a hinted placement) it samples the list instead —
// the view keeps the two sampling rules (resources.Candidates.PowerOfTwo).
// The classic result applies: two random choices keep the maximum load
// within O(log log n) of perfect balancing at a fraction of MinLoad's
// bookkeeping. A P2C is not safe for concurrent use by several engines;
// give each engine its own.
type P2C struct {
	// Seed seeds the sampler (0 ⇒ 1).
	Seed int64
	rng  *rand.Rand
}

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

// Choose implements Policy: the less loaded of two sampled candidates.
func (p *P2C) Choose(_ *TaskView, c resources.Candidates, _ *Context) *resources.Node {
	return c.PowerOfTwo(p.sampler())
}

// Locality places each task where most of its input bytes already reside,
// the behaviour enabled by the storage interface's getLocations
// (paper Sec. VI-A-1, experiment E4).
type Locality struct{}

// Name implements Policy.
func (Locality) Name() string { return "locality" }

// Choose implements Policy with the question asked of the inputs, not of
// the candidates: each input is asked once who holds it and how big it
// is, and the bytes are summed per holder (one to three names). Only a
// holder can score above zero, so when one is a candidate the winner is
// the best candidate holder — most local bytes, then most free cores,
// then first in pool order — asked about by name, without visiting the
// rest of the set. Only when no holder is a candidate is the set walked;
// every candidate then scores zero, and the one with the most free cores,
// first in pool order, wins. Under a network partition the tie-break
// after local bytes becomes availability-aware: a candidate that can be
// fed every input beats one with an input marooned behind a cut link, so
// locality placement steers around partitions instead of landing tasks
// where their data is unreachable. Feeding is costed against the
// network, so that walk runs over the materialized list.
func (Locality) Choose(t *TaskView, c resources.Candidates, ctx *Context) *resources.Node {
	if ctx == nil || ctx.Registry == nil {
		return c.First()
	}
	var rows []inputRow // read only under a partition
	if ctx.Net != nil && ctx.Net.HasCuts() {
		rows = inputRows(t, ctx)
	}
	fed := func(n *resources.Node) bool {
		return transferTime(rows, n, ctx) < unreachablePenalty
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
	var bestFed bool
	var bestFree int
	var bestSeq uint64
	for _, h := range holders {
		n, free, seq := c.ByName(h.node)
		if n == nil {
			continue
		}
		if f := fed(n); best == nil || h.bytes > bestLocal || h.bytes == bestLocal &&
			(f && !bestFed || f == bestFed && (free > bestFree || free == bestFree && seq < bestSeq)) {
			best, bestLocal, bestFed, bestFree, bestSeq = n, h.bytes, f, free, seq
		}
	}
	if best != nil {
		return best
	}
	if rows == nil {
		return c.MostFree()
	}
	for _, n := range c.Nodes() {
		f, free := fed(n), n.FreeCores()
		if best == nil || f && !bestFed || f == bestFed && free > bestFree {
			best, bestFed, bestFree = n, f, free
		}
	}
	return best
}

// EFT picks the node with the earliest estimated finish time: input
// staging plus speed-scaled compute. It models the list-scheduling engines
// of Pegasus/COMPSs (paper Sec. II-A).
type EFT struct{}

// Name implements Policy.
func (EFT) Name() string { return "eft" }

// Choose implements Policy. Every candidate is costed against the
// registry and the network, over the materialized list.
func (EFT) Choose(t *TaskView, c resources.Candidates, ctx *Context) *resources.Node {
	fitting := c.Nodes()
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

// Name implements Policy.
func (ML) Name() string { return "ml" }

// Choose implements Policy.
func (ML) Choose(t *TaskView, c resources.Candidates, ctx *Context) *resources.Node {
	if ctx == nil || ctx.Predictor == nil || !ctx.Predictor.Trained(t.Class, 3) {
		return MinLoad{}.Choose(t, c, ctx)
	}
	return EFT{}.Choose(t, c, ctx)
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

// Name implements Policy.
func (EnergyAware) Name() string { return "energy" }

// Choose implements Policy, over the materialized list.
func (p EnergyAware) Choose(t *TaskView, c resources.Candidates, ctx *Context) *resources.Node {
	fitting := c.Nodes()
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
		return EFT{}.Choose(t, resources.ListCandidates(fitting), ctx)
	}
	return best
}

// WaitFast wraps a policy with head-of-line tier discipline: a task whose
// estimated reference duration is at least MinWait may only be placed on
// nodes that run it within MaxSlowdown × that estimate — otherwise Choose
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

// Choose implements Policy: it filters the candidates down to nodes fast
// enough for the task and delegates the choice to Inner; an empty
// filtered set declines the placement.
func (p WaitFast) Choose(t *TaskView, c resources.Candidates, ctx *Context) *resources.Node {
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
		c = c.Filter(func(n *resources.Node) bool { return float64(runTime(est, n)) <= maxSlow*float64(est) })
		if len(c.Nodes()) == 0 {
			return nil
		}
	}
	return inner.Choose(t, c, ctx)
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
		return &P2C{Seed: 1}, nil
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
