// Package autoscale implements metrics-driven, cost-aware pool scaling
// over heterogeneous node tiers, plus per-tenant admission control —
// the ROADMAP's "cost-aware autoscaling and multi-tenant admission
// control" item, built on the signals the engine and the placement
// index already maintain (per-signature ready depth and fit counts,
// parked-task counts, busy-core utilization).
//
// The analyzer is deliberately split in two: Evaluate is a scoring
// function over a Signals snapshot (plus one remembered sample, the
// previous queue depth) — deterministic for a given snapshot sequence,
// so sim policy sweeps are byte-reproducible — and Step applies the
// chosen Decision through the variant's resources.ElasticManager, whose
// drain-then-remove cycle guarantees a scale-down never kills running
// work. Both backends (internal/infra on the virtual clock,
// internal/core on wall time) drive the same Step through internal/host,
// so a policy that wins a sim sweep is the policy the live runtime
// executes. Two planners feed that one loop: the cost-aware fleet
// planner (New) and the cost-blind single-tier threshold rule
// (NewThreshold) the benchmarks keep as their baseline.
package autoscale

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/resources"
)

// Variant is one scalable node tier: a shape, and the manager that
// acquires and releases nodes of that shape. Its price tag comes from
// the manager's ScalePolicy (CostPerNodeHour).
type Variant struct {
	// Name identifies the tier ("cloud", "fog", …) and prefixes the
	// nodes its provider hands out.
	Name string
	// Desc is the node shape the tier provisions — what the analyzer
	// checks demand signatures against (Desc.Satisfies).
	Desc resources.Description
	// Manager executes this tier's grow/shrink with the drain-then-
	// remove machinery. Its policy bounds the tier (MaxNodes) and
	// prices it (CostPerNodeHour).
	Manager *resources.ElasticManager
}

// SimVariant is a tier of simulated nodes: an ElasticManager over a
// SimProvider that hands out up to max nodes of shape desc, each ready
// delay after it is asked for, priced at cost units per node-hour and
// grown at two queued tasks per core.
func SimVariant(name string, desc resources.Description, cost float64, delay time.Duration, max int) Variant {
	return Variant{
		Name: name,
		Desc: desc,
		Manager: resources.NewElasticManager(
			resources.NewSimProvider(name, desc, max, delay),
			resources.ScalePolicy{MaxNodes: max, TasksPerCore: 2, CostPerNodeHour: cost},
		),
	}
}

// Cost returns the tier's price in cost units per node-hour.
func (v Variant) Cost() float64 { return v.Manager.Policy().CostPerNodeHour }

// rate is the tier's expected service rate in reference cores: how much
// SpeedFactor-1 compute one node adds.
func (v Variant) rate() float64 {
	sf := v.Desc.SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	return float64(v.Desc.Cores) * sf
}

// The analyzer's two thresholds.
const (
	// tasksPerCore is the aggregate backlog threshold (the threshold
	// planner's usual 2 ready tasks per core): grow while ready tasks
	// exceed tasksPerCore × pool cores. A starved signature (ready work
	// no pool node is capable of) triggers growth regardless.
	tasksPerCore = 2.0
	// idleFrac is the capacity reserve the fleet plan carries on top of
	// estimated demand: the planner provisions for demand ÷ (1 −
	// idleFrac), so the fleet stays below (1 − idleFrac) busy and keeps
	// headroom for arrivals during the next provisioning delay. Shedding
	// down to the reserve eagerly is safe because removal is
	// drain-then-remove: the victim's running work finishes, and a spike
	// mid-drain reclaims the node for free.
	idleFrac = 0.15
)

// Signals is one snapshot of the load state the analyzer scores. Build
// it with Snapshot, or by hand in tests — Evaluate is a pure function
// of this struct plus the variants' current node counts.
type Signals struct {
	// At is the snapshot instant on the backend's clock (virtual or
	// wall). Recorded on decisions; never scored.
	At time.Duration
	// Ready is the engine's queued-ready count; Parked counts tasks
	// diverted by the availability policy.
	Ready  int
	Parked int
	// Sigs is the per-signature demand/supply breakdown
	// (engine.SigLoads), in signature order.
	Sigs []engine.SigLoad
	// FreeCores and TotalCores are the pool's capacity state.
	FreeCores  int
	TotalCores int
	// Steals is the engine's cumulative steal counter — high steal
	// traffic with a deep queue means load is imbalanced, not absent,
	// which keeps the analyzer from shrinking into a rebalancing pool.
	Steals int
}

// Snapshot gathers a Signals from a running engine and its pool.
func Snapshot(eng *engine.Engine, pool *resources.Pool, at time.Duration) Signals {
	st := eng.Stats()
	return Signals{
		At:         at,
		Ready:      eng.ReadyCount(),
		Parked:     eng.ParkedCount(),
		Sigs:       eng.SigLoads(),
		FreeCores:  pool.FreeCores(),
		TotalCores: pool.TotalCores(),
		Steals:     st.Steals,
	}
}

// Decision is the outcome of one evaluation: which tier to scale, in
// which direction, and the score that won. Decisions are comparable
// across backends by (Variant, Delta, Reason) — At differs between
// virtual and wall clocks.
type Decision struct {
	// At is the evaluation instant (from the Signals).
	At time.Duration
	// Variant names the chosen tier ("" on hold).
	Variant string
	// Delta is +1 (grow), -1 (shrink) or 0 (hold).
	Delta int
	// Score is the chosen tier's price per reference core for a grow
	// (cost units per node-hour per unit of SpeedFactor-1 compute; lower
	// is better), the tier's node-hour cost for a shrink, 0 on hold.
	Score float64
	// Reason is the signal that decided: "starved", "backlog",
	// "reclaim", "idle", "reap", or a hold reason ("steady", "planned",
	// "no-variant").
	Reason string
}

// ActionKind reports what Step actually did with a decision.
type ActionKind int

// Step outcomes.
const (
	// Held: no scaling action.
	Held ActionKind = iota
	// Grew: a node was acquired and added to the pool.
	Grew
	// Reclaimed: a mid-drain node's cordon was lifted instead of
	// provisioning a fresh one.
	Reclaimed
	// Draining: a shrink decision cordoned (or is still bleeding) a
	// victim; removal waits for its running work to finish.
	Draining
	// Removed: a fully drained victim left the pool.
	Removed
)

// String returns the action-kind name.
func (k ActionKind) String() string {
	switch k {
	case Held:
		return "held"
	case Grew:
		return "grew"
	case Reclaimed:
		return "reclaimed"
	case Draining:
		return "draining"
	case Removed:
		return "removed"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one executed decision.
type Action struct {
	Decision Decision
	Kind     ActionKind
	// Node is the node grown, reclaimed or removed (nil on Held and
	// Draining).
	Node *resources.Node
	// Delay is the provisioning delay to account for when Kind is Grew.
	Delay time.Duration
}

// Autoscaler scores scale decisions across tier variants and executes
// them through each variant's ElasticManager. Safe for concurrent use;
// decisions are serialised, like the engine's scheduling.
type Autoscaler struct {
	variants []Variant // sorted by name
	// threshold selects the one-variant threshold planner (NewThreshold)
	// over the cost-aware fleet planner (New).
	threshold bool

	mu        sync.Mutex
	decisions []Decision
	m         *obsv.AutoscaleMetrics
	// lastReady is the previous evaluation's queue depth: the delta
	// against it is the burst discriminator (see rawDemand).
	lastReady int
	// demandPeak is the decayed maximum of recent demand estimates: the
	// value the fleet is actually planned for. Planning on the decayed
	// peak instead of the instantaneous estimate keeps the baseline
	// fleet from being shed the moment the queue happens to be empty —
	// overshedding re-queues the baseline and churns nodes.
	demandPeak float64
}

// demandDecay is the per-evaluation decay of demandPeak: after a burst
// the plan relaxes to the instantaneous estimate over a handful of
// evaluation periods rather than in one step.
const demandDecay = 0.8

// New returns an autoscaler over the given tier variants. Variants are
// kept in name order so evaluation ties break deterministically.
func New(variants []Variant) (*Autoscaler, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("autoscale: at least one variant required")
	}
	vs := append([]Variant(nil), variants...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Name < vs[j].Name })
	for i, v := range vs {
		if v.Name == "" || v.Manager == nil {
			return nil, fmt.Errorf("autoscale: variant %d needs a name and a manager", i)
		}
		if i > 0 && vs[i-1].Name == v.Name {
			return nil, fmt.Errorf("autoscale: duplicate variant %q", v.Name)
		}
	}
	return &Autoscaler{variants: vs}, nil
}

// NewThreshold returns the threshold planner over one elastic tier: grow
// while ready tasks exceed the manager's TasksPerCore × pool cores (or a
// node is mid-drain and work is waiting — reclaim it), shrink when
// nothing is ready and more than IdleCoresToShrink cores sit free, both
// within MinNodes/MaxNodes. It never reads CostPerNodeHour: this is the
// cost-blind baseline the cost-aware planner is priced against, run by
// the same Step.
func NewThreshold(mgr *resources.ElasticManager) *Autoscaler {
	return &Autoscaler{variants: []Variant{{Name: "elastic", Manager: mgr}}, threshold: true}
}

// SetMetrics installs the decision counters (nil-safe; optional).
func (a *Autoscaler) SetMetrics(m *obsv.AutoscaleMetrics) {
	a.mu.Lock()
	a.m = m
	a.mu.Unlock()
}

// SetCordon forwards the drain hook to every variant's manager, so
// scale-down victims are cordoned through the engine's books.
func (a *Autoscaler) SetCordon(fn func(name string) error) {
	for _, v := range a.variants {
		v.Manager.SetCordon(fn)
	}
}

// Variants returns the tier set in name order (shared slice: read only).
func (a *Autoscaler) Variants() []Variant { return a.variants }

// Decisions returns a copy of every decision made so far, in order —
// the sequence the sim-vs-live parity suite compares.
func (a *Autoscaler) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// Evaluate scores one snapshot and returns the winning decision.
// Deterministic: for an identical SEQUENCE of Signals and identical
// variant node counts it always returns the same Decision sequence
// (the scorer keeps two remembered samples — the previous queue depth,
// the burst discriminator, and the decayed demand peak, the shed
// damper), and Delta is monotone non-decreasing in Signals.Ready (more
// queued work never flips a grow into a shrink).
func (a *Autoscaler) Evaluate(sig Signals) Decision {
	if a.threshold {
		d := a.evaluateThreshold(sig)
		d.At = sig.At
		return d
	}
	a.mu.Lock()
	last := a.lastReady
	a.lastReady = sig.Ready
	raw := a.rawDemand(sig, last)
	peak := a.demandPeak * demandDecay
	if raw > peak {
		peak = raw
	}
	if peak < 0.01 {
		// Geometric decay never reaches zero, and a plan for any ε > 0
		// demand still wants one node — without a cutoff the fleet could
		// never shed its last node on a workload that has gone quiet.
		peak = 0
	}
	a.demandPeak = peak
	a.mu.Unlock()
	d := a.evaluate(sig, peak)
	d.At = sig.At
	return d
}

func (a *Autoscaler) evaluate(sig Signals, demand float64) Decision {
	// Grow signals: a starved signature (queued work no pool node is
	// CAPABLE of running, cordons and load ignored) or aggregate backlog
	// past the threshold. Starvation deliberately tests Capable, not
	// Fit: Fit == 0 on a busy pool just means saturation, which is the
	// backlog threshold's job — growing on it would buy a node for
	// every queued task.
	starved := false
	for _, sl := range sig.Sigs {
		if sl.Ready > 0 && sl.Capable == 0 {
			starved = true
			break
		}
	}
	// The backlog threshold counts reference cores, not physical ones:
	// a slow tier's many cores buy little service, and a threshold in
	// physical cores would let a deep queue slog through an
	// under-provisioned small-device fleet for minutes before
	// triggering. Base (non-elastic) cores are counted at SpeedFactor 1
	// — their shapes are unknown here, and pricing them generously keeps
	// the analyzer from buying nodes a big static pool could absorb.
	ref := a.refCores(sig)
	backlog := float64(sig.Ready) > tasksPerCore*ref
	if ref == 0 {
		backlog = sig.Ready > 0
	}

	if starved || backlog {
		if starved {
			// A node mid-drain is the cheapest capacity there is: lift a
			// cordon before provisioning, preferring the variant that
			// serves the most demand (ties by name via variant order).
			var reclaim *Variant
			reclaimServes := -1
			for i := range a.variants {
				v := &a.variants[i]
				if v.Manager.DrainingCount() == 0 {
					continue
				}
				if s := servable(v.Desc, sig.Sigs); s > reclaimServes && s > 0 {
					reclaim, reclaimServes = v, s
				}
			}
			if reclaim != nil {
				return Decision{Variant: reclaim.Name, Delta: +1, Score: 0, Reason: "reclaim"}
			}
			// Capability starvation is about constraints, not volume:
			// among the tiers whose shape satisfies the starved demand,
			// buy the one with the lowest price per reference core.
			best := -1
			bestScore := 0.0
			for i := range a.variants {
				v := &a.variants[i]
				pol := v.Manager.Policy()
				if pol.MaxNodes > 0 && v.Manager.ElasticCount() >= pol.MaxNodes {
					continue
				}
				if servable(v.Desc, sig.Sigs) == 0 {
					continue
				}
				score := v.Cost() / v.rate()
				if best < 0 || score < bestScore {
					best, bestScore = i, score
				}
			}
			if best < 0 {
				return Decision{Reason: "no-variant"}
			}
			return Decision{Variant: a.variants[best].Name, Delta: +1, Score: bestScore, Reason: "starved"}
		}
		// Aggregate backlog: grow toward the cheapest fleet plan for the
		// estimated demand. Buying toward the plan rather than scoring
		// each node in isolation is what lets the analyzer consolidate —
		// five small devices bought one marginal decision at a time can
		// each look cheap while their sum costs more than one big VM.
		plan, ok := a.planFleet(demand / (1 - idleFrac))
		if ok {
			// Reclaim a mid-drain node before provisioning — but only
			// when the plan wants that tier kept. Reclaiming
			// unconditionally would pin every draining node forever: the
			// queue that rebuilds while it bleeds out would lift the
			// cordon each period, and a tier the plan is trying to
			// retire could never leave.
			for i := range a.variants {
				v := &a.variants[i]
				if v.Manager.DrainingCount() == 0 || plan[i] < v.Manager.ElasticCount() {
					continue
				}
				if servable(v.Desc, sig.Sigs) > 0 {
					return Decision{Variant: v.Name, Delta: +1, Score: 0, Reason: "reclaim"}
				}
			}
			// A tier the plan is retiring whose victim has bled dry:
			// reap it even under backlog — removal is free, and the
			// Ready==0 gate below may not be reached for a long time.
			for i := range a.variants {
				v := &a.variants[i]
				if v.Manager.DrainedCount() > 0 && plan[i] < v.Manager.ElasticCount() {
					return Decision{Variant: v.Name, Delta: -1, Score: v.Cost(), Reason: "reap"}
				}
			}
		}
		if !ok {
			// No fleet within the tiers' MaxNodes covers the demand:
			// saturate the fastest tier that still has headroom and can
			// serve something.
			best := -1
			for i := range a.variants {
				v := &a.variants[i]
				pol := v.Manager.Policy()
				if pol.MaxNodes > 0 && v.Manager.ElasticCount() >= pol.MaxNodes {
					continue
				}
				if servable(v.Desc, sig.Sigs) == 0 {
					continue
				}
				if best < 0 || v.rate() > a.variants[best].rate() {
					best = i
				}
			}
			if best < 0 {
				return Decision{Reason: "no-variant"}
			}
			v := &a.variants[best]
			return Decision{Variant: v.Name, Delta: +1, Score: v.Cost() / v.rate(), Reason: "backlog"}
		}
		// Grow the tier with the largest rate deficit against the plan:
		// big nodes first, so one provisioning delay buys the most
		// missing capacity. Ties break by name via the variant order.
		best, bestDef := -1, 0.0
		for i := range a.variants {
			v := &a.variants[i]
			if def := float64(plan[i]-v.Manager.ElasticCount()) * v.rate(); def > bestDef {
				best, bestDef = i, def
			}
		}
		if best < 0 {
			// The fleet already covers the plan; the backlog is the
			// queue draining through it.
			return Decision{Reason: "planned"}
		}
		v := &a.variants[best]
		return Decision{Variant: v.Name, Delta: +1, Score: v.Cost() / v.rate(), Reason: "backlog"}
	}

	// A cordoned node that has bled dry is removed no matter what the
	// queue looks like: it takes no placements, so every period it stays
	// in the pool is pure cost. Gating this on an empty queue would let
	// sub-threshold work trickle past a billing corpse indefinitely.
	for i := range a.variants {
		v := &a.variants[i]
		if v.Manager.DrainedCount() > 0 {
			return Decision{Variant: v.Name, Delta: -1, Score: v.Cost(), Reason: "reap"}
		}
	}

	// Shrink signals: nothing queued or parked. Advance an in-flight
	// drain first, then shed whatever the fleet plan for the current
	// busy load does not want, most expensive tier first. The plan is
	// the same cheapest-fleet computation growth targets, so the two
	// sides agree on the end state — in particular, excess cheap nodes
	// are shed even while an expensive node stays busy, because the plan
	// floor (not a greedy utilization check) decides who is excess.
	if sig.Ready == 0 && sig.Parked == 0 {
		for i := range a.variants {
			v := &a.variants[i]
			if v.Manager.DrainingCount() > 0 {
				return Decision{Variant: v.Name, Delta: -1, Score: v.Cost(), Reason: "reap"}
			}
		}
		plan, ok := a.planFleet(demand / (1 - idleFrac))
		if ok {
			best := -1
			for i := range a.variants {
				v := &a.variants[i]
				floor := v.Manager.Policy().MinNodes
				if plan[i] > floor {
					floor = plan[i]
				}
				if v.Manager.ElasticCount() <= floor {
					continue
				}
				if best < 0 || v.Cost() > a.variants[best].Cost() {
					best = i
				}
			}
			if best >= 0 {
				v := &a.variants[best]
				return Decision{Variant: v.Name, Delta: -1, Score: v.Cost(), Reason: "idle"}
			}
		}
	}
	return Decision{Reason: "steady"}
}

// evaluateThreshold is the threshold planner's rule — stateless, a pure
// function of the snapshot and the manager's node counts.
func (a *Autoscaler) evaluateThreshold(sig Signals) Decision {
	v := &a.variants[0]
	pol := v.Manager.Policy()
	n := v.Manager.ElasticCount()
	grow := Decision{Variant: v.Name, Delta: +1, Reason: "backlog"}
	// Ready work while a node is mid-drain: grow by reclaiming it. The
	// node is already counted against MaxNodes, so this must not be gated
	// on n < MaxNodes — otherwise a drained pool wedges under load.
	if sig.Ready > 0 && v.Manager.DrainingCount() > 0 {
		grow.Reason = "reclaim"
		return grow
	}
	if sig.TotalCores == 0 {
		if sig.Ready > 0 && n < pol.MaxNodes {
			return grow
		}
		return Decision{Reason: "steady"}
	}
	if float64(sig.Ready) > pol.TasksPerCore*float64(sig.TotalCores) && n < pol.MaxNodes {
		return grow
	}
	if sig.Ready == 0 && n > pol.MinNodes && sig.FreeCores > pol.IdleCoresToShrink {
		return Decision{Variant: v.Name, Delta: -1, Reason: "idle"}
	}
	return Decision{Reason: "steady"}
}

// refCores is the pool's service capacity in reference cores: the
// elastic fleet at its known tier rates, plus whatever non-elastic base
// cores the pool holds, counted at SpeedFactor 1 (their shapes aren't
// known here).
func (a *Autoscaler) refCores(sig Signals) float64 {
	elastic, phys := 0.0, 0
	for i := range a.variants {
		v := &a.variants[i]
		n := v.Manager.ElasticCount()
		elastic += float64(n) * v.rate()
		phys += n * v.Desc.Cores
	}
	if base := sig.TotalCores - phys; base > 0 {
		elastic += float64(base)
	}
	return elastic
}

// rawDemand estimates the load the fleet should be planned for, in
// reference cores. Two terms:
//
//   - the running work: the elastic fleet's reference rate scaled by
//     the busy fraction of the ELASTIC cores alone (base cores are
//     assumed busy first — the always-on base is where the scheduler's
//     load settles, and blending its busy-ness in at elastic tier rates
//     would inflate the estimate). Counting busy PHYSICAL cores would
//     be worse still: a SpeedFactor-0.25 device keeps 4× more cores
//     busy for the same served load, so a physical-core estimate
//     systematically over-retains slow tiers.
//   - the queue pressure: the larger of the queue excess over the
//     backlog threshold (catches slow creep) and the queue growth since
//     the previous evaluation (catches bursts: a ramp keeps the excess
//     small because every node bought raises the threshold under it,
//     but per-period inflow doesn't care how big the pool is),
//     converted to reference cores at the policy's target load factor.
func (a *Autoscaler) rawDemand(sig Signals, lastReady int) float64 {
	elastic, phys := 0.0, 0
	for i := range a.variants {
		v := &a.variants[i]
		n := v.Manager.ElasticCount()
		elastic += float64(n) * v.rate()
		phys += n * v.Desc.Cores
	}
	draining := 0
	for i := range a.variants {
		draining += a.variants[i].Manager.DrainingCount()
	}
	d := 0.0
	if phys > 0 {
		base := sig.TotalCores - phys
		if base < 0 {
			base = 0
		}
		busy := sig.TotalCores - sig.FreeCores - base
		if busy > 0 {
			frac := float64(busy) / float64(phys)
			if frac > 1 {
				frac = 1
			}
			d = frac * elastic
		}
	}
	excess := float64(sig.Ready) - tasksPerCore*a.refCores(sig)
	// The queue-growth term is suppressed while a drain is in flight: a
	// cordoned node stops taking work, so the queue rebuilding behind it
	// is the drain's own doing, and reading it as a burst would reclaim
	// every node the plan is trying to retire.
	if g := float64(sig.Ready - lastReady); draining == 0 && g > excess {
		excess = g
	}
	if excess > 0 {
		d += excess / tasksPerCore
	}
	return d
}

// planFleet returns the per-variant node counts (variant order) of the
// cheapest mixed fleet whose combined reference rate covers need,
// respecting each tier's MaxNodes. Exact enumeration — tier counts are
// small — trying slow tiers first, so on EQUAL cost the plan prefers
// more, smaller nodes: same price now, finer shed granularity when
// demand recedes. Strictly cheaper big-node plans still win, so
// consolidation happens where it actually saves money. Granularity is
// the point of planning at the fleet level: a trickle is cheapest on
// one small device even when a big tier's per-core price is lower, a
// heavy baseline flips the answer, and mid-range demand often wants a
// mix. ok is false when no fleet within the MaxNodes bounds covers
// need.
func (a *Autoscaler) planFleet(need float64) (plan []int, ok bool) {
	order := make([]int, len(a.variants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return a.variants[order[x]].rate() < a.variants[order[y]].rate()
	})
	best := make([]int, len(a.variants))
	bestCost := math.Inf(1)
	cur := make([]int, len(a.variants))
	var rec func(oi int, remaining, cost float64)
	rec = func(oi int, remaining, cost float64) {
		if cost >= bestCost {
			return // first-found wins ties: deterministic, small-node-heavy
		}
		if remaining <= 0 {
			bestCost = cost
			copy(best, cur)
			ok = true
			return
		}
		if oi == len(order) {
			return
		}
		v := &a.variants[order[oi]]
		max := int(math.Ceil(remaining / v.rate()))
		if m := v.Manager.Policy().MaxNodes; m > 0 && max > m {
			max = m
		}
		if max > 64 {
			max = 64 // bound the search; a plan this size saturates anyway
		}
		for n := max; n >= 0; n-- {
			cur[order[oi]] = n
			rec(oi+1, remaining-float64(n)*v.rate(), cost+float64(n)*v.Cost())
			cur[order[oi]] = 0
		}
	}
	rec(0, need, 0)
	return best, ok
}

// servable sums the ready depth of every demand signature a node of
// this description could run (capacity check; current load is what the
// new node changes).
func servable(d resources.Description, sigs []engine.SigLoad) int {
	total := 0
	for _, sl := range sigs {
		if sl.Ready > 0 && d.Satisfies(sl.Constraints) {
			total += sl.Ready
		}
	}
	return total
}

// Step evaluates one snapshot and executes the decision through the
// chosen variant's manager: grow acquires (reclaiming a draining node
// first when the decision says so), shrink advances the drain-then-
// remove cycle. The decision is recorded either way. The caller owns
// backend bookkeeping (trace events, provisioning-delay holds,
// node-second accounting) off the returned Action.
func (a *Autoscaler) Step(pool *resources.Pool, sig Signals) Action {
	d := a.Evaluate(sig)
	act := Action{Decision: d, Kind: Held}
	if v := a.variant(d.Variant); v != nil {
		switch {
		case d.Delta > 0:
			if n := v.Manager.Reclaim(); n != nil {
				act.Kind, act.Node = Reclaimed, n
				break
			}
			if n, delay, err := v.Manager.GrowOne(pool); err == nil {
				act.Kind, act.Node, act.Delay = Grew, n, delay
			}
		case d.Delta < 0:
			if n, err := v.Manager.ShrinkOne(pool); err == nil {
				if n != nil {
					act.Kind, act.Node = Removed, n
				} else {
					act.Kind = Draining
				}
			}
		}
	}
	a.record(d, act.Kind)
	return act
}

func (a *Autoscaler) variant(name string) *Variant {
	if name == "" {
		return nil
	}
	for i := range a.variants {
		if a.variants[i].Name == name {
			return &a.variants[i]
		}
	}
	return nil
}

func (a *Autoscaler) record(d Decision, kind ActionKind) {
	a.mu.Lock()
	a.decisions = append(a.decisions, d)
	m := a.m
	a.mu.Unlock()
	if m == nil {
		return
	}
	switch {
	case kind == Reclaimed:
		m.Reclaims.Inc()
	case d.Delta > 0:
		m.Grows.Inc()
	case d.Delta < 0:
		m.Shrinks.Inc()
	default:
		m.Holds.Inc()
	}
}
