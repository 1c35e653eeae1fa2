// Package autoscale implements metrics-driven, cost-aware pool scaling
// over heterogeneous node tiers, plus per-tenant admission control —
// the ROADMAP's "cost-aware autoscaling and multi-tenant admission
// control" item, built on the signals the engine and the placement
// index already maintain (per-signature ready depth and fit counts,
// parked-task counts, busy-core utilization).
//
// A Tier is the paper's elastic connector (Sec. VI-A: "different
// connectors, each bridging to each provider API") reduced to what
// scaling needs: a name, a node shape, a price, a provisioning delay
// and a size cap. The Autoscaler keeps each tier's books — the nodes it
// added, the ones mid-drain — and runs grow, reclaim and the
// drain-then-remove shrink itself, so a scale-down never kills running
// work.
//
// The analyzer is deliberately split in two: decide is a scoring
// function over a Signals snapshot (plus one remembered sample, the
// previous queue depth) — deterministic for a given snapshot sequence,
// so sim policy sweeps are byte-reproducible — and Step applies the
// chosen Decision to the pool. Both backends (internal/infra on the
// virtual clock, internal/core on wall time) drive the same Step through
// internal/host, so a policy that wins a sim sweep is the policy the
// live runtime executes. Two planners feed that one loop: the
// cost-aware fleet planner (New) and the cost-blind single-tier
// threshold rule (NewThreshold) the benchmarks keep as their baseline.
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

// Tier is one scalable node tier.
type Tier struct {
	// Name identifies the tier ("cloud", "fog", …) and prefixes the
	// nodes it provisions: <name>-1, <name>-2, …
	Name string
	// Desc is the node shape the tier provisions — what the analyzer
	// checks demand signatures against (Desc.Satisfies).
	Desc resources.Description
	// Cost prices one node in cost units per node-hour. The cost-aware
	// planner ranks tiers by it; the threshold rule never reads it — it
	// stays cost-blind, which is exactly the baseline the autoscale
	// benchmarks compare against.
	Cost float64
	// Delay is the provisioning time (VM boot, SLURM queue wait) before
	// a grown node takes work.
	Delay time.Duration
	// Max caps the tier's elastic nodes; at least 1.
	Max int
}

// rate is the tier's expected service rate in reference cores: how much
// SpeedFactor-1 compute one node adds.
func (t Tier) rate() float64 {
	sf := t.Desc.SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	return float64(t.Desc.Cores) * sf
}

// tier is a Tier plus the autoscaler's books on it, guarded by the
// autoscaler's mutex.
type tier struct {
	Tier
	serial   int                        // number of the last node provisioned
	elastic  map[string]*resources.Node // nodes this tier added to the pool
	draining map[string]*resources.Node // cordoned, waiting to bleed dry
}

// drained counts the cordoned nodes that have bled dry: removal
// candidates shrink can reap without touching running work. A cordoned
// node takes no placements, so leaving a drained one in the pool buys
// nothing at full price.
func (t *tier) drained() int {
	n := 0
	for _, d := range t.draining {
		if d.Running() == 0 {
			n++
		}
	}
	return n
}

// lowest returns the lowest-named node of m (the lowest idle one when
// idleOnly), so every choice among a tier's nodes is deterministic.
func lowest(m map[string]*resources.Node, idleOnly bool) *resources.Node {
	var best *resources.Node
	for _, n := range m {
		if (!idleOnly || n.Running() == 0) && (best == nil || n.Name() < best.Name()) {
			best = n
		}
	}
	return best
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
// it with Snapshot, or by hand in tests — decide is a pure function
// of this struct plus the tiers' current node counts.
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
// across backends by (Tier, Delta, Reason) — At differs between
// virtual and wall clocks.
type Decision struct {
	// At is the evaluation instant (from the Signals).
	At time.Duration
	// Tier names the chosen tier ("" on hold).
	Tier string
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

// Autoscaler scores scale decisions across tiers and executes them
// against the pool, keeping each tier's books. Safe for concurrent use:
// one mutex guards the books and the planner state, and Step holds it
// from evaluation to execution, so decisions are serialised like the
// engine's scheduling. Lock order: mu, then the cordon hook's engine
// lock, then pool, node and index locks.
type Autoscaler struct {
	// threshold selects the one-tier threshold rule (NewThreshold) over
	// the cost-aware fleet planner (New); growPerCore and idleCores are
	// the rule's two arguments.
	threshold   bool
	growPerCore float64
	idleCores   int

	mu    sync.Mutex
	tiers []tier // sorted by name
	// cordon drains a scale-down victim: the engine's DrainNode, so the
	// cordon lands on the scheduler's books and the trace. Nil drains
	// the node directly.
	cordon func(name string) error
	// predrain, when set, runs on every node before it joins the pool.
	// Nil in production; the parity suite cordons new nodes with it.
	predrain  func(*resources.Node)
	decisions []Decision
	kinds     map[string]int64 // decisions by kind: the series Expose registers
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

// New returns the cost-aware autoscaler over the given tiers. Tiers are
// kept in name order so evaluation ties break deterministically. Every
// tier needs a unique name, a shape of at least one core, a cost of at
// least zero and a Max of at least one node: a tier that can never
// provision would win every starved evaluation and grow nothing.
func New(tiers []Tier) (*Autoscaler, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("autoscale: at least one tier required")
	}
	a := &Autoscaler{tiers: make([]tier, len(tiers)), kinds: map[string]int64{}}
	for i, t := range tiers {
		a.tiers[i] = tier{Tier: t, elastic: map[string]*resources.Node{}, draining: map[string]*resources.Node{}}
	}
	sort.Slice(a.tiers, func(i, j int) bool { return a.tiers[i].Name < a.tiers[j].Name })
	for i, t := range a.tiers {
		switch {
		case t.Name == "":
			return nil, fmt.Errorf("autoscale: tier %d needs a name", i)
		case i > 0 && a.tiers[i-1].Name == t.Name:
			return nil, fmt.Errorf("autoscale: duplicate tier %q", t.Name)
		case t.Max < 1:
			return nil, fmt.Errorf("autoscale: tier %q: Max %d, want at least 1", t.Name, t.Max)
		case t.Desc.Cores < 1:
			return nil, fmt.Errorf("autoscale: tier %q: %d cores per node, want at least 1", t.Name, t.Desc.Cores)
		case !(t.Cost >= 0):
			return nil, fmt.Errorf("autoscale: tier %q: cost %v, want at least 0", t.Name, t.Cost)
		}
	}
	return a, nil
}

// NewThreshold returns the threshold rule over one tier: grow while
// ready tasks exceed tasksPerCore × pool cores (or a node is mid-drain
// and work is waiting — reclaim it), shrink when nothing is ready and
// more than idleCores cores sit free, both within the tier's Max. It
// never reads the tier's Cost: this is the cost-blind baseline the
// cost-aware planner is priced against, run by the same Step. The tier
// is checked as New checks it.
func NewThreshold(t Tier, tasksPerCore float64, idleCores int) (*Autoscaler, error) {
	a, err := New([]Tier{t})
	if err != nil {
		return nil, err
	}
	a.threshold, a.growPerCore, a.idleCores = true, tasksPerCore, idleCores
	return a, nil
}

// Expose registers flowgo_autoscale_decisions_total on reg, one
// func-backed series per kind of decision, each read under a.mu at
// scrape time.
func (a *Autoscaler) Expose(reg *obsv.Registry) {
	for _, kind := range []string{"grow", "shrink", "reclaim", "hold"} {
		reg.CounterFunc("flowgo_autoscale_decisions_total", "Autoscale decisions by kind.", obsv.Labels("kind", kind),
			func() int64 {
				a.mu.Lock()
				defer a.mu.Unlock()
				return a.kinds[kind]
			})
	}
}

// SetCordon installs the hook scale-down victims are drained through —
// engine-backed deployments pass Engine.DrainNode so the cordon lands
// on the scheduler's books (and the trace) and not just on the node.
func (a *Autoscaler) SetCordon(fn func(name string) error) {
	a.mu.Lock()
	a.cordon = fn
	a.mu.Unlock()
}

// Decisions returns a copy of every decision made so far, in order —
// the sequence the sim-vs-live parity suite compares.
func (a *Autoscaler) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// decide scores one snapshot and returns the winning decision; the
// caller holds a.mu. Deterministic: for an identical SEQUENCE of Signals
// and identical tier node counts it always returns the same Decision
// sequence (the scorer keeps two remembered samples — the previous queue
// depth, the burst discriminator, and the decayed demand peak, the shed
// damper), and Delta is monotone non-decreasing in Signals.Ready (more
// queued work never flips a grow into a shrink).
func (a *Autoscaler) decide(sig Signals) Decision {
	if a.threshold {
		d := a.evaluateThreshold(sig)
		d.At = sig.At
		return d
	}
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
			// cordon before provisioning, preferring the tier that
			// serves the most demand (ties by name via tier order).
			var reclaim *tier
			reclaimServes := -1
			for i := range a.tiers {
				t := &a.tiers[i]
				if len(t.draining) == 0 {
					continue
				}
				if s := servable(t.Desc, sig.Sigs); s > reclaimServes && s > 0 {
					reclaim, reclaimServes = t, s
				}
			}
			if reclaim != nil {
				return Decision{Tier: reclaim.Name, Delta: +1, Score: 0, Reason: "reclaim"}
			}
			// Capability starvation is about constraints, not volume:
			// among the tiers whose shape satisfies the starved demand,
			// buy the one with the lowest price per reference core.
			best := -1
			bestScore := 0.0
			for i := range a.tiers {
				t := &a.tiers[i]
				if len(t.elastic) >= t.Max {
					continue
				}
				if servable(t.Desc, sig.Sigs) == 0 {
					continue
				}
				score := t.Cost / t.rate()
				if best < 0 || score < bestScore {
					best, bestScore = i, score
				}
			}
			if best < 0 {
				return Decision{Reason: "no-variant"}
			}
			return Decision{Tier: a.tiers[best].Name, Delta: +1, Score: bestScore, Reason: "starved"}
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
			for i := range a.tiers {
				t := &a.tiers[i]
				if len(t.draining) == 0 || plan[i] < len(t.elastic) {
					continue
				}
				if servable(t.Desc, sig.Sigs) > 0 {
					return Decision{Tier: t.Name, Delta: +1, Score: 0, Reason: "reclaim"}
				}
			}
			// A tier the plan is retiring whose victim has bled dry:
			// reap it even under backlog — removal is free, and the
			// Ready==0 gate below may not be reached for a long time.
			for i := range a.tiers {
				t := &a.tiers[i]
				if t.drained() > 0 && plan[i] < len(t.elastic) {
					return Decision{Tier: t.Name, Delta: -1, Score: t.Cost, Reason: "reap"}
				}
			}
		}
		if !ok {
			// No fleet within the tiers' Max bounds covers the demand:
			// saturate the fastest tier that still has headroom and can
			// serve something.
			best := -1
			for i := range a.tiers {
				t := &a.tiers[i]
				if len(t.elastic) >= t.Max {
					continue
				}
				if servable(t.Desc, sig.Sigs) == 0 {
					continue
				}
				if best < 0 || t.rate() > a.tiers[best].rate() {
					best = i
				}
			}
			if best < 0 {
				return Decision{Reason: "no-variant"}
			}
			t := &a.tiers[best]
			return Decision{Tier: t.Name, Delta: +1, Score: t.Cost / t.rate(), Reason: "backlog"}
		}
		// Grow the tier with the largest rate deficit against the plan:
		// big nodes first, so one provisioning delay buys the most
		// missing capacity. Ties break by name via the tier order.
		best, bestDef := -1, 0.0
		for i := range a.tiers {
			t := &a.tiers[i]
			if def := float64(plan[i]-len(t.elastic)) * t.rate(); def > bestDef {
				best, bestDef = i, def
			}
		}
		if best < 0 {
			// The fleet already covers the plan; the backlog is the
			// queue draining through it.
			return Decision{Reason: "planned"}
		}
		t := &a.tiers[best]
		return Decision{Tier: t.Name, Delta: +1, Score: t.Cost / t.rate(), Reason: "backlog"}
	}

	// A cordoned node that has bled dry is removed no matter what the
	// queue looks like: it takes no placements, so every period it stays
	// in the pool is pure cost. Gating this on an empty queue would let
	// sub-threshold work trickle past a billing corpse indefinitely.
	for i := range a.tiers {
		t := &a.tiers[i]
		if t.drained() > 0 {
			return Decision{Tier: t.Name, Delta: -1, Score: t.Cost, Reason: "reap"}
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
		for i := range a.tiers {
			t := &a.tiers[i]
			if len(t.draining) > 0 {
				return Decision{Tier: t.Name, Delta: -1, Score: t.Cost, Reason: "reap"}
			}
		}
		plan, ok := a.planFleet(demand / (1 - idleFrac))
		if ok {
			best := -1
			for i := range a.tiers {
				t := &a.tiers[i]
				if len(t.elastic) <= plan[i] {
					continue
				}
				if best < 0 || t.Cost > a.tiers[best].Cost {
					best = i
				}
			}
			if best >= 0 {
				t := &a.tiers[best]
				return Decision{Tier: t.Name, Delta: -1, Score: t.Cost, Reason: "idle"}
			}
		}
	}
	return Decision{Reason: "steady"}
}

// evaluateThreshold is the threshold rule — stateless, a pure function
// of the snapshot and the tier's node counts.
func (a *Autoscaler) evaluateThreshold(sig Signals) Decision {
	t := &a.tiers[0]
	n := len(t.elastic)
	grow := Decision{Tier: t.Name, Delta: +1, Reason: "backlog"}
	// Ready work while a node is mid-drain: grow by reclaiming it. The
	// node is already counted against Max, so this must not be gated on
	// n < Max — otherwise a drained pool wedges under load.
	if sig.Ready > 0 && len(t.draining) > 0 {
		grow.Reason = "reclaim"
		return grow
	}
	if sig.TotalCores == 0 {
		if sig.Ready > 0 && n < t.Max {
			return grow
		}
		return Decision{Reason: "steady"}
	}
	if float64(sig.Ready) > a.growPerCore*float64(sig.TotalCores) && n < t.Max {
		return grow
	}
	if sig.Ready == 0 && n > 0 && sig.FreeCores > a.idleCores {
		return Decision{Tier: t.Name, Delta: -1, Reason: "idle"}
	}
	return Decision{Reason: "steady"}
}

// refCores is the pool's service capacity in reference cores: the
// elastic fleet at its known tier rates, plus whatever non-elastic base
// cores the pool holds, counted at SpeedFactor 1 (their shapes aren't
// known here).
func (a *Autoscaler) refCores(sig Signals) float64 {
	elastic, phys := 0.0, 0
	for i := range a.tiers {
		t := &a.tiers[i]
		n := len(t.elastic)
		elastic += float64(n) * t.rate()
		phys += n * t.Desc.Cores
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
	for i := range a.tiers {
		t := &a.tiers[i]
		n := len(t.elastic)
		elastic += float64(n) * t.rate()
		phys += n * t.Desc.Cores
	}
	draining := 0
	for i := range a.tiers {
		draining += len(a.tiers[i].draining)
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

// planFleet returns the per-tier node counts (tier order) of the
// cheapest mixed fleet whose combined reference rate covers need,
// respecting each tier's Max. Exact enumeration — tier counts are
// small — trying slow tiers first, so on EQUAL cost the plan prefers
// more, smaller nodes: same price now, finer shed granularity when
// demand recedes. Strictly cheaper big-node plans still win, so
// consolidation happens where it actually saves money. Granularity is
// the point of planning at the fleet level: a trickle is cheapest on
// one small device even when a big tier's per-core price is lower, a
// heavy baseline flips the answer, and mid-range demand often wants a
// mix. ok is false when no fleet within the Max bounds covers
// need.
func (a *Autoscaler) planFleet(need float64) (plan []int, ok bool) {
	order := make([]int, len(a.tiers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return a.tiers[order[x]].rate() < a.tiers[order[y]].rate()
	})
	best := make([]int, len(a.tiers))
	bestCost := math.Inf(1)
	cur := make([]int, len(a.tiers))
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
		t := &a.tiers[order[oi]]
		max := int(math.Ceil(remaining / t.rate()))
		if max > t.Max {
			max = t.Max
		}
		if max > 64 {
			max = 64 // bound the search; a plan this size saturates anyway
		}
		for n := max; n >= 0; n-- {
			cur[order[oi]] = n
			rec(oi+1, remaining-float64(n)*t.rate(), cost+float64(n)*t.Cost)
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

// Step evaluates one snapshot and executes the decision on the chosen
// tier: grow reclaims a draining node when there is one and provisions
// a fresh node otherwise, shrink advances the drain-then-remove cycle.
// The decision is recorded either way. The caller owns backend
// bookkeeping (trace events, provisioning-delay holds, node-second
// accounting) off the returned Action.
func (a *Autoscaler) Step(pool *resources.Pool, sig Signals) Action {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.decide(sig)
	act := Action{Decision: d, Kind: Held}
	if t := a.named(d.Tier); t != nil {
		switch {
		case d.Delta > 0:
			if n := t.reclaim(); n != nil {
				act.Kind, act.Node = Reclaimed, n
				break
			}
			if n, err := a.grow(pool, t); err == nil {
				act.Kind, act.Node, act.Delay = Grew, n, t.Delay
			}
		case d.Delta < 0:
			if n, err := a.shrink(pool, t); err == nil {
				if n != nil {
					act.Kind, act.Node = Removed, n
				} else {
					act.Kind = Draining
				}
			}
		}
	}
	a.decisions = append(a.decisions, d)
	kind := "hold"
	switch {
	case act.Kind == Reclaimed:
		kind = "reclaim"
	case d.Delta > 0:
		kind = "grow"
	case d.Delta < 0:
		kind = "shrink"
	}
	a.kinds[kind]++
	return act
}

// named returns the tier called name, nil for a hold's empty name (no
// tier has it: New refuses one).
func (a *Autoscaler) named(name string) *tier {
	for i := range a.tiers {
		if a.tiers[i].Name == name {
			return &a.tiers[i]
		}
	}
	return nil
}

// The tier mechanics below run with a.mu held.

// reclaim cancels one pending drain-then-remove cycle: the cordon is
// lifted and the node (lowest name first) serves placements again. It
// returns the reclaimed node, or nil when nothing is draining — the free
// way to grow while a shrink is still in flight.
func (t *tier) reclaim() *resources.Node {
	n := lowest(t.draining, false)
	if n != nil {
		delete(t.draining, n.Name())
		n.Undrain()
	}
	return n
}

// grow provisions a node of the tier's shape, named <tier>-<serial>,
// and adds it to the pool; it fails once the tier holds Max nodes.
func (a *Autoscaler) grow(pool *resources.Pool, t *tier) (*resources.Node, error) {
	if len(t.elastic) >= t.Max {
		return nil, fmt.Errorf("tier %s: %w (limit %d)", t.Name, resources.ErrInsufficient, t.Max)
	}
	t.serial++
	n := resources.NewNode(fmt.Sprintf("%s-%d", t.Name, t.serial), t.Desc)
	if a.predrain != nil {
		a.predrain(n)
	}
	if err := pool.Add(n); err != nil {
		return nil, err
	}
	t.elastic[n.Name()] = n
	return n, nil
}

// shrink advances the drain-then-remove downscale cycle and returns the
// node it removed from the pool, if any. Every victim is cordoned (the
// cordon hook when one is installed, Node.Drain otherwise) before it
// leaves the pool, so running work always finishes:
//
//   - a node already draining that has bled dry is removed (lowest name
//     first);
//   - otherwise, with no drain in flight, one elastic node is cordoned —
//     idle nodes first, and an idle victim is removed in the same call
//     (its drain is complete by definition); a busy one returns nil now
//     and is reaped by a later call once its reservations release.
//
// At most one node drains at a time, so a burst of shrink decisions
// cannot cordon the whole pool before the first removal lands.
func (a *Autoscaler) shrink(pool *resources.Pool, t *tier) (*resources.Node, error) {
	if victim := lowest(t.draining, true); victim != nil {
		return victim, t.remove(pool, victim)
	}
	if len(t.draining) > 0 {
		return nil, nil // the in-flight drain is still bleeding
	}
	victim := lowest(t.elastic, true)
	wasIdle := victim != nil
	if !wasIdle {
		victim = lowest(t.elastic, false)
	}
	if victim == nil {
		return nil, nil
	}
	t.draining[victim.Name()] = victim
	if a.cordon == nil || a.cordon(victim.Name()) != nil {
		victim.Drain() // no hook, or the hook could not see the node
	}
	if !wasIdle || victim.Running() > 0 {
		// Busy victim — or a placement slipped in between the idle check
		// and the cordon: the drain holds, removal waits for the work to
		// finish (a later call reaps it).
		return nil, nil
	}
	return victim, t.remove(pool, victim)
}

// remove takes a fully drained victim off the tier's books and out of
// the pool.
func (t *tier) remove(pool *resources.Pool, victim *resources.Node) error {
	delete(t.draining, victim.Name())
	delete(t.elastic, victim.Name())
	return pool.Remove(victim.Name())
}
