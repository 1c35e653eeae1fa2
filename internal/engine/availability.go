// Data availability — the placement-time half of the partition story.
// Fault injection (faults.go) models the moment a link is cut; this file
// decides what the scheduler does with a task whose inputs sit on the far
// side of that cut. At placement time every input of a candidate task is
// classified against the policy-chosen primary node:
//
//   - reachable: a replica is local or fetchable (transfer.Plan.Moves);
//   - partitioned: replicas exist, but every one is behind a cut link
//     (transfer.Plan.UnreachableKeys) — nothing is lost, nothing is
//     obtainable until a heal;
//   - lost: no replica anywhere (transfer.Plan.MissingKeys) — only a
//     producer re-execution can bring the data back.
//
// Config.Availability selects the response to a partitioned or lost
// input. AvailRunAnyway launches regardless (the pre-availability
// behaviour, now observable through trace.DataUnavailable and
// Stats.RanMissing). AvailDefer parks the task in a per-datum wait set
// until a Heal or a fresh replica of the awaited version wakes it.
// AvailRecompute parks the task too, but additionally resubmits the
// producers of the unavailable versions through the ordinary lineage
// path — pinned, via an internal placement hint, to nodes that can reach
// the stranded consumer's side of the partition, so the recompute lands
// where its output is consumable rather than behind the same cut.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/deps"
	"repro/internal/resources"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Availability selects how the engine places a task when every replica of
// one of its inputs is lost or partitioned away. The zero value is
// AvailRunAnyway.
type Availability int

// Availability policies.
const (
	// AvailRunAnyway launches the task without the unavailable inputs —
	// the historical behaviour. Each such launch is recorded as a
	// trace.DataUnavailable event ("missing, run anyway") and counted in
	// Stats.RanMissing, so silent no-data executions are at least
	// observable. Backends that keep values out-of-band (the live
	// runtime's in-process value table) still compute correct results;
	// the modelled transfer books simply under-report the moves.
	AvailRunAnyway Availability = iota
	// AvailDefer parks the task in a per-datum wait set instead of
	// launching it. The task wakes — and is re-classified from scratch —
	// when a partition heals, when a replica of an awaited version is
	// registered, or when a node failure forces a sweep. Under a
	// heal-bounded partition this trades latency for zero wasted
	// executions and zero recomputes. Inputs that are lost outright (no
	// replica anywhere) have no heal to wait for, so their producers are
	// resubmitted through the ordinary lineage path even under defer —
	// defer chooses to wait out partitions, never to dead-wait lost data.
	AvailDefer Availability = iota
	// AvailRecompute parks the task and resubmits the producers of its
	// unavailable versions through the lineage-recovery path, hinted to
	// run on nodes that can reach the parked task's side of the cut. The
	// fresh replica wakes the task; the partition is never waited out.
	// Unavailable versions with no registered producer (external stage-in
	// data) cannot be recomputed and fall back to AvailDefer parking.
	AvailRecompute Availability = iota
)

// String returns the policy name, matching ParseAvailability's grammar.
func (a Availability) String() string {
	switch a {
	case AvailRunAnyway:
		return "run-anyway"
	case AvailDefer:
		return "defer"
	case AvailRecompute:
		return "recompute"
	default:
		return fmt.Sprintf("Availability(%d)", int(a))
	}
}

// ParseAvailability reads a policy name: "run-anyway" (or ""), "defer",
// or "recompute" — the grammar of flowgo-sim's -availability flag.
func ParseAvailability(s string) (Availability, error) {
	switch s {
	case "", "run-anyway":
		return AvailRunAnyway, nil
	case "defer":
		return AvailDefer, nil
	case "recompute":
		return AvailRecompute, nil
	default:
		return AvailRunAnyway, fmt.Errorf("engine: unknown availability policy %q (want run-anyway | defer | recompute)", s)
	}
}

// ParkedCount returns the number of tasks currently parked in the
// availability wait set — work that exists but cannot be fed until a
// partition heals or a replica reappears.
func (e *Engine) ParkedCount() int {
	e.mu.Lock()
	defer e.unlock()
	return e.parked
}

// RevalidateAvailability wakes every task parked in the availability
// wait set and runs a placement wave. Call it after adding capacity the
// engine cannot observe on its own — pool growth, an undrained node —
// since the new node may sit on the reachable side of a partition and
// carry the parked work. Heals, fresh replicas and node failures
// re-validate automatically; tasks whose data is still unobtainable
// simply re-park. Returns the number of tasks woken.
func (e *Engine) RevalidateAvailability() int {
	woken := e.wakeAllParked()
	e.Schedule()
	return woken
}

// actionableMissesLocked filters a fetch plan's shortfalls down to the
// ones an availability policy can do something about: every partitioned
// key (a heal or a recompute makes it obtainable), plus lost keys whose
// producer is registered (lineage can recreate them). Lost keys with no
// producer are external data the run never staged — unobtainable under
// any policy — and keep the historical run-anyway semantics.
func (e *Engine) actionableMissesLocked(plan transfer.Plan) []deps.Version {
	if len(plan.MissingKeys) == 0 {
		return plan.UnreachableKeys
	}
	out := plan.UnreachableKeys
	for _, k := range plan.MissingKeys {
		if _, ok := e.producerLocked(k); ok {
			out = append(out, k)
		}
	}
	return out
}

// feedablePickLocked re-runs the placement choice over the fitting nodes
// that can actually obtain every input (no actionable miss), excluding
// the already-tried primary. Policies pick against the task's data, not
// its reachability, so under a partition their first choice may be a
// node the data cannot reach while a perfectly feedable sibling sits
// idle — without this re-offer, defer would park such a task until a
// heal that may never come. Returns false when no fitting node can be
// fed or the policy declines the feedable subset (the availability
// policy then takes over).
func (e *Engine) feedablePickLocked(t *Task, fitting []*resources.Node, tried *resources.Node) (*resources.Node, transfer.Plan, bool) {
	feedable := resources.ListCandidates(fitting).Filter(func(n *resources.Node) bool {
		return n != tried && len(e.actionableMissesLocked(e.mgr.PlanFetch(n.Name(), t.InputKeys))) == 0
	})
	if len(feedable.Nodes()) == 0 {
		return nil, transfer.Plan{}, false
	}
	primary := e.cfg.Policy.Choose(e.viewLocked(t), feedable, e.cfg.SchedContext)
	if primary == nil {
		return nil, transfer.Plan{}, false
	}
	return primary, e.mgr.PlanFetch(primary.Name(), t.InputKeys), true
}

// feedableCapableLocked reports whether any node that could ever run t
// (capability, ignoring current load) can obtain all of its inputs.
// When true, an unavailable-looking placement is really a capacity wait:
// the data sits on (or is reachable from) a node that is merely busy
// right now, and the ordinary completion-wave retry will get there —
// parking would hang instead, because capacity release is not an
// availability wake source. The recompute hint is honoured so a hinted
// producer is never held queued for capacity on the wrong side of a cut.
func (e *Engine) feedableCapableLocked(t *Task) bool {
	capable := e.ready[t.sig].idx.AppendCapable(e.capScratch[:0])
	e.capScratch = capable
	for _, n := range capable {
		if need := t.availNeed(); need != "" && e.cfg.Net != nil && !e.cfg.Net.Reachable(n.Name(), need) {
			continue
		}
		if len(e.actionableMissesLocked(e.mgr.PlanFetch(n.Name(), t.InputKeys))) == 0 {
			return true
		}
	}
	return false
}

// divertUnavailableLocked applies the availability policy to a task whose
// placement attempt found unavailable inputs (recorded by placeLocked in
// e.availMissing, with the policy's chosen primary in e.availPrimary).
// The caller has already removed t from its ready bucket. Under
// AvailRecompute, producers of the unavailable versions are resubmitted
// with a placement hint binding them to nodes that can reach the chosen
// primary — "recompute locally", on the consumer's side of the cut.
func (e *Engine) divertUnavailableLocked(t *Task) {
	keys := append([]deps.Version(nil), e.availMissing...)
	primary := e.availPrimary
	t.state = Parked
	e.logLocked(t)
	t.coldRec().availKeys = keys
	if e.waiters == nil {
		e.waiters = make(map[deps.Version]map[*Task]struct{})
	}
	for _, k := range keys {
		set, ok := e.waiters[k]
		if !ok {
			set = make(map[*Task]struct{})
			e.waiters[k] = set
		}
		set[t] = struct{}{}
	}
	e.parked++
	e.stats.Deferred++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.TaskParked, Task: t.ID,
			Node: primary, Info: fmt.Sprintf("%d unavailable inputs (%s)", len(keys), e.cfg.Availability),
		})
	}
	for _, k := range keys {
		pt, ok := e.producerLocked(k)
		if !ok {
			continue // external data: nothing to recompute, wait for a heal
		}
		// Partitioned data (replicas exist, all behind cuts) is waited
		// out under defer and recomputed locally under recompute. Lost
		// data (no replica anywhere) has no wake source but a fresh
		// replica, so its producer is resubmitted through the ordinary
		// lineage path under BOTH policies — parking on it would stall
		// forever; this is crash recovery, not partition policy.
		lost := len(e.cfg.Registry.Where(k)) == 0
		if !lost && e.cfg.Availability != AvailRecompute {
			continue
		}
		if pt.state == Ready || pt.state == Running ||
			(pt.state == Pending && pt.waitCount > 0) {
			continue // already on its way; its completion wakes us
		}
		if !lost {
			// "Recompute locally": only a partitioned re-run needs the
			// reachability hint — a lost version's re-run can go anywhere,
			// like any lineage recovery.
			pt.coldRec().availNeed = primary
			e.stats.AvailRecomputes++
		}
		e.resubmitLocked(pt)
	}
}

// unparkLocked removes a Parked t from the wait sets without re-queueing
// it (the caller decides where it goes next, and sets its state).
func (e *Engine) unparkLocked(t *Task) {
	for _, k := range t.cold.availKeys { // a Parked task has its cold record
		if set, ok := e.waiters[k]; ok {
			delete(set, t)
			if len(set) == 0 {
				delete(e.waiters, k)
			}
		}
	}
	t.cold.availKeys = nil
	e.parked--
}

// wakeLocked releases a parked task back to the ready queue, where the
// next placement wave re-classifies its inputs from scratch (a task woken
// optimistically simply parks again).
func (e *Engine) wakeLocked(t *Task) {
	e.unparkLocked(t)
	t.state = Ready
	e.pushReadyLocked(t)
	e.stats.Woken++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: trace.TaskWoken, Task: t.ID})
	}
}

// wakeKeyWaitersLocked wakes every task parked on the given data version —
// called when a replica of it is (re)created — and returns how many.
func (e *Engine) wakeKeyWaitersLocked(k deps.Version) int {
	set, ok := e.waiters[k]
	if !ok {
		return 0
	}
	ts := make([]*Task, 0, len(set))
	for t := range set {
		ts = append(ts, t)
	}
	// Ascending IDs keep wake order deterministic across backends.
	slices.SortFunc(ts, func(a, b *Task) int { return cmp.Compare(a.ID, b.ID) })
	for _, t := range ts {
		e.wakeLocked(t)
	}
	return len(ts)
}

// wakeReachable wakes tasks parked on versions that have become
// obtainable again: some pool node can now reach a replica. Called after
// a Heal; waking is optimistic (the placement wave re-classifies against
// the actual chosen primary), but keys that are still fully cut off stay
// parked, so a partial heal does not churn the whole wait set. Returns
// how many tasks were woken.
func (e *Engine) wakeReachable() int {
	e.mu.Lock()
	defer e.unlock()
	if len(e.waiters) == 0 || e.cfg.Registry == nil || e.cfg.Net == nil {
		return 0
	}
	nodes := e.cfg.Pool.Nodes()
	keys := make([]deps.Version, 0, len(e.waiters))
	for k := range e.waiters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	before := e.stats.Woken
	for _, k := range keys {
		sources := e.cfg.Registry.Where(k)
		if len(sources) == 0 {
			continue // lost, not partitioned: only a replica can wake these
		}
		isSource := make(map[string]bool, len(sources))
		for _, s := range sources {
			isSource[s] = true
		}
		// A replica holder trivially reaches itself, which proves nothing
		// for the waiter — if a holder could run the task, the feedable
		// re-pick would have placed it there instead of parking. The heal
		// matters only when the data can now MOVE: some non-holder pool
		// node reaches a source.
		for _, n := range nodes {
			if isSource[n.Name()] {
				continue
			}
			if e.cfg.Net.ReachableAny(n.Name(), sources) {
				e.wakeKeyWaitersLocked(k)
				break
			}
		}
	}
	return e.stats.Woken - before
}

// wakeAllParked wakes every parked task, returning how many. Used when the
// reachability picture changed wholesale (a heal, a node failure): the
// placement wave, not this code, decides who can actually run now.
func (e *Engine) wakeAllParked() int {
	e.mu.Lock()
	defer e.unlock()
	woken := e.parked
	for _, t := range e.tasks.all {
		if e.parked == 0 {
			break
		}
		if t.state == Parked {
			e.wakeLocked(t)
		}
	}
	return woken
}
