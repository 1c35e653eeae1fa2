// Placement — one attempt to start one task now: the policy's choice
// over the fitting nodes, availability classification of its inputs,
// group reservation and input staging.
package engine

import (
	"time"

	"repro/internal/resources"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// placeOutcome distinguishes why a placement attempt failed: capacity
// failures are signature-wide (every sibling of the task fails too),
// policy declines are task-specific (a sibling may still be accepted —
// the distinction work stealing runs on).
type placeOutcome int

const (
	placeOK placeOutcome = iota
	placeNoCapacity
	placeDeclined
	// placeUnavailable reports that the chosen primary cannot obtain at
	// least one input (lost or partitioned) and the availability policy
	// is not run-anyway; the attempt's classification is left in
	// e.availMissing / e.availPrimary for divertUnavailableLocked.
	placeUnavailable
)

// placeLocked tries to start one task now: policy choice, availability
// classification, group reservation, input staging.
func (e *Engine) placeLocked(t *Task) (Placement, placeOutcome) {
	need := t.availNeed()
	hinted := need != "" && e.cfg.Net != nil
	capFail := placeNoCapacity
	if hinted {
		capFail = placeDeclined
	}
	c := t.cons()
	wantNodes := c.EffectiveNodes()

	// The policy chooses among the fitting nodes once, at this one site.
	// An unhinted single-node task's candidates are read through the
	// signature's index, and no list is built unless the policy asks for
	// one; a hinted task's and a group's are listed, because the hint
	// filters them and the group draws its peers from them.
	idx := e.ready[t.sig].idx // t is queued, so its bucket exists
	cands := idx.Candidates(*c, &e.fitScratch)
	var fitting []*resources.Node // the listed candidates; nil while read through the index
	if hinted || wantNodes > 1 {
		if hinted {
			// Availability-recompute hint: this is a producer resubmitted for
			// a consumer stranded behind a cut, so only nodes that can reach
			// the consumer's side produce a useful replica. A capacity
			// failure under the hint filter is task-specific — unhinted
			// siblings may still fit the excluded nodes — so it is reported
			// as a decline, not a signature-wide failure.
			cands = cands.Filter(func(n *resources.Node) bool { return e.cfg.Net.Reachable(n.Name(), need) })
		}
		fitting = cands.Nodes()
		if len(fitting) < wantNodes {
			return Placement{}, capFail
		}
		// A bufferless view: a policy that filters it builds its own list
		// and leaves fitting, which the peers and the re-offer read, alone.
		cands = resources.ListCandidates(fitting)
	} else if idx.FitCount() == 0 {
		return Placement{}, placeNoCapacity
	}
	primary := e.cfg.Policy.Choose(e.viewLocked(t), cands, e.cfg.SchedContext)
	if primary == nil {
		return Placement{}, placeDeclined
	}

	// Classify inputs against the chosen primary before reserving
	// anything: reachable inputs get a fetch plan; partitioned ones —
	// and lost ones with a registered producer — are handed to the
	// availability policy. A missing key with no producer is external
	// data the run never staged (or lost for good): no policy can bring
	// it back, so it keeps the historical run-anyway semantics and is
	// not counted as an actionable miss. Under run-anyway the launch
	// proceeds regardless — the recovery path covers lost data whose
	// producers are mid-resubmission, and partitioned data is simply
	// (observably) absent.
	var plan transfer.Plan
	if e.mgr != nil {
		plan = e.mgr.PlanInto(e.planScratch, primary.Name(), t.InputKeys) // the re-offer plans into its own
		e.planScratch = plan.Moves[:0]
		if actionable := e.actionableMissesLocked(plan); len(actionable) > 0 && e.cfg.Availability != AvailRunAnyway {
			// The chosen primary cannot be fed, but another fitting node
			// may well be — the replica's own node, or one on the right
			// side of the cut. Re-offer the choice over the feedable
			// subset before giving up on the task for this wave. A
			// placement read through the index lists its candidates only
			// in this (rare) branch.
			if fitting == nil {
				fitting = cands.Nodes()
			}
			if alt, altPlan, ok := e.feedablePickLocked(t, fitting, primary); ok {
				primary, plan = alt, altPlan
			} else if e.feedableCapableLocked(t) {
				// Some node that could ever run the task can be fed — the
				// shortfall is busy capacity (or a policy decline), not
				// the partition. Parking would be a trap: capacity
				// release is not an availability wake source, so leave
				// the task queued for the next completion wave instead.
				return Placement{}, placeDeclined
			} else {
				e.availMissing = append(e.availMissing[:0], actionable...)
				e.availPrimary = primary.Name()
				return Placement{}, placeUnavailable
			}
		}
	}

	// Only a multi-node group materializes peers; the common placement
	// reserves the primary and allocates nothing.
	var peers []*resources.Node
	for _, n := range fitting {
		if n != primary && len(peers) < wantNodes-1 {
			peers = append(peers, n)
		}
	}
	if len(peers) < wantNodes-1 {
		return Placement{}, capFail
	}
	if primary.Reserve(*c) != nil {
		return Placement{}, capFail
	}
	for i, n := range peers {
		if n.Reserve(*c) != nil {
			primary.Release(*c)
			for _, done := range peers[:i] {
				done.Release(*c)
			}
			return Placement{}, capFail
		}
	}

	// Stage the planned inputs onto the primary node.
	var staging time.Duration
	if e.mgr != nil {
		e.mgr.Apply(plan)
		// A staged copy may be the very replica a parked task waits for
		// (now fetchable from this side of a cut). Wakes are queued and
		// processed between waves: waking mid-steal would mutate the
		// bucket a scan is walking.
		for _, mv := range plan.Moves {
			if len(e.parked) > 0 && e.awaitedLocked(mv.Key) {
				e.pendingWakes = append(e.pendingWakes, mv.Key)
			}
		}
		staging = plan.Time
		e.stats.Transfers += len(plan.Moves)
		e.stats.BytesMoved += plan.Bytes
		e.stats.TransferTime += plan.Time
		if len(plan.Moves) > 0 {
			e.met.FetchSeconds.ObserveDuration(plan.Time)
		}
		if plan.Bytes > 0 && e.cfg.Tracer != nil {
			e.cfg.Tracer.Record(trace.Event{
				At: e.cfg.Clock.Now(), Kind: trace.DataTransfer, Task: t.ID,
				Node: primary.Name(), Arg: plan.Bytes,
			})
		}
		if actionable := e.actionableMissesLocked(plan); len(actionable) > 0 {
			e.stats.RanMissing++
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Record(trace.Event{
					At: e.cfg.Clock.Now(), Kind: trace.DataUnavailable, Task: t.ID,
					Node: primary.Name(), Arg: int64(len(actionable)),
				})
			}
		}
	}

	t.state = Running
	t.started = e.cfg.Clock.Now()
	if t.firstStart < 0 {
		t.firstStart = t.started
	}
	t.epoch++
	e.logLocked(t)
	if t.node = primary; len(peers) > 0 {
		t.coldRec().peers = peers
	}
	slow := 1.0
	if len(e.slow) > 0 {
		slow = max(slow, e.slow[primary.Name()])
		for _, n := range peers {
			slow = max(slow, e.slow[n.Name()]) // a group runs at its slowest member
		}
	}
	e.stats.Launched++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.TaskStarted, Task: t.ID,
			Node: primary.Name(), Info: t.Class,
		})
	}
	return Placement{Task: t, Node: primary, Peers: peers, Epoch: int(t.epoch), TransferTime: staging, SlowFactor: slow}, placeOK
}
