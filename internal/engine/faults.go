// Fault injection — the engine-level half of the paper's resilience story
// (Sec. VI-B, experiment E7: part of the infrastructure disappears mid-run
// and the runtime recovers through persisted data and lineage
// re-execution). Fault handling lives here, not in the backends, so the
// live runtime and the virtual-time simulator share one failure/recovery
// semantics exactly as they share one scheduling semantics: a backend
// turns a fault into backend-specific cleanup (cancelling goroutines,
// invalidating clock events) through the epoch mechanism and leaves the
// kill/deregister/lineage-resubmit choreography to the engine.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/deps"
	"repro/internal/trace"
)

// Errors reported by fault injection.
var (
	// ErrUnknownNode is returned for faults targeting nodes the pool does
	// not hold (never added, or already failed/removed).
	ErrUnknownNode = errors.New("engine: unknown or already-removed node")
	// ErrNoNetwork is returned for partition faults when the engine has no
	// network model to cut.
	ErrNoNetwork = errors.New("engine: no network model configured")
	// ErrBadFactor is returned for slow-node factors ≤ 0.
	ErrBadFactor = errors.New("engine: slow-node factor must be > 0")
)

// FailReport summarises one node failure.
type FailReport struct {
	// Node is the failed node.
	Node string
	// Killed lists the running tasks whose executions were invalidated
	// (their placements' epochs no longer match; every one has been
	// resubmitted).
	Killed []*Task
	// LostKeys lists the data versions whose last replica died with the
	// node — the data lineage recovery recomputes.
	LostKeys []deps.Version
	// Resubmitted counts the recovery resubmissions triggered directly by
	// the failure: killed tasks plus ready tasks that lost an input.
	Resubmitted int
}

// FailNode injects a node crash: the node leaves the pool, its replicas
// are forgotten, every running task that reserved it is killed (epoch
// invalidated, surviving group reservations released) and resubmitted
// through the lineage recovery path, and ready tasks that lost an input
// replica are parked behind their recomputing producers. A placement wave
// runs before returning.
//
// onKill, when non-nil, is called once per killed task after its epoch is
// invalidated and before it is resubmitted — the live runtime cancels the
// task's in-flight goroutine here. It must not call back into the engine.
//
// Failing a node the pool does not hold returns ErrUnknownNode and has no
// effect, so scripted fault scenarios behave identically on every backend
// instead of silently diverging.
func (e *Engine) FailNode(name string, onKill func(*Task)) (FailReport, error) {
	// The removal is the check: of two crashes of one node racing here,
	// exactly one removes it, and only that one reports and recovers.
	if e.cfg.Pool.Remove(name) != nil {
		return FailReport{}, fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	rep := FailReport{Node: name}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: trace.NodeFailed, Node: name})
	}
	e.mu.Lock()
	delete(e.slow, name)
	e.unlock()

	// Data on the node is gone.
	if e.cfg.Registry != nil {
		rep.LostKeys = e.cfg.Registry.DropNode(name)
	}

	// Kill running tasks that used the node and recover through lineage.
	rep.Killed = e.killRunningOn(name)
	for _, t := range rep.Killed {
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: trace.TaskFailed, Task: t.ID, Node: name})
		}
		if onKill != nil {
			onKill(t)
		}
	}
	for _, t := range rep.Killed {
		e.resubmit(t.ID)
		rep.Resubmitted++
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: trace.TaskRecovered, Task: t.ID})
		}
	}

	// Parked tasks may have been waiting on data that just died with the
	// node: wake every parked task so the sweep below (and
	// the closing placement wave) re-classifies everything — lost inputs
	// with a producer recompute through lineage, still-partitioned ones
	// simply park again.
	e.wakeAllParked()

	// Ready tasks may have lost an input with the node; recompute their
	// producers before they run.
	for _, t := range e.dropReadyMissingInputs() {
		e.resubmit(t.ID)
		rep.Resubmitted++
	}
	e.Schedule()
	return rep, nil
}

// SlowNode injects a slow node: placements whose group includes the node
// carry a duration multiplier ≥ 1 in Placement.SlowFactor from now on (the
// straggler of experiment E7's "no longer in the fog area" degradation).
// The simulator stretches modelled compute times by it; the live runtime
// cannot stretch real execution but records the placements as degraded. A
// factor of 1 clears the slowdown.
func (e *Engine) SlowNode(name string, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("%w: %g", ErrBadFactor, factor)
	}
	if _, ok := e.cfg.Pool.Get(name); !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	e.mu.Lock()
	if factor == 1 {
		delete(e.slow, name)
	} else {
		if e.slow == nil {
			e.slow = make(map[string]float64)
		}
		e.slow[name] = factor
	}
	e.unlock()
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.NodeSlowed, Node: name,
			Info: fmt.Sprintf("x%g", factor),
		})
	}
	return nil
}

// DrainNode cordons a node: running tasks finish, but the placement loop
// stops reserving it — the graceful deregistration used when a resource is
// leaving the pool on purpose rather than crashing out of it.
func (e *Engine) DrainNode(name string) error {
	n, ok := e.cfg.Pool.Get(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	n.Drain()
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: trace.NodeDrained, Node: name})
	}
	return nil
}

// Partition injects a network partition: the link between the two
// endpoints (node or zone names) is cut in the network model, so input
// staging across it is impossible — affected fetches surface as missing
// replicas — until Heal restores it.
func (e *Engine) Partition(a, b string) error {
	if e.cfg.Net == nil {
		return ErrNoNetwork
	}
	e.cfg.Net.Cut(a, b)
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.LinkCut, Info: a + "~" + b,
		})
	}
	return nil
}

// Heal restores a link previously cut by Partition, then re-validates the
// availability picture: tasks parked on versions whose replicas are
// reachable again are woken and a placement wave runs, so mid-queue work
// re-plans its staging (Manager.PlanInto / simnet.BestSource now see
// the healed link) instead of waiting for the next completion.
func (e *Engine) Heal(a, b string) error {
	if e.cfg.Net == nil {
		return ErrNoNetwork
	}
	e.cfg.Net.Heal(a, b)
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.LinkHealed, Info: a + "~" + b,
		})
	}
	if e.wakeReachable() > 0 {
		e.Schedule()
	}
	return nil
}

// Current reports whether the (id, epoch) pair names the task's live
// placement: the task is Running and no failure has invalidated that
// placement since it launched. Live executors consult it before
// publishing side effects of a possibly-stale execution.
func (e *Engine) Current(id int64, epoch int) bool {
	e.mu.Lock()
	defer e.unlock()
	t := e.tasks.get(id)
	return t != nil && t.state == Running && int(t.epoch) == epoch
}
