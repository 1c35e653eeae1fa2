// Completion and recovery: a finished task releases its reservations,
// registers its outputs and releases its successors; a node failure kills
// the tasks it ran and resubmits them, and the producers of any version
// that lost every replica, through the lineage path.
package engine

import (
	"slices"

	"repro/internal/deps"
	"repro/internal/resources"
	"repro/internal/trace"
)

// Complete finishes a running task: reservations are released, outputs
// are registered on the primary node (and the persistence tier), and — in
// one lock acquisition — every successor is released, with the newly
// ready ones pushed into their buckets. Stale completions (epoch mismatch
// after a failure) report ok = false and have no effect. failed marks the
// execution as errored: outputs are not registered and the trace records
// TaskFailed. The caller should Schedule afterwards.
func (e *Engine) Complete(id int64, epoch int, failed bool) (Completion, bool) {
	e.mu.Lock()
	defer e.unlock()
	return e.completeLocked(e.tasks.get(id), epoch, failed)
}

// CompleteSchedule is Complete immediately followed by a placement wave,
// sharing one lock acquisition — the completion fast path for backends
// that do not coalesce waves.
func (e *Engine) CompleteSchedule(id int64, epoch int, failed bool) (Completion, bool) {
	e.launchMu.Lock()
	e.mu.Lock()
	c, ok := e.completeLocked(e.tasks.get(id), epoch, failed)
	e.launch = e.placeWaveLocked(e.launch[:0])
	e.unlock()
	for _, p := range e.launch {
		e.cfg.Executor.Launch(p)
	}
	e.launchMu.Unlock()
	return c, ok
}

func (e *Engine) completeLocked(t *Task, epoch int, failed bool) (Completion, bool) {
	if t == nil || t.state != Running || int(t.epoch) != epoch {
		return Completion{}, false
	}
	c := Completion{Task: t, Ran: e.cfg.Clock.Now() - t.started}
	// A completion can race a concurrent FailNode on the live backend: a
	// member that left the pool meanwhile is neither released nor reported.
	primary := t.node.Name()
	if e.cfg.Pool.Release(t.node, *t.cons()) {
		c.Node = t.node
	}
	for _, n := range t.peers() {
		if e.cfg.Pool.Release(n, *t.cons()) {
			c.Peers = append(c.Peers, n)
		}
	}
	if !failed && e.cfg.Registry != nil {
		// If the primary left the pool, its replicas were already dropped
		// and must not be re-registered on the dead node — the output
		// survives only on the persist tier.
		for _, k := range t.OutputKeys {
			if c.Node != nil {
				e.cfg.Registry.AddReplica(k, primary)
			}
			if e.cfg.PersistNode != "" && e.cfg.PersistNode != primary {
				e.cfg.Registry.AddReplica(k, e.cfg.PersistNode)
				if e.cfg.Tracer != nil {
					e.cfg.Tracer.Record(trace.Event{
						At: e.cfg.Clock.Now(), Kind: trace.DataPersisted, Task: t.ID, Node: e.cfg.PersistNode,
					})
				}
			}
			// A fresh replica may be exactly what a parked task is waiting
			// for (the availability-recompute hand-off): wake its waiters
			// and let the next wave re-classify.
			if len(e.parked) > 0 {
				e.wakeKeyLocked(k)
			}
		}
	}
	if e.cfg.Tracer != nil {
		kind := trace.TaskCompleted
		if failed {
			kind = trace.TaskFailed
		}
		e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: kind, Task: t.ID, Node: primary})
	}
	e.stats.Completed++
	if failed {
		e.failed++
	}

	if t.doneAt < 0 {
		t.doneAt = e.cfg.Clock.Now()
	}
	t.node = nil
	if c.First = e.doneLocked(t); !c.First {
		e.stats.Reexecuted++
	}
	if cold := t.cold; cold != nil {
		cold.peers = nil
		cold.availNeed = "" // a recompute hint is spent once the producer completes
		// Wake tasks waiting on this re-execution (recovery).
		for dt := range cold.redeps {
			e.edgeClearedLocked(dt)
		}
		cold.redeps = nil
	}
	return c, true
}

// doneLocked marks t Done — by a live completion or a restored one — and
// reports whether it is t's first. A first completion releases every
// successor under this single lock acquisition; the edge list is consumed
// (releases happen once), so it is dropped to keep long-lived graphs lean.
func (e *Engine) doneLocked(t *Task) (first bool) {
	first = !t.completed
	t.completed, t.state = true, Done
	e.logLocked(t)
	if first {
		for _, dt := range t.dependents {
			e.edgeClearedLocked(dt)
		}
		t.dependents = nil
	}
	if e.cfg.Registry == nil {
		// Without a replica registry there is no recovery resubmission,
		// so a done task's access keys are dead weight.
		t.InputKeys, t.OutputKeys = nil, nil
	}
	return first
}

// killRunningOn invalidates every running task that reserved the named
// node (which the caller has already removed from the pool): reservations
// on surviving group members are released, the pending completion event
// is invalidated through the epoch, and the task returns to Pending with
// no waits — ready for resubmit. The killed tasks are returned in
// registration order.
func (e *Engine) killRunningOn(name string) []*Task {
	e.mu.Lock()
	defer e.unlock()
	var killed []*Task
	for _, t := range e.tasks.all {
		if t.state != Running {
			continue
		}
		named := func(n *resources.Node) bool { return n.Name() == name }
		if !named(t.node) && !slices.ContainsFunc(t.peers(), named) {
			continue
		}
		for _, n := range t.peers() {
			if !named(n) {
				e.cfg.Pool.Release(n, *t.cons())
			}
		}
		if !named(t.node) {
			e.cfg.Pool.Release(t.node, *t.cons())
		}
		if t.node = nil; t.cold != nil {
			t.cold.peers = nil
		}
		t.state = Pending
		t.waitCount = 0
		t.epoch++ // invalidate the in-flight completion event
		e.logLocked(t)
		killed = append(killed, t)
	}
	return killed
}

// dropReadyMissingInputs removes from the buckets every ready task that
// has an input version with no replica left but a known producer (data
// lost to a node failure), returning them reset to Pending so the caller
// can resubmit each. Tasks whose missing inputs have no producer are left
// queued: the data was external and nothing can recompute it.
func (e *Engine) dropReadyMissingInputs() []*Task {
	e.mu.Lock()
	defer e.unlock()
	if e.cfg.Registry == nil {
		return nil
	}
	var dropped []*Task
	for _, b := range e.sigs {
		still := b.q[:0]
		for _, t := range b.q {
			if e.missingProducerLocked(t) {
				t.state = Pending
				t.waitCount = 0
				e.readyN.Add(-1)
				e.logLocked(t)
				dropped = append(dropped, t)
				continue
			}
			still = append(still, t)
		}
		b.q = still
	}
	return dropped
}

// missingProducerLocked reports whether t reads a version that lost every
// replica and has a registered producer to recompute it.
func (e *Engine) missingProducerLocked(t *Task) bool {
	for _, k := range t.InputKeys {
		if len(e.cfg.Registry.Where(k)) > 0 {
			continue
		}
		if _, ok := e.producerLocked(k); ok {
			return true
		}
	}
	return false
}

// resubmit queues a task for (re-)execution, recursively resubmitting the
// producers of any input versions that lost every replica — the recompute-
// lineage recovery path. Tasks that are already queued or running are left
// alone. The caller should Schedule afterwards.
func (e *Engine) resubmit(id int64) {
	e.mu.Lock()
	defer e.unlock()
	if t := e.tasks.get(id); t != nil {
		e.resubmitLocked(t)
	}
}

func (e *Engine) resubmitLocked(t *Task) {
	switch t.state {
	case Ready, Running:
		return
	case Pending:
		if t.waitCount > 0 {
			return // already mid-resubmission (or waiting on live deps)
		}
	case Parked:
		// A parked task re-entering the lineage path leaves the parked
		// list; its unreachable inputs are re-classified
		// below (lost ones recompute, partitioned ones re-park at
		// placement).
		e.unparkLocked(t)
		fallthrough
	case Done:
		t.state = Pending
		t.waitCount = 0
		e.logLocked(t)
	}
	for _, k := range t.InputKeys {
		if e.cfg.Registry == nil || len(e.cfg.Registry.Where(k)) > 0 {
			continue
		}
		pt, ok := e.producerLocked(k)
		if !ok {
			continue // external data lost for good; nothing to recompute
		}
		cold := pt.coldRec()
		if _, dup := cold.redeps[t]; !dup {
			if cold.redeps == nil {
				cold.redeps = make(map[*Task]struct{})
			}
			cold.redeps[t] = struct{}{}
			t.waitCount++
		}
		e.resubmitLocked(pt)
	}
	if t.waitCount == 0 {
		t.state = Ready
		e.pushReadyLocked(t)
	}
}

// producerLocked returns the last-registered task writing k. Only the
// recovery and availability paths ask, so the index is built from the
// task table, in registration order, on their first query, and addLocked
// keeps it current from then on; a run in which no input ever lacks a
// replica never builds it. Every asker has a registry, so no task's keys
// have been dropped.
func (e *Engine) producerLocked(k deps.Version) (*Task, bool) {
	if e.producer == nil {
		e.producer = make(map[deps.Version]*Task)
		for _, t := range e.tasks.all {
			for _, o := range t.OutputKeys {
				e.producer[o] = t
			}
		}
	}
	t, ok := e.producer[k]
	return t, ok
}
