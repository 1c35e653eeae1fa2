// Checkpoint support — the engine-level half of the durability story.
// Lineage recovery (faults.go) survives losing a *node*; surviving the
// loss of the whole *process* needs the in-memory DAG state persisted
// outside it. The engine exposes three primitives for that:
// SnapshotTasks dumps every task's lifecycle state under one lock
// acquisition; the checkpoint log (StartLog, SwapLog) holds the record
// each change leaves, so a delta costs what changed; and
// RestoreCompleted replays a completion recorded by an earlier
// incarnation onto a freshly re-registered task so only unfinished work
// re-runs. The on-disk format, the policies deciding
// when to snapshot, and the backend wiring live in
// internal/engine/checkpoint.
package engine

import (
	"slices"
	"time"

	"repro/internal/deps"
)

// TaskSnap is one task's checkpoint-relevant state, captured by
// SnapshotTasks and logged by every change: the one task record of a
// checkpoint, from a capture or the log to a frame, a fold and a restore
// (internal/engine/checkpoint).
type TaskSnap struct {
	// ID is the task's graph-unique ID.
	ID int64
	// State is the lifecycle state at capture time.
	State State
	// Epoch is the placement counter (restored so completion events from
	// a previous incarnation can never be mistaken for live ones).
	Epoch int
	// Completed reports whether the task has completed at least once (a
	// Done task mid-lineage-re-run is Running with Completed true).
	Completed bool
	// OutputKeys is the task's own immutable list of the data versions it
	// produces, not a copy. Engines without a replica registry drop the
	// keys of done tasks, so checkpointing wants Config.Registry set.
	OutputKeys []deps.Version
}

// Restorable reports whether a restore resolves the task instead of
// running it: it has completed and is not mid-re-run. Only such a record
// keeps its epoch and outputs in a checkpoint base file.
func (t TaskSnap) Restorable() bool { return t.Completed && t.State == Done }

// SnapshotTasks returns every registered task's lifecycle state, in
// registration order, under a single lock acquisition — the raw material
// of a checkpoint snapshot.
func (e *Engine) SnapshotTasks() []TaskSnap {
	e.mu.Lock()
	defer e.unlock()
	return e.snapshotLocked()
}

func (e *Engine) snapshotLocked() []TaskSnap {
	out := make([]TaskSnap, 0, len(e.tasks.all))
	for _, t := range e.tasks.all {
		out = append(out, snapLocked(t))
	}
	return out
}

// snapLocked builds one task's checkpoint record.
func snapLocked(t *Task) TaskSnap {
	return TaskSnap{
		ID: t.ID, State: t.state,
		Epoch: int(t.epoch), Completed: t.completed,
		OutputKeys: t.OutputKeys,
	}
}

// StartLog is SnapshotTasks for a base capture: under the same lock it
// (re)opens the checkpoint log empty, so the base and the records logged
// after it hold every change. Plain SnapshotTasks leaves the log alone,
// so parity probes and tests capture at will.
func (e *Engine) StartLog() []TaskSnap {
	e.mu.Lock()
	defer e.unlock()
	e.log = make([]TaskSnap, 0, len(e.log))
	return e.snapshotLocked()
}

// SwapLog hands over the records logged since the last StartLog or
// SwapLog, in append order — a task's last one is its state now — and
// goes on logging into spare's array, emptied (nil starts a new one).
// Before StartLog it returns nil.
func (e *Engine) SwapLog(spare []TaskSnap) []TaskSnap {
	e.mu.Lock()
	defer e.unlock()
	out := e.log
	if out != nil {
		if cap(spare) < max(len(out), 1) { // room for a group like the last; never nil
			spare = make([]TaskSnap, 0, max(len(out), 1))
		}
		e.log = spare[:0]
	}
	return out
}

// Now returns the engine clock's current offset from the run's epoch —
// the timestamp a checkpoint snapshot carries.
func (e *Engine) Now() time.Duration { return e.cfg.Clock.Now() }

// RestoreCompleted marks a registered, not-yet-running task as already
// completed — the restore half of checkpointing, called after the same
// workflow has been re-registered in a fresh process. The task leaves
// the ready queue if it was queued, its dependents are released exactly
// as a live completion would release them, and its placement epoch is
// fast-forwarded to at least the recorded one so stale completion events
// from the previous incarnation stay invalid. Output replicas are NOT
// re-registered here: the caller seeds the location registry from the
// snapshot's data catalog (and the ordinary transfer planner re-stages
// anything a dependent later misses). It reports false — and changes
// nothing — for unknown, Running or already-completed tasks.
func (e *Engine) RestoreCompleted(id int64, epoch int) bool {
	e.mu.Lock()
	defer e.unlock()
	t := e.tasks.get(id)
	if t == nil || t.state == Running || t.completed {
		return false
	}
	if t.state == Ready {
		b := e.ready[t.sig]
		i := slices.Index(b.q, t)
		b.q = slices.Delete(b.q, i, i+1)
		e.readyN.Add(-1)
	}
	if t.state == Parked {
		e.unparkLocked(t) // a restored completion needs no inputs at all
	}
	if epoch > int(t.epoch) {
		t.epoch = int32(epoch)
	}
	t.holds = 0 // nothing left to gate: a late ReleaseHold must not clear a recovery wait
	e.stats.Restored++
	e.doneLocked(t)
	return true
}
