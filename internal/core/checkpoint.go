// Checkpoint/restore on the live backend. The simulator's snapshots
// carry a location catalog only; a live snapshot must additionally
// persist the concrete Go values completed tasks produced, or a resumed
// run would have nothing to seed futures and downstream materialisation
// with. Capture therefore runs the shared engine capture and then
// attaches a gob-encoded value to every catalog version the value table
// holds; restore decodes them back into the value table at construction
// time and, as the application re-submits the same workflow, resolves
// each submission recorded as completed instead of executing it.
// Resumability is cooperative: task IDs are assigned in submission
// order, so the application must re-register and re-submit the workflow
// in the order of the snapshotting run.
package core

import (
	"fmt"

	"repro/internal/engine/checkpoint"
	"repro/internal/trace"
)

// restoreState is the decoded snapshot a resuming runtime consumes.
type restoreState struct {
	completed map[int64]checkpoint.TaskRecord
}

// applyRestoreSeed decodes the snapshot into the fresh runtime
// placement-aware: catalog values re-enter the value table, and — when a
// location registry is configured — sizes and surviving replica
// locations re-enter the catalog, so the transfer planner re-stages
// anything a dependent later misses. A version whose every recorded
// location has left the pool (the pool shrank or changed between
// incarnations) but whose value survived in the snapshot — the live
// backend's persist tier — is re-staged onto the first live node instead
// of being dropped, so dependent placements see a reachable replica
// rather than classifying the input as lost. Called from New, before the
// runtime is visible to anyone.
func (rt *Runtime) applyRestoreSeed(snap *checkpoint.Snapshot) {
	if snap.Format != checkpoint.Format {
		// Silently resuming cold would recompute a whole campaign without
		// a word; this is a programming error (Store.Load already rejects
		// unknown formats), so fail loudly like the simulator's ErrConfig.
		panic(fmt.Sprintf("core: restore snapshot format %d, want %d", snap.Format, checkpoint.Format))
	}
	rs := &restoreState{completed: make(map[int64]checkpoint.TaskRecord, len(snap.Completed))}
	for _, rec := range snap.Completed {
		rs.completed[rec.ID] = rec
	}
	var restageNode string
	if nodes := rt.cfg.Pool.Nodes(); len(nodes) > 0 {
		restageNode = nodes[0].Name()
	}
	for _, en := range snap.Catalog {
		decoded := false
		if en.HasValue {
			if val, ok := checkpoint.DecodeValue(en.Value); ok {
				rt.values[en.Key] = versionSlot{val: val}
				decoded = true
			}
		}
		if rt.cfg.Locations == nil {
			continue
		}
		k := en.Key
		if en.Size > 0 {
			rt.cfg.Locations.SetSize(k, en.Size)
		}
		live := 0
		for _, loc := range en.Locations {
			if _, ok := rt.cfg.Pool.Get(loc); ok {
				rt.cfg.Locations.AddReplica(k, loc)
				live++
			}
		}
		if live == 0 && len(en.Locations) > 0 && decoded && restageNode != "" {
			rt.cfg.Locations.AddReplica(k, restageNode)
			rt.restaged++
			if rt.cfg.Tracer != nil {
				rt.cfg.Tracer.Record(trace.Event{
					Kind: trace.DataRestaged, Node: restageNode,
					Info: fmt.Sprintf("data %d v%d from snapshot value", k.Data, k.Ver),
				})
			}
		}
	}
	rt.restore = rs
}

// tryRestoreLocked resolves a just-submitted task from the restore
// snapshot: if the snapshot records it completed and every one of its
// written versions has a restored value, the task is marked done in the
// engine and its future completes immediately with those values — the
// task never executes. Any gap (not in the snapshot, a value that did
// not survive encoding, an error slot) leaves the task to run normally.
// Caller holds rt.mu; reports whether the task was restored.
func (rt *Runtime) tryRestoreLocked(t *rtTask) bool {
	if rt.restore == nil {
		return false
	}
	rec, ok := rt.restore.completed[t.et.ID]
	if !ok {
		return false
	}
	vals := make([]any, len(t.writes))
	for i, w := range t.writes {
		slot, present := rt.values[w]
		if !present || slot.err != nil {
			return false
		}
		vals[i] = slot.val
	}
	if !rt.eng.RestoreCompleted(t.et.ID, rec.Epoch) {
		return false
	}
	rt.restored++
	if rt.cfg.Tracer != nil {
		rt.cfg.Tracer.Record(trace.Event{
			At: rt.now(), Kind: trace.CheckpointRestored, Task: t.et.ID, Info: t.def.Name,
		})
	}
	t.future.complete(vals, nil)
	return true
}

// RestoredTasks reports how many submissions were resolved from the
// restore snapshot instead of executing.
func (rt *Runtime) RestoredTasks() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.restored
}

// RestagedReplicas reports how many data versions the restore seed
// re-staged onto a live node because every recorded replica location had
// left the pool (see applyRestoreSeed).
func (rt *Runtime) RestagedReplicas() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.restaged
}

// attachValues is the host's AttachValues hook: it adds a gob-encoded
// value to every captured catalog row the value table holds, so a chain
// reconstruction restores values exactly like a full snapshot would.
// Values that cannot be encoded (see checkpoint.RegisterType) are left
// out; their producers re-run on restore. A vanished-entry tombstone —
// zero size, no locations — stays value-free so reconstruction drops it.
func (rt *Runtime) attachValues(catalog []checkpoint.CatalogEntry) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range catalog {
		if catalog[i].Size == 0 && len(catalog[i].Locations) == 0 {
			continue
		}
		slot, ok := rt.values[catalog[i].Key]
		if !ok || slot.err != nil {
			continue
		}
		if b, encoded := checkpoint.EncodeValue(slot.val); encoded {
			catalog[i].Value = b
			catalog[i].HasValue = true
		}
	}
}
