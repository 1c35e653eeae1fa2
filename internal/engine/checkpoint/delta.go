// Delta snapshots — the O(changes) half of the checkpoint subsystem.
// A full Snapshot walks every task and every catalog row; on a
// million-task graph that is a million-record JSON encode per interval
// even when almost nothing moved since the last capture. A Delta records
// only what changed: the engine's dirty set (tasks whose lifecycle
// state, epoch or completed flag moved since the last capture), the
// tasks registered since then, and the catalog rows the registry marked
// dirty. Every record is an ABSOLUTE state replacement, not an edit —
// applying a delta means overwriting the task's (or key's) whole record
// — which buys two structural properties for free:
//
//   - applying any valid suffix of a chain is idempotent and
//     order-insensitive per record (last writer wins), so a capture
//     racing ordinary engine progress is linearisable: a change lands in
//     this delta or the next, never half in each;
//   - a mid-chain full snapshot is harmless — it subsumes the chain so
//     far and resets it.
//
// On disk a delta is delta-<seq>-<digest>.ckpt, chained to its parent
// file (base or previous delta) by ParentSeq over the store's single
// monotonic sequence. Store.Latest reconstructs the newest state by a
// forward pass: each valid base resets the merge, each valid delta whose
// ParentSeq matches the last-applied file extends it, and a corrupt or
// missing link freezes the reconstruction at the longest valid prefix —
// damage costs the tail of one chain, never the run. Compaction is the
// Checkpointer writing a fresh base every CompactEvery deltas, which
// both bounds reconstruction work and gives retention a safe pruning
// unit (whole chains; see Store.pruneLocked).
package checkpoint

import (
	"sort"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/transfer"
)

// DeltaTask is one task's absolute checkpoint record inside a delta:
// enough to re-classify the task into a snapshot's sections, replacing
// whatever an earlier element of the chain said about it.
type DeltaTask struct {
	// ID is the task's graph-unique ID.
	ID int64 `json:"id"`
	// State is the engine lifecycle state at capture time.
	State engine.State `json:"state"`
	// Epoch is the placement counter at capture time.
	Epoch int `json:"epoch"`
	// Completed reports whether the task has completed at least once.
	Completed bool `json:"completed"`
	// Outputs lists the data versions the task produces.
	Outputs []deps.Version `json:"outputs,omitempty"`
}

// Delta is one incremental checkpoint: the state changes since the
// parent file of the chain.
type Delta struct {
	// Format is the snapshot format version (shared with Snapshot).
	Format int `json:"format"`
	// Seq is the store-assigned sequence number (same counter as full
	// snapshots; the chain is an interval of it).
	Seq int `json:"seq"`
	// ParentSeq is the sequence number of the file this delta extends —
	// the previous save, base or delta. Reconstruction applies a delta
	// only onto exactly that state; anything else means a link is missing
	// and the chain is broken from here on.
	ParentSeq int `json:"parent_seq"`
	// At is the engine clock offset at capture time.
	At time.Duration `json:"at"`
	// Tasks are the absolute records of every task whose snapshot-
	// relevant state changed since the parent, sorted by ID.
	Tasks []DeltaTask `json:"tasks,omitempty"`
	// Added lists the tasks registered since the parent, in registration
	// order; reconstruction appends them to the base snapshot's ordering.
	// Every added task also has a record in Tasks.
	Added []int64 `json:"added,omitempty"`
	// Catalog holds the absolute replacement rows for every catalog key
	// whose entry changed, sorted by key. A row with zero size and no
	// locations means the entry vanished.
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Stats are the engine's activity counters at capture time
	// (absolute, like every other field).
	Stats engine.Stats `json:"stats"`
}

// Empty reports whether the delta carries no changes at all — the
// capture an idle interval produces, which the Checkpointer skips.
func (d *Delta) Empty() bool {
	return len(d.Tasks) == 0 && len(d.Added) == 0 && len(d.Catalog) == 0
}

// CaptureDelta drains the engine's and registry's dirty sets into a
// delta. The drain clears both sets, so consecutive captures see only
// what changed in between; an idle interval yields an Empty delta.
func CaptureDelta(e *engine.Engine, reg *transfer.Registry) *Delta {
	snaps, added := e.TakeDirty()
	d := &Delta{Format: Format, At: e.Now(), Stats: e.Stats(), Added: added}
	if len(snaps) > 0 {
		d.Tasks = make([]DeltaTask, 0, len(snaps))
	}
	for _, ts := range snaps {
		d.Tasks = append(d.Tasks, DeltaTask{ID: ts.ID, State: ts.State, Epoch: ts.Epoch, Completed: ts.Completed, Outputs: ts.OutputKeys})
	}
	if reg != nil {
		for _, en := range reg.TakeDirty() {
			d.Catalog = append(d.Catalog, CatalogEntry{
				Key:       en.Key,
				Size:      en.Size,
				Locations: en.Locations,
			})
		}
	}
	return d
}

// merger reconstructs a snapshot from a base plus a chain of deltas.
type merger struct {
	order   []int64
	known   map[int64]struct{}
	tasks   map[int64]DeltaTask
	catalog map[deps.Version]CatalogEntry
	seq     int
	at      time.Duration
	stats   engine.Stats
}

// newMerger seeds the reconstruction from a valid base snapshot.
func newMerger(base *Snapshot) *merger {
	m := &merger{
		known:   make(map[int64]struct{}),
		tasks:   make(map[int64]DeltaTask),
		catalog: make(map[deps.Version]CatalogEntry),
		seq:     base.Seq,
		at:      base.At,
		stats:   base.Stats,
	}
	for _, r := range base.Completed {
		m.tasks[r.ID] = DeltaTask{ID: r.ID, State: engine.Done, Epoch: r.Epoch, Completed: true, Outputs: r.Outputs}
	}
	for _, id := range base.Ready {
		m.tasks[id] = DeltaTask{ID: id, State: engine.Ready}
	}
	for _, id := range base.Running {
		m.tasks[id] = DeltaTask{ID: id, State: engine.Running}
	}
	for _, id := range base.Pending {
		m.tasks[id] = DeltaTask{ID: id, State: engine.Pending}
	}
	m.order = base.TaskOrder()
	for _, id := range m.order {
		m.known[id] = struct{}{}
	}
	for _, en := range base.Catalog {
		m.catalog[en.Key] = en
	}
	return m
}

// apply overlays one delta (records are absolute, so overlay = replace).
func (m *merger) apply(d *Delta) {
	for _, id := range d.Added {
		if _, dup := m.known[id]; dup {
			continue
		}
		m.known[id] = struct{}{}
		m.order = append(m.order, id)
	}
	for _, dt := range d.Tasks {
		if _, ok := m.known[dt.ID]; !ok {
			// A record for a task the chain never registered: tolerate it
			// (absolute records make it safe) by appending to the order.
			m.known[dt.ID] = struct{}{}
			m.order = append(m.order, dt.ID)
		}
		m.tasks[dt.ID] = dt
	}
	for _, en := range d.Catalog {
		if en.Size == 0 && len(en.Locations) == 0 && !en.HasValue {
			delete(m.catalog, en.Key) // the entry vanished
			continue
		}
		m.catalog[en.Key] = en
	}
	m.seq = d.Seq
	m.at = d.At
	m.stats = d.Stats
}

// snapshot emits the merged state in the exact shape a direct Capture of
// the same engine state would produce: sections in registration order,
// catalog sorted by key.
func (m *merger) snapshot() *Snapshot {
	snap := &Snapshot{Format: Format, Seq: m.seq, At: m.at, Stats: m.stats}
	if len(m.order) > 0 {
		snap.Order = append([]int64(nil), m.order...)
	}
	for _, id := range m.order {
		dt := m.tasks[id]
		switch {
		case dt.Completed && dt.State == engine.Done:
			snap.Completed = append(snap.Completed, TaskRecord{ID: dt.ID, Epoch: dt.Epoch, Outputs: dt.Outputs})
		case dt.State == engine.Ready:
			snap.Ready = append(snap.Ready, id)
		case dt.State == engine.Running:
			snap.Running = append(snap.Running, id)
		default:
			snap.Pending = append(snap.Pending, id)
		}
	}
	if len(m.catalog) > 0 {
		keys := make([]deps.Version, 0, len(m.catalog))
		for k := range m.catalog {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		for _, k := range keys {
			snap.Catalog = append(snap.Catalog, m.catalog[k])
		}
	}
	return snap
}
