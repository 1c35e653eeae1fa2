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
	"cmp"
	"slices"
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
	ID int64
	// State is the engine lifecycle state at capture time.
	State engine.State
	// Epoch is the placement counter at capture time.
	Epoch int
	// Completed reports whether the task has completed at least once.
	Completed bool
	// Outputs lists the data versions the task produces.
	Outputs []deps.Version
}

// Delta is one incremental checkpoint: the state changes since the
// parent file of the chain.
type Delta struct {
	// Format is the snapshot format version (shared with Snapshot).
	Format int
	// Seq is the store-assigned sequence number (same counter as full
	// snapshots; the chain is an interval of it).
	Seq int
	// ParentSeq is the sequence number of the file this delta extends —
	// the previous save, base or delta. Reconstruction applies a delta
	// only onto exactly that state; anything else means a link is missing
	// and the chain is broken from here on.
	ParentSeq int
	// At is the engine clock offset at capture time.
	At time.Duration
	// Tasks are the absolute records of every task whose snapshot-
	// relevant state changed since the parent, sorted by ID.
	Tasks []DeltaTask
	// Added lists the tasks registered since the parent, in registration
	// order; reconstruction appends them to the base snapshot's ordering.
	// Every added task also has a record in Tasks.
	Added []int64
	// Catalog holds the absolute replacement rows for every catalog key
	// whose entry changed, sorted by key. A row with zero size and no
	// locations means the entry vanished.
	Catalog []CatalogEntry
	// Stats are the engine's activity counters at capture time
	// (absolute, like every other field).
	Stats engine.Stats
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
	d := &Delta{Format: Format, At: e.Now(), Stats: e.Stats(), Added: added, Tasks: sized[DeltaTask](len(snaps))}
	for _, ts := range snaps {
		d.Tasks = append(d.Tasks, DeltaTask{ID: ts.ID, State: ts.State, Epoch: ts.Epoch, Completed: ts.Completed, Outputs: ts.OutputKeys})
	}
	if reg != nil {
		d.Catalog = catalogOf(reg.TakeDirty())
	}
	return d
}

// merger reconstructs a snapshot from a base plus a chain of deltas.
type merger struct {
	tasks   []DeltaTask   // every known task's latest record, in registration order
	index   map[int64]int // task ID → position in tasks
	catalog map[deps.Version]CatalogEntry
	seq     int
	at      time.Duration
	stats   engine.Stats
}

// newMerger seeds the reconstruction from a valid base snapshot: a task of
// its order is pending until a section says otherwise, and a completed,
// ready or running entry the order omits is registered after it (as apply
// does with a record of a task no delta registered).
func newMerger(base *Snapshot) *merger {
	order := base.TaskOrder()
	m := &merger{
		tasks:   make([]DeltaTask, 0, len(order)),
		index:   make(map[int64]int, len(order)),
		catalog: make(map[deps.Version]CatalogEntry, len(base.Catalog)),
		seq:     base.Seq,
		at:      base.At,
		stats:   base.Stats,
	}
	for _, id := range order {
		m.put(DeltaTask{ID: id})
	}
	for _, r := range base.Completed {
		m.put(DeltaTask{ID: r.ID, State: engine.Done, Epoch: r.Epoch, Completed: true, Outputs: r.Outputs})
	}
	for _, id := range base.Ready {
		m.put(DeltaTask{ID: id, State: engine.Ready})
	}
	for _, id := range base.Running {
		m.put(DeltaTask{ID: id, State: engine.Running})
	}
	for _, en := range base.Catalog {
		m.catalog[en.Key] = en
	}
	return m
}

// put replaces t's record, registering the task at the end of the order
// when the chain has not seen it yet.
func (m *merger) put(t DeltaTask) {
	if i, ok := m.index[t.ID]; ok {
		m.tasks[i] = t
		return
	}
	m.index[t.ID] = len(m.tasks)
	m.tasks = append(m.tasks, t)
}

// apply overlays one delta (records are absolute, so overlay = replace).
func (m *merger) apply(d *Delta) {
	for _, id := range d.Added {
		if _, dup := m.index[id]; !dup {
			m.put(DeltaTask{ID: id})
		}
	}
	// A record for a task the chain never registered is tolerated
	// (absolute records make it safe): put appends it to the order.
	for _, dt := range d.Tasks {
		m.put(dt)
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
	snap.setTasks(len(m.tasks), func(i int) DeltaTask { return m.tasks[i] })
	snap.Catalog = sized[CatalogEntry](len(m.catalog))
	for _, en := range m.catalog {
		snap.Catalog = append(snap.Catalog, en)
	}
	slices.SortFunc(snap.Catalog, func(a, b CatalogEntry) int { // deps.Version.Less, three-way
		if c := cmp.Compare(a.Key.Data, b.Key.Data); c != 0 {
			return c
		}
		return cmp.Compare(a.Key.Ver, b.Key.Ver)
	})
	return snap
}
