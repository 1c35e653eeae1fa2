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
// Checkpointer's writer writing its fold of the chain as a fresh base every
// CompactEvery deltas, which both bounds reconstruction work and gives
// retention a safe pruning unit (whole chains; see Store.pruneLocked).
package checkpoint

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/transfer"
)

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
	// relevant state changed since the parent: in change order as
	// captured, sorted by ID once the store has written them.
	Tasks []engine.TaskSnap
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
	tasks, added := e.TakeDirty()
	d := &Delta{Format: Format, At: e.Now(), Tasks: tasks, Added: added, Stats: e.Stats()}
	if reg != nil {
		d.Catalog = catalogOf(reg.TakeDirty())
	}
	return d
}

// merger folds a base plus a chain of deltas into one state: Store.Latest
// reconstructs with it, and the Checkpointer's writer keeps one running
// to write compacting bases. It holds no per-task map while task IDs run
// dense (each new task the next ID after the last, the engine's rule):
// the record of task id is then tasks[id-first]. Catalogs arrive sorted
// strictly by key — captures write them so and reading a file checks it —
// so a delta's rows merge into the fold's in place and a snapshot needs
// no sort.
type merger struct {
	tasks   []engine.TaskSnap // every known task's latest record, in registration order
	first   int64             // tasks[i].ID == first+i while index is nil
	index   map[int64]int     // task ID → position in tasks, once IDs stop running dense
	catalog []CatalogEntry    // sorted by key
	seq     int
	at      time.Duration
	stats   engine.Stats
}

// newMerger seeds the fold from a valid base snapshot, taking over its
// records and its catalog.
func newMerger(base *Snapshot) *merger {
	m := &merger{tasks: base.Tasks[:0], catalog: base.Catalog, seq: base.Seq, at: base.At, stats: base.Stats}
	for _, t := range base.Tasks {
		m.put(t) // writes record i at i, or earlier: never one not yet read
	}
	return m
}

// find returns the position of task id's record.
func (m *merger) find(id int64) (int, bool) {
	if m.index == nil {
		i := id - m.first
		return int(i), i >= 0 && i < int64(len(m.tasks))
	}
	i, ok := m.index[id]
	return i, ok
}

// put replaces t's record, registering the task at the end of the order
// when the fold has not seen it yet.
func (m *merger) put(t engine.TaskSnap) {
	if i, ok := m.find(t.ID); ok {
		m.tasks[i] = t
		return
	}
	switch {
	case m.index != nil:
	case len(m.tasks) == 0:
		m.first = t.ID
	case t.ID != m.first+int64(len(m.tasks)):
		m.index = make(map[int64]int, cap(m.tasks))
		for i := range m.tasks {
			m.index[m.tasks[i].ID] = i
		}
	}
	if m.index != nil {
		m.index[t.ID] = len(m.tasks)
	}
	m.tasks = append(m.tasks, t)
}

// apply overlays one delta (records are absolute, so overlay = replace).
func (m *merger) apply(d *Delta) {
	for _, id := range d.Added {
		if _, dup := m.find(id); !dup {
			m.put(engine.TaskSnap{ID: id, State: engine.Pending})
		}
	}
	// A record for a task the chain never registered is tolerated
	// (absolute records make it safe): put appends it to the order.
	for _, t := range d.Tasks {
		m.put(t)
	}
	if len(d.Catalog) > 0 {
		m.mergeCatalog(d.Catalog)
	}
	m.seq = d.Seq
	m.at = d.At
	m.stats = d.Stats
}

// mergeCatalog overlays replacement rows, sorted by key, in place: a row
// replaces the one under its key, one under a new key is inserted, and a
// row with zero size, no locations and no value — the entry vanished —
// removes it. Rows mostly replace (a version's row exists from its
// registration on), so a delta costs O(rows·log catalog) and no copy.
func (m *merger) mergeCatalog(rows []CatalogEntry) {
	cat := m.catalog
	var fresh []CatalogEntry // rows under keys cat lacks, in key order
	gone, at := 0, 0
	for _, en := range rows {
		j, found := slices.BinarySearchFunc(cat[at:], en.Key, entryKey)
		at += j
		switch {
		case found:
			cat[at] = en
			if vanished(en) {
				gone++
			}
		case !vanished(en):
			fresh = append(fresh, en)
		}
	}
	if len(fresh) > 0 { // merge from the back, into room grown at the end
		i, j := len(cat)-1, len(fresh)-1
		cat = slices.Grow(cat, len(fresh))[:len(cat)+len(fresh)]
		for k := len(cat) - 1; j >= 0; k-- {
			if i >= 0 && compareKeys(cat[i].Key, fresh[j].Key) > 0 {
				cat[k], i = cat[i], i-1
			} else {
				cat[k], j = fresh[j], j-1
			}
		}
	}
	if gone > 0 {
		cat = slices.DeleteFunc(cat, vanished)
	}
	m.catalog = cat
}

// vanished reports whether a replacement row removes its entry.
func vanished(en CatalogEntry) bool {
	return en.Size == 0 && len(en.Locations) == 0 && !en.HasValue
}

// snapshot emits the fold in the exact shape a direct Capture of the same
// engine state would produce: records in registration order, catalog
// sorted by key. Both are the fold's own, valid until the next apply.
func (m *merger) snapshot() *Snapshot {
	snap := &Snapshot{Format: Format, Seq: m.seq, At: m.at, Tasks: m.tasks, Stats: m.stats}
	if len(m.catalog) > 0 {
		snap.Catalog = m.catalog
	}
	return snap
}

// compareKeys is deps.Version.Less three-way — the catalog order.
func compareKeys(a, b deps.Version) int {
	if c := cmp.Compare(a.Data, b.Data); c != 0 {
		return c
	}
	return cmp.Compare(a.Ver, b.Ver)
}

func entryKey(en CatalogEntry, k deps.Version) int { return compareKeys(en.Key, k) }
