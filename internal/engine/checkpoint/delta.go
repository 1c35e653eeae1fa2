// Delta checkpoints — the O(changes) half of the checkpoint subsystem. A
// base capture opens two logs, the engine's and the registry's, and every
// change then appends the record it leaves (engine.TaskSnap,
// transfer.Entry); a capture swaps both out into a Delta, one group.
// Records are ABSOLUTE states — a base plus a log of absolute records, the
// write-ahead-log pattern (Mohan et al., "ARIES", TODS 1992) — so a key's
// last record is its state: the writer coalesces a group to one record
// per key, a change racing a capture lands in this group or the next, and
// a base starts an empty log. On disk a group is one frame of its base's
// log (store.go).
package checkpoint

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/transfer"
)

// Delta is one group of the checkpoint log: the records the engine and
// the registry logged since the last capture.
type Delta struct {
	// At is the engine clock offset at capture time.
	At time.Duration
	// Tasks are the task records as logged; once coalesced, each task's
	// last, in the order of its first — registration order for a task the
	// group registered.
	Tasks []engine.TaskSnap
	// Catalog holds the catalog rows as logged; once coalesced, each key's
	// last, sorted by key. Zero size and no locations: the entry vanished.
	Catalog []CatalogEntry
	// Stats are the engine's activity counters at capture time
	// (absolute, like every other field).
	Stats engine.Stats

	rows []transfer.Entry // the registry's log array, handed back at the next capture
}

// CaptureDelta swaps the engine's and the registry's logs out into a new
// delta; the next capture sees only what was logged in between, and an
// idle interval yields one with no records. A base capture must have
// opened the logs.
func CaptureDelta(e *engine.Engine, reg *transfer.Registry) *Delta {
	return CaptureDeltaInto(nil, e, reg)
}

// CaptureDeltaInto is CaptureDelta into d, a delta its writer is done
// with: the logs go on into d's arrays, so a steady cadence of captures
// allocates nothing. A nil d is a new one.
func CaptureDeltaInto(d *Delta, e *engine.Engine, reg *transfer.Registry) *Delta {
	if d == nil {
		d = &Delta{}
	}
	d.Tasks = e.SwapLog(d.Tasks)
	d.At, d.Stats, d.Catalog = e.Now(), e.Stats(), d.Catalog[:0]
	if reg != nil {
		d.rows = reg.SwapLog(d.rows)
		d.Catalog = slices.Grow(d.Catalog[:0], len(d.rows))
		for _, en := range d.rows {
			d.Catalog = append(d.Catalog, CatalogEntry{Key: en.Key, Size: en.Size, Locations: en.Locations})
		}
	}
	return d
}

// coalescer is a writer's scratch for coalescing groups.
type coalescer struct {
	first map[int64]int
	order []logged
	rows  []CatalogEntry
}

// logged is a catalog row's key and its place in the group's log.
type logged struct {
	key deps.Version
	at  int
}

// coalesce keeps one record per key of d, in place: a task's last record
// at its first record's place, and each key's last catalog row, sorted by
// key through a sorted index of keys, so the sort moves no row.
func (c *coalescer) coalesce(d *Delta) {
	if c.first == nil {
		c.first = make(map[int64]int)
	}
	clear(c.first)
	tasks := d.Tasks[:0]
	for _, t := range d.Tasks {
		if i, seen := c.first[t.ID]; seen {
			tasks[i] = t
			continue
		}
		c.first[t.ID] = len(tasks)
		tasks = append(tasks, t)
	}
	d.Tasks = tasks
	c.order = slices.Grow(c.order[:0], len(d.Catalog))
	for i := range d.Catalog {
		if n := len(c.order); n > 0 && c.order[n-1].key == d.Catalog[i].Key {
			c.order[n-1].at = i // a run of one key's rows: its last stands for it
			continue
		}
		c.order = append(c.order, logged{d.Catalog[i].Key, i})
	}
	slices.SortFunc(c.order, func(a, b logged) int { return cmp.Or(compareKeys(a.key, b.key), a.at-b.at) })
	c.rows = slices.Grow(c.rows[:0], len(c.order))
	for j, o := range c.order {
		if j+1 == len(c.order) || c.order[j+1].key != o.key { // the key's last row
			c.rows = append(c.rows, d.Catalog[o.at])
		}
	}
	d.Catalog = append(d.Catalog[:0], c.rows...)
}

// merger folds a base plus its log into one state: Store.Latest
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
	at      time.Duration
	stats   engine.Stats
}

// newMerger seeds the fold from a valid base snapshot, taking over its
// records and its catalog.
func newMerger(base *Snapshot) *merger {
	m := &merger{tasks: base.Tasks[:0], catalog: base.Catalog, at: base.At, stats: base.Stats}
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

// apply overlays one coalesced group (records are absolute, so overlay =
// replace). A task the fold has not seen is registered at the end of the
// order: the group holds it from its registration on.
func (m *merger) apply(d *Delta) {
	for _, t := range d.Tasks {
		m.put(t)
	}
	if len(d.Catalog) > 0 {
		m.mergeCatalog(d.Catalog)
	}
	m.at = d.At
	m.stats = d.Stats
}

// mergeCatalog overlays replacement rows, sorted by key, in place: a row
// replaces the one under its key, one under a new key is inserted, and a
// row with zero size, no locations and no value — the entry vanished —
// removes it. Rows mostly replace (a version's row exists from its
// registration on), so a group costs O(rows·log catalog) and no copy.
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
	snap := &Snapshot{Format: Format, At: m.at, Tasks: m.tasks, Stats: m.stats}
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
