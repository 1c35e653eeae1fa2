// Package transfer tracks where each data version lives and plans the
// transfers needed to run a task on a given node. It gives the runtime the
// paper's "view that a single shared memory space is available … taking
// care of all the necessary data-transfers between the nodes" (Sec. II-A),
// and it is the information source for locality-aware scheduling (E4).
//
// The registry is one lock over one map. A data version is one row — its
// size and its name-sorted holder list — and every reader goes through Row:
// one lock round trip and one map lookup answer "how big, and who holds
// it". Its callers already hold the engine's or the runtime's lock, so the
// registry's own lock only orders those two against each other and against
// a checkpoint capture. From the first base capture (EntriesClean) on, the
// registry also tracks the keys whose row changed since the last capture,
// which is what makes delta snapshots O(changes): TakeDirty drains exactly
// the changed rows. Before it nothing is tracked — a base subsumes every
// change before it, and a run that never checkpoints never pays for a set
// nobody drains. Restore enters a snapshot's catalog a row at a time
// through Seed: one lock, one dirty mark and, for a clean row, no copy.
package transfer

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/deps"
	"repro/internal/simnet"
)

// Key identifies one immutable data version: it IS deps.Version. The
// alias keeps the name the registry's API grew up with.
type Key = deps.Version

// KeyOf is the identity; only the frozen bench/ harness still calls it.
func KeyOf(v deps.Version) Key { return v }

// row is one data version's catalog row. holders is name-sorted and
// copy-on-write: a writer installs a new list and never edits a published
// one, so readers keep the list they were handed after the lock is gone.
// A row with no size and no holder is not stored.
type row struct {
	size    int64
	holders []string
}

// Registry records replica locations and sizes for data versions. It is
// safe for concurrent use: mu guards rows and the dirty set feeding delta
// checkpoints (nil until the first EntriesClean).
type Registry struct {
	mu    sync.RWMutex
	rows  map[Key]row
	dirty map[Key]struct{}
	// sole holds one published one-element list per node, shared by every
	// row that node alone holds: lists are never edited, so a version's
	// first replica — most versions' only one — allocates nothing.
	sole map[string][]string
}

// NewRegistry returns an empty location registry.
func NewRegistry() *Registry {
	return &Registry{rows: make(map[Key]row), sole: make(map[string][]string)}
}

// putLocked installs k's row (dropping it when empty) and marks it dirty
// once tracking has started.
func (r *Registry) putLocked(k Key, rw row) {
	if rw.size == 0 && len(rw.holders) == 0 {
		delete(r.rows, k)
	} else {
		r.rows[k] = rw
	}
	if r.dirty != nil {
		r.dirty[k] = struct{}{}
	}
}

// Row returns k's recorded size (0 if unknown) and the nodes holding a
// replica, sorted by name — the one read every consumer builds on
// (getLocations, paper Sec. VI-A-1: it "will enable the runtime to exploit
// the locality of the data by scheduling tasks in the location where the
// data resides"). The holder list is shared and immutable: callers may
// keep it, and must not modify it.
func (r *Registry) Row(k Key) (size int64, holders []string) {
	r.mu.RLock()
	rw := r.rows[k]
	r.mu.RUnlock()
	return rw.size, rw.holders
}

// holds reports whether the sorted holder list names node.
func holds(holders []string, node string) bool {
	_, ok := slices.BinarySearch(holders, node)
	return ok
}

// SetSize records the size in bytes of a data version.
func (r *Registry) SetSize(k Key, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.rows[k]
	rw.size = bytes
	r.putLocked(k, rw)
}

// Size returns the recorded size of a data version (0 if unknown).
func (r *Registry) Size(k Key) int64 {
	size, _ := r.Row(k)
	return size
}

// AddReplica records that node holds a copy of k.
func (r *Registry) AddReplica(k Key, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.rows[k]
	at, held := slices.BinarySearch(rw.holders, node)
	switch {
	case held:
	case len(rw.holders) == 0:
		if rw.holders = r.sole[node]; rw.holders == nil {
			rw.holders = []string{node}
			r.sole[node] = rw.holders
		}
	default:
		// Clipped, so Insert cannot fit the name into the published list.
		rw.holders = slices.Insert(slices.Clip(rw.holders), at, node)
	}
	r.putLocked(k, rw)
}

// Seed installs a whole row at once — the restore of one checkpointed
// catalog row: the size when positive, and every holder, under one lock
// with one dirty mark. holders is shared, not copied, when k has no
// holders yet and the list is sorted and duplicate-free (what a capture
// writes); the caller must not modify it afterwards. Any other list is
// merged onto a fresh one, so the row stays sorted and duplicate-free
// whatever a file held.
func (r *Registry) Seed(k Key, size int64, holders []string) {
	if size <= 0 && len(holders) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.rows[k]
	if size > 0 {
		rw.size = size
	}
	switch {
	case len(holders) == 0:
	case len(rw.holders) == 0 && strictlySorted(holders):
		rw.holders = holders
	default:
		merged := make([]string, 0, len(rw.holders)+len(holders))
		merged = append(append(merged, rw.holders...), holders...)
		slices.Sort(merged)
		rw.holders = slices.Compact(merged)
	}
	r.putLocked(k, rw)
}

// strictlySorted reports whether names is sorted without repeats.
func strictlySorted(names []string) bool {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			return false
		}
	}
	return true
}

// without returns the row minus node's replica (on a fresh list), and
// whether node held one.
func (rw row) without(node string) (row, bool) {
	at, held := slices.BinarySearch(rw.holders, node)
	switch {
	case held && len(rw.holders) == 1:
		rw.holders = nil
	case held:
		rw.holders = slices.Delete(slices.Clone(rw.holders), at, at+1)
	}
	return rw, held
}

// DropNode forgets every replica held by node (node failure). It returns
// the keys that lost their last replica — the data that must be recovered
// by re-execution (E7).
func (r *Registry) DropNode(node string) []Key {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lost []Key
	for k, rw := range r.rows {
		if rw, held := rw.without(node); held {
			r.putLocked(k, rw)
			if len(rw.holders) == 0 {
				lost = append(lost, k)
			}
		}
	}
	slices.SortFunc(lost, compareKeys)
	return lost
}

// Where returns the nodes holding a replica of k, sorted (Row's shared,
// read-only list).
func (r *Registry) Where(k Key) []string {
	_, holders := r.Row(k)
	return holders
}

// LocalBytes sums the sizes of the given keys already present on node —
// the locality score asked candidate by candidate. Only the scan reference
// (sched.Locality.Pick) asks it that way; the placement path scores the
// holders instead (sched.Locality.PickIndexed).
func (r *Registry) LocalBytes(node string, keys []Key) int64 {
	var total int64
	for _, k := range keys {
		if size, holders := r.Row(k); holds(holders, node) {
			total += size
		}
	}
	return total
}

// Entry is one catalog row of the registry: a data version, its recorded
// size and its replica locations (shared and read-only, like Row's list).
type Entry struct {
	Key       Key
	Size      int64
	Locations []string
}

func (rw row) entry(k Key) Entry { return Entry{Key: k, Size: rw.size, Locations: rw.holders} }

// Entries dumps the whole catalog, sorted by key — the data half of a
// checkpoint snapshot (internal/engine/checkpoint). Keys that have a
// recorded size but no replica yet (declared ahead of production) are
// included with empty locations.
func (r *Registry) Entries() []Entry {
	return r.entries(false)
}

// EntriesClean is Entries plus a dirty reset — the full-catalog capture
// that starts a fresh delta chain (a base snapshot subsumes every pending
// change, so the dirty set restarts empty). The first call starts dirty
// tracking.
func (r *Registry) EntriesClean() []Entry {
	return r.entries(true)
}

func (r *Registry) entries(clean bool) []Entry {
	r.mu.Lock()
	out := make([]Entry, 0, len(r.rows))
	for k, rw := range r.rows {
		out = append(out, rw.entry(k))
	}
	if clean {
		r.dirty = make(map[Key]struct{})
	}
	r.mu.Unlock()
	slices.SortFunc(out, byKey)
	return out
}

// compareKeys is deps.Version.Less three-way — the catalog order.
func compareKeys(a, b Key) int {
	if c := cmp.Compare(a.Data, b.Data); c != 0 {
		return c
	}
	return cmp.Compare(a.Ver, b.Ver)
}

// byKey orders entries by compareKeys.
func byKey(a, b Entry) int { return compareKeys(a.Key, b.Key) }

// DirtyCount returns how many catalog rows changed since the last
// TakeDirty / EntriesClean (0 before the first EntriesClean).
func (r *Registry) DirtyCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.dirty)
}

// TakeDirty drains the changed catalog rows since the last capture,
// sorted by key, clearing the dirty set atomically with the read — a
// mutation racing the capture lands either in this delta or in the next
// one, never nowhere. Keys whose row vanished (no replica, no size) are
// still reported, with empty locations and size 0, so a delta can
// overwrite the stale base row.
func (r *Registry) TakeDirty() []Entry {
	r.mu.Lock()
	out := make([]Entry, 0, len(r.dirty))
	for k := range r.dirty {
		out = append(out, r.rows[k].entry(k))
	}
	if len(r.dirty) > 0 {
		r.dirty = make(map[Key]struct{}) // not clear(): a capture stays O(changes), not O(largest burst)
	}
	r.mu.Unlock()
	slices.SortFunc(out, byKey)
	return out
}

// Plan describes the transfers needed to materialise a set of keys on one
// node.
type Plan struct {
	// Time is the serialised transfer time (transfers share the node's
	// ingress link, so they are summed).
	Time time.Duration
	// Bytes is the total payload moved.
	Bytes int64
	// Moves lists each fetch.
	Moves []Move
	// MissingKeys lists keys with no replica anywhere (caller decides
	// whether that is fatal or means "recompute").
	MissingKeys []Key
	// UnreachableKeys lists keys that do have replicas, but every one
	// sits behind a cut link (network partition): nothing is lost, yet
	// nothing can be fetched until the partition heals. The engine's
	// availability policies (engine.Availability) treat the two cases
	// differently — lost data is recomputed through lineage, partitioned
	// data can simply be waited out.
	UnreachableKeys []Key
}

// Move is one planned fetch.
type Move struct {
	Key  Key
	From string
	To   string
	Size int64
}

// Manager plans transfers over a network model.
type Manager struct {
	net *simnet.Network
	reg *Registry
}

// NewManager returns a manager over the given network and registry.
func NewManager(net *simnet.Network, reg *Registry) *Manager {
	return &Manager{net: net, reg: reg}
}

// Registry exposes the location registry.
func (m *Manager) Registry() *Registry { return m.reg }

// PlanFetch computes the transfers needed so dest holds every key, choosing
// the fastest source for each (replicas already local cost nothing). Keys
// that cannot be materialised are classified rather than planned: no
// replica anywhere → MissingKeys (lost; only re-execution can bring the
// data back), replicas present but every one behind a cut link →
// UnreachableKeys (partitioned; a heal makes them plannable again).
func (m *Manager) PlanFetch(dest string, keys []Key) Plan {
	var p Plan
	for i, k := range keys {
		size, holders := m.reg.Row(k)
		if len(holders) == 0 {
			p.MissingKeys = append(p.MissingKeys, k)
			continue
		}
		if holds(holders, dest) {
			continue
		}
		src, t, ok := m.net.BestSource(dest, holders, size)
		if !ok {
			p.UnreachableKeys = append(p.UnreachableKeys, k)
			continue
		}
		p.Time += t
		p.Bytes += size
		if p.Moves == nil {
			p.Moves = make([]Move, 0, len(keys)-i) // the plan's one allocation
		}
		p.Moves = append(p.Moves, Move{Key: k, From: src, To: dest, Size: size})
	}
	return p
}

// Apply records the copies of a plan in the registry (the fetches
// happened: dest now replicates each moved key).
func (m *Manager) Apply(p Plan) {
	for _, mv := range p.Moves {
		m.reg.AddReplica(mv.Key, mv.To)
	}
}
