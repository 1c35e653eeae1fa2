// Package transfer tracks where each data version lives and plans the
// transfers needed to run a task on a given node. It gives the runtime the
// paper's "view that a single shared memory space is available … taking
// care of all the necessary data-transfers between the nodes" (Sec. II-A),
// and it is the information source for locality-aware scheduling (E4).
//
// The registry is hash-sharded: keys are distributed over fixed stripes,
// each with its own lock, so concurrent placements (PlanFetch), completions
// (AddReplica) and locality scoring on different data contend on different
// stripes instead of one global RWMutex — the registry was one of the three
// global locks profiled at million-task scale. A data version is one row
// per stripe map — its size and its name-sorted holder list — and every
// reader goes through Row: one lock round trip and one map lookup answer
// "how big, and who holds it". Each stripe additionally tracks the keys
// whose row changed since the last checkpoint capture, which is what makes
// delta snapshots O(changes): TakeDirty drains exactly the changed rows.
package transfer

import (
	"cmp"
	"slices"
	"sort"
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

// regShards is the stripe count. A small power of two keeps the modulo a
// mask while spreading a 1k-node pool's concurrent completions thin.
const regShards = 32

// row is one data version's catalog row. holders is name-sorted and
// copy-on-write: a writer installs a new list and never edits a published
// one, so readers keep the list they were handed after the stripe lock is
// gone. A row with no size and no holder is not stored.
type row struct {
	size    int64
	holders []string
}

// regShard is one stripe of the registry: its own lock, its rows, and the
// dirty set feeding delta checkpoints.
type regShard struct {
	mu    sync.RWMutex
	rows  map[Key]row
	dirty map[Key]struct{}
}

// putLocked installs k's row (dropping it when empty) and marks it dirty.
func (s *regShard) putLocked(k Key, rw row) {
	if rw.size == 0 && len(rw.holders) == 0 {
		delete(s.rows, k)
	} else {
		s.rows[k] = rw
	}
	s.dirty[k] = struct{}{}
}

// Registry records replica locations and sizes for data versions. It is
// safe for concurrent use; state is hash-sharded by key.
type Registry struct {
	shards [regShards]regShard
}

// NewRegistry returns an empty location registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		s := &r.shards[i]
		s.rows = make(map[Key]row)
		s.dirty = make(map[Key]struct{})
	}
	return r
}

// shard returns the stripe holding k.
func (r *Registry) shard(k Key) *regShard {
	h := uint64(k.Data)*0x9E3779B97F4A7C15 + uint64(uint32(k.Ver))*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &r.shards[h%regShards]
}

// Row returns k's recorded size (0 if unknown) and the nodes holding a
// replica, sorted by name — the one read every consumer builds on
// (getLocations, paper Sec. VI-A-1: it "will enable the runtime to exploit
// the locality of the data by scheduling tasks in the location where the
// data resides"). The holder list is shared and immutable: callers may
// keep it, and must not modify it.
func (r *Registry) Row(k Key) (size int64, holders []string) {
	s := r.shard(k)
	s.mu.RLock()
	rw := s.rows[k]
	s.mu.RUnlock()
	return rw.size, rw.holders
}

// holds reports whether the sorted holder list names node.
func holds(holders []string, node string) bool {
	_, ok := slices.BinarySearch(holders, node)
	return ok
}

// SetSize records the size in bytes of a data version.
func (r *Registry) SetSize(k Key, bytes int64) {
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	rw := s.rows[k]
	rw.size = bytes
	s.putLocked(k, rw)
}

// Size returns the recorded size of a data version (0 if unknown).
func (r *Registry) Size(k Key) int64 {
	size, _ := r.Row(k)
	return size
}

// AddReplica records that node holds a copy of k.
func (r *Registry) AddReplica(k Key, node string) {
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	rw := s.rows[k]
	at, held := slices.BinarySearch(rw.holders, node)
	if !held {
		// Clipped, so Insert cannot fit the name into the published list.
		rw.holders = slices.Insert(slices.Clip(rw.holders), at, node)
	}
	s.putLocked(k, rw)
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

// RemoveReplica forgets node's copy of k.
func (r *Registry) RemoveReplica(k Key, node string) {
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if rw, held := s.rows[k].without(node); held {
		s.putLocked(k, rw)
	}
}

// DropNode forgets every replica held by node (node failure). It returns
// the keys that lost their last replica — the data that must be recovered
// by re-execution (E7).
func (r *Registry) DropNode(node string) []Key {
	var lost []Key
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for k, rw := range s.rows {
			if rw, held := rw.without(node); held {
				s.putLocked(k, rw)
				if len(rw.holders) == 0 {
					lost = append(lost, k)
				}
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].Less(lost[j]) })
	return lost
}

// Where returns the nodes holding a replica of k, sorted (Row's shared,
// read-only list).
func (r *Registry) Where(k Key) []string {
	_, holders := r.Row(k)
	return holders
}

// HasReplica reports whether node holds a copy of k.
func (r *Registry) HasReplica(k Key, node string) bool {
	_, holders := r.Row(k)
	return holds(holders, node)
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

// EntriesClean is Entries plus a per-stripe dirty reset — the full-catalog
// capture that starts a fresh delta chain (a base snapshot subsumes every
// pending change, so the dirty sets restart empty).
func (r *Registry) EntriesClean() []Entry {
	return r.entries(true)
}

func (r *Registry) entries(clean bool) []Entry {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.rows)
		s.mu.RUnlock()
	}
	out := make([]Entry, 0, n) // a hint: rows added since only make append grow
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for k, rw := range s.rows {
			out = append(out, rw.entry(k))
		}
		if clean {
			s.dirty = make(map[Key]struct{})
		}
		s.mu.Unlock()
	}
	slices.SortFunc(out, byKey)
	return out
}

// byKey is the catalog order of entries: deps.Version.Less, three-way.
func byKey(a, b Entry) int {
	if c := cmp.Compare(a.Key.Data, b.Key.Data); c != 0 {
		return c
	}
	return cmp.Compare(a.Key.Ver, b.Key.Ver)
}

// DirtyCount returns how many catalog rows changed since the last
// TakeDirty / EntriesClean.
func (r *Registry) DirtyCount() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.dirty)
		s.mu.RUnlock()
	}
	return n
}

// TakeDirty drains the changed catalog rows since the last capture,
// sorted by key, clearing each stripe's dirty set atomically with the
// read — a mutation racing the capture lands either in this delta or in
// the next one, never nowhere. Keys whose row vanished (no replica, no
// size) are still reported, with empty locations and size 0, so a delta
// can overwrite the stale base row.
func (r *Registry) TakeDirty() []Entry {
	out := make([]Entry, 0, r.DirtyCount()) // a hint, like entries'
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if len(s.dirty) > 0 {
			for k := range s.dirty {
				out = append(out, s.rows[k].entry(k))
			}
			s.dirty = make(map[Key]struct{}) // not clear(): a capture stays O(changes), not O(largest burst)
		}
		s.mu.Unlock()
	}
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
