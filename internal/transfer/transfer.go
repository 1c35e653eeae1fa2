// Package transfer tracks where each data version lives and plans the
// transfers needed to run a task on a given node. It gives the runtime the
// paper's "view that a single shared memory space is available … taking
// care of all the necessary data-transfers between the nodes" (Sec. II-A),
// and it is the information source for locality-aware scheduling (E4).
//
// The registry is hash-sharded: keys are distributed over fixed stripes,
// each with its own lock, so concurrent placements (PlanFetch), completions
// (AddReplica) and locality scoring (LocalBytes) on different data contend
// on different stripes instead of one global RWMutex — the registry was one
// of the three global locks profiled at million-task scale. Each stripe
// additionally tracks the keys whose entry changed since the last
// checkpoint capture, which is what makes delta snapshots O(changes):
// TakeDirty drains exactly the changed catalog rows.
package transfer

import (
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

// regShard is one stripe of the registry: its own lock, its slice of the
// location and size maps, and the dirty set feeding delta checkpoints.
type regShard struct {
	mu    sync.RWMutex
	loc   map[Key]map[string]struct{}
	size  map[Key]int64
	dirty map[Key]struct{}
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
		s.loc = make(map[Key]map[string]struct{})
		s.size = make(map[Key]int64)
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

// SetSize records the size in bytes of a data version.
func (r *Registry) SetSize(k Key, bytes int64) {
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.size[k] = bytes
	s.dirty[k] = struct{}{}
}

// Size returns the recorded size of a data version (0 if unknown).
func (r *Registry) Size(k Key) int64 {
	s := r.shard(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size[k]
}

// AddReplica records that node holds a copy of k.
func (r *Registry) AddReplica(k Key, node string) {
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.loc[k]
	if !ok {
		set = make(map[string]struct{})
		s.loc[k] = set
	}
	set[node] = struct{}{}
	s.dirty[k] = struct{}{}
}

// RemoveReplica forgets node's copy of k.
func (r *Registry) RemoveReplica(k Key, node string) {
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if set, ok := s.loc[k]; ok {
		if _, held := set[node]; held {
			delete(set, node)
			if len(set) == 0 {
				delete(s.loc, k)
			}
			s.dirty[k] = struct{}{}
		}
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
		for k, set := range s.loc {
			if _, ok := set[node]; !ok {
				continue
			}
			delete(set, node)
			s.dirty[k] = struct{}{}
			if len(set) == 0 {
				delete(s.loc, k)
				lost = append(lost, k)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].Less(lost[j]) })
	return lost
}

// Where returns the nodes holding a replica of k, sorted.
func (r *Registry) Where(k Key) []string {
	s := r.shard(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	set, ok := s.loc[k]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasReplica reports whether node holds a copy of k.
func (r *Registry) HasReplica(k Key, node string) bool {
	s := r.shard(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.loc[k][node]
	return ok
}

// LocalBytes sums the sizes of the given keys already present on node.
// It is the locality score schedulers maximise (paper Sec. VI-A-1: the
// getLocations method "will enable the runtime to exploit the locality of
// the data by scheduling tasks in the location where the data resides").
func (r *Registry) LocalBytes(node string, keys []Key) int64 {
	var total int64
	for _, k := range keys {
		s := r.shard(k)
		s.mu.RLock()
		if _, ok := s.loc[k][node]; ok {
			total += s.size[k]
		}
		s.mu.RUnlock()
	}
	return total
}

// MissingBytes sums the sizes of the given keys NOT present on node.
func (r *Registry) MissingBytes(node string, keys []Key) int64 {
	var total int64
	for _, k := range keys {
		s := r.shard(k)
		s.mu.RLock()
		if _, ok := s.loc[k][node]; !ok {
			total += s.size[k]
		}
		s.mu.RUnlock()
	}
	return total
}

// Entry is one catalog row of the registry: a data version, its recorded
// size and its replica locations.
type Entry struct {
	Key       Key
	Size      int64
	Locations []string
}

// entryLocked builds the catalog row for k from a stripe the caller holds.
func (s *regShard) entryLocked(k Key) Entry {
	e := Entry{Key: k, Size: s.size[k]}
	if set, ok := s.loc[k]; ok {
		e.Locations = make([]string, 0, len(set))
		for n := range set {
			e.Locations = append(e.Locations, n)
		}
		sort.Strings(e.Locations)
	}
	return e
}

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
	var out []Entry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		seen := make(map[Key]struct{}, len(s.loc)+len(s.size))
		add := func(k Key) {
			if _, dup := seen[k]; dup {
				return
			}
			seen[k] = struct{}{}
			out = append(out, s.entryLocked(k))
		}
		for k := range s.loc {
			add(k)
		}
		for k := range s.size {
			add(k)
		}
		if clean {
			s.dirty = make(map[Key]struct{})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
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
// the next one, never nowhere. Keys whose entry vanished entirely (no
// replica, no size) are still reported, with empty locations and size 0,
// so a delta can overwrite the stale base row.
func (r *Registry) TakeDirty() []Entry {
	var out []Entry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		if len(s.dirty) > 0 {
			for k := range s.dirty {
				out = append(out, s.entryLocked(k))
			}
			s.dirty = make(map[Key]struct{})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
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
	for _, k := range keys {
		if m.reg.HasReplica(k, dest) {
			continue
		}
		sources := m.reg.Where(k)
		if len(sources) == 0 {
			p.MissingKeys = append(p.MissingKeys, k)
			continue
		}
		size := m.reg.Size(k)
		src, t, ok := m.net.BestSource(dest, sources, size)
		if !ok {
			p.UnreachableKeys = append(p.UnreachableKeys, k)
			continue
		}
		p.Time += t
		p.Bytes += size
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
