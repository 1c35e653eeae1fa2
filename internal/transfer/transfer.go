// Package transfer tracks where each data version lives and plans the
// transfers needed to run a task on a given node. It gives the runtime the
// paper's "view that a single shared memory space is available … taking
// care of all the necessary data-transfers between the nodes" (Sec. II-A),
// and it is the information source for locality-aware scheduling (E4).
//
// The registry is one lock over one column of rows per datum. A data
// version is one row — its size and its name-sorted holder list — kept in
// its datum's column in version order, and every reader goes through Row:
// one lock round trip, one lookup of the datum's column and, because
// versions are minted in order, almost always one probe of the row at the
// version's offset from the column's first (a binary search otherwise).
// Rows are carved from shared slabs, so a new datum or a longer column
// allocates nothing of its own. Its callers already hold the engine's or
// the runtime's lock, so the registry's own lock only orders those two
// against each other and against a checkpoint capture. From the first
// base capture (StartLog) on, a write also appends the row as it leaves
// it to the checkpoint log, which is what makes delta snapshots
// O(changes): SwapLog hands over exactly the logged rows. Before it
// nothing is logged — a base holds every change before it, and a run that
// never checkpoints pays one nil check per write. The columns are walked
// in datum order, so a catalog dump is in key order without a sort.
// Restore enters a snapshot's catalog a row at a time through Seed: one
// lock and, for a clean row, no copy.
// Holder lists are carved from slabs of names too; a slab lives while any
// list carved from it does, so freeing dead rows frees a slab only once no
// row holds a list carved from it.
package transfer

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/deps"
	"repro/internal/simnet"
)

// row is one data version's catalog row. holders is name-sorted and
// copy-on-write: a writer installs a new list and never edits a published
// one, so readers keep the list they were handed after the lock is gone.
// A first holder gets its node's shared sole list and a later list is a
// carving no other row shares (Seed may keep its caller's). A row with no
// size and no holder stays in its column but is not in the catalog.
type row struct {
	ver     int
	size    int64
	holders []string
}

// column is one datum's rows, sorted by version. lo is the first row's
// version, kept here so a lookup touches one row. A column is never
// empty, and its rows are carved from the registry's slabs: it grows by
// moving to a carving twice its capacity, never by append.
type column struct {
	data deps.DataID
	lo   int
	rows []row
}

// at returns where version v sits in c's rows, or where it would be
// inserted, and whether it is there.
func (c *column) at(v int) (int, bool) {
	if i := v - c.lo; uint(i) < uint(len(c.rows)) && c.rows[i].ver == v {
		return i, true
	}
	if n := len(c.rows); c.rows[n-1].ver < v {
		return n, false
	}
	return slices.BinarySearchFunc(c.rows, v, func(rw row, v int) int { return cmp.Compare(rw.ver, v) })
}

// Registry records replica locations and sizes for data versions. It is
// safe for concurrent use: mu guards everything below it.
type Registry struct {
	mu    sync.RWMutex
	index map[deps.DataID]int32 // each datum's position in cols
	cols  []column              // in datum order unless unsorted
	// unsorted is set when a datum arrives after a greater one; the next
	// ordered walk sorts cols and renumbers the index.
	unsorted bool
	slab     []row    // the uncarved tail of the current row slab
	slabN    int      // the current row slab's size
	names    []string // the uncarved tail of the current holder-list slab
	namesN   int      // the current holder-list slab's size
	log      []Entry  // each write's row as it left it, since the last StartLog or SwapLog; nil before the first
	// sole holds one published one-element list per node, shared by every
	// row that node alone holds: lists are never edited, so a version's
	// first replica — most versions' only one — allocates nothing.
	sole map[string][]string
}

// NewRegistry returns an empty location registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[deps.DataID]int32), sole: make(map[string][]string)}
}

// carve hands out n elements of *tail, the uncarved rest of a slab of
// *size, starting a new slab when the tail is too short. Slabs start at
// 256 elements and double up to 16384.
func carve[T any](tail *[]T, size *int, n int) []T {
	if len(*tail) < n {
		*size = min(max(2**size, 256), 1<<14)
		*tail = make([]T, max(n, *size))
	}
	s := (*tail)[:n:n]
	*tail = (*tail)[n:]
	return s
}

// find returns k's row, or nil. Caller holds mu.
func (r *Registry) find(k deps.Version) *row {
	at, ok := r.index[k.Data]
	if !ok {
		return nil
	}
	c := &r.cols[at]
	if i, ok := c.at(k.Ver); ok {
		return &c.rows[i]
	}
	return nil
}

// slot returns k's row, inserting an empty one in version order when k
// has none. Caller holds mu for writing.
func (r *Registry) slot(k deps.Version) *row {
	at, ok := r.index[k.Data]
	if !ok {
		if n := len(r.cols); n > 0 && r.cols[n-1].data > k.Data {
			r.unsorted = true
		}
		r.index[k.Data] = int32(len(r.cols))
		rows := carve(&r.slab, &r.slabN, 1)
		rows[0].ver = k.Ver
		r.cols = append(r.cols, column{data: k.Data, lo: k.Ver, rows: rows})
		return &rows[0]
	}
	c := &r.cols[at]
	i, ok := c.at(k.Ver)
	if ok {
		return &c.rows[i]
	}
	n := len(c.rows)
	if n == cap(c.rows) {
		moved := carve(&r.slab, &r.slabN, 2*n)[:n]
		copy(moved, c.rows)
		clear(c.rows) // the old carving keeps no holder list alive
		c.rows = moved
	}
	c.rows = c.rows[:n+1]
	copy(c.rows[i+1:], c.rows[i:n])
	c.rows[i] = row{ver: k.Ver}
	c.lo = c.rows[0].ver
	return &c.rows[i]
}

// logLocked appends rw, k's row as a write left it, to the checkpoint
// log once a base capture has opened it.
func (r *Registry) logLocked(k deps.Version, rw *row) {
	if r.log != nil {
		r.log = append(r.log, Entry{Key: k, Size: rw.size, Locations: rw.holders})
	}
}

// sortLocked puts the columns in datum order. Caller holds mu for writing.
func (r *Registry) sortLocked() {
	if !r.unsorted {
		return
	}
	slices.SortFunc(r.cols, func(a, b column) int { return cmp.Compare(a.data, b.data) })
	for i, c := range r.cols {
		r.index[c.data] = int32(i)
	}
	r.unsorted = false
}

// Row returns k's recorded size (0 if unknown) and the nodes holding a
// replica, sorted by name — the one read every consumer builds on
// (getLocations, paper Sec. VI-A-1: it "will enable the runtime to exploit
// the locality of the data by scheduling tasks in the location where the
// data resides"). The holder list is shared and immutable: callers may
// keep it, and must not modify it.
func (r *Registry) Row(k deps.Version) (size int64, holders []string) {
	r.mu.RLock()
	if rw := r.find(k); rw != nil {
		size, holders = rw.size, rw.holders
	}
	r.mu.RUnlock()
	return size, holders
}

// holds reports whether the sorted holder list names node.
func holds(holders []string, node string) bool {
	_, ok := slices.BinarySearch(holders, node)
	return ok
}

// SetSize records the size in bytes of a data version.
func (r *Registry) SetSize(k deps.Version, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.slot(k)
	rw.size = bytes
	r.logLocked(k, rw)
}

// Size returns the recorded size of a data version (0 if unknown).
func (r *Registry) Size(k deps.Version) int64 {
	size, _ := r.Row(k)
	return size
}

// AddReplica records that node holds a copy of k.
func (r *Registry) AddReplica(k deps.Version, node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.slot(k)
	at, held := slices.BinarySearch(rw.holders, node)
	switch {
	case held:
	case len(rw.holders) == 0:
		if rw.holders = r.sole[node]; rw.holders == nil {
			rw.holders = []string{node}
			r.sole[node] = rw.holders
		}
	default:
		h := carve(&r.names, &r.namesN, len(rw.holders)+1)[:0] // appends within the carving
		rw.holders = append(append(append(h, rw.holders[:at]...), node), rw.holders[at:]...)
	}
	r.logLocked(k, rw)
}

// Seed installs a whole row at once — the restore of one checkpointed
// catalog row: the size when positive, and every holder, under one lock
// with one log record. holders is shared, not copied, when k has no
// holders yet and the list is sorted and duplicate-free (what a capture
// writes); the caller must not modify it afterwards. Any other list is
// merged onto a fresh one, so the row stays sorted and duplicate-free
// whatever a file held.
func (r *Registry) Seed(k deps.Version, size int64, holders []string) {
	if size <= 0 && len(holders) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rw := r.slot(k)
	if size > 0 {
		rw.size = size
	}
	switch {
	case len(holders) == 0:
	case len(rw.holders) == 0 && strictlySorted(holders):
		rw.holders = holders
	default:
		merged := carve(&r.names, &r.namesN, len(rw.holders)+len(holders))[:0]
		merged = append(append(merged, rw.holders...), holders...)
		slices.Sort(merged)
		rw.holders = slices.Clip(slices.Compact(merged))
	}
	r.logLocked(k, rw)
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

// DropNode forgets every replica held by node (node failure). It returns
// the keys that lost their last replica, in key order — the data that
// must be recovered by re-execution (E7).
func (r *Registry) DropNode(node string) []deps.Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sortLocked()
	var lost []deps.Version
	for ci := range r.cols {
		c := &r.cols[ci]
		for i := range c.rows {
			rw := &c.rows[i]
			at, held := slices.BinarySearch(rw.holders, node)
			if !held {
				continue
			}
			k := deps.Version{Data: c.data, Ver: rw.ver}
			if len(rw.holders) == 1 {
				rw.holders = nil
				lost = append(lost, k)
			} else {
				h := carve(&r.names, &r.namesN, len(rw.holders)-1)[:0]
				rw.holders = append(append(h, rw.holders[:at]...), rw.holders[at+1:]...)
			}
			r.logLocked(k, rw)
		}
	}
	return lost
}

// Where returns the nodes holding a replica of k, sorted (Row's shared,
// read-only list).
func (r *Registry) Where(k deps.Version) []string {
	_, holders := r.Row(k)
	return holders
}

// LocalBytes sums the sizes of the given keys already present on node —
// the locality score asked candidate by candidate. Only the test-only scan
// oracles ask it that way; sched.Locality.Choose asks each input for its
// holders instead.
func (r *Registry) LocalBytes(node string, keys []deps.Version) int64 {
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
	Key       deps.Version
	Size      int64
	Locations []string
}

// Entries dumps the whole catalog, sorted by key — the data half of a
// checkpoint snapshot (internal/engine/checkpoint). Keys that have a
// recorded size but no replica yet (declared ahead of production) are
// included with empty locations.
func (r *Registry) Entries() []Entry {
	return r.entries(false)
}

// StartLog is Entries for a base capture: under the same lock it opens
// the checkpoint log empty, so the base and the rows logged after it hold
// every write between them. A later call starts the log over.
func (r *Registry) StartLog() []Entry {
	return r.entries(true)
}

func (r *Registry) entries(startLog bool) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sortLocked()
	n := 0
	for _, c := range r.cols {
		n += len(c.rows)
	}
	out := make([]Entry, 0, n)
	for ci := range r.cols {
		c := &r.cols[ci]
		for i := range c.rows {
			if rw := &c.rows[i]; rw.size != 0 || len(rw.holders) > 0 {
				out = append(out, Entry{Key: deps.Version{Data: c.data, Ver: rw.ver}, Size: rw.size, Locations: rw.holders})
			}
		}
	}
	if startLog {
		r.log = make([]Entry, 0, len(r.log))
	}
	return out
}

// SwapLog hands over the rows logged since the last StartLog or SwapLog,
// in append order — a key's last one is its row now, an emptied row
// included — and goes on logging into spare's array, emptied (nil starts
// a new one). Before StartLog it returns nil.
func (r *Registry) SwapLog(spare []Entry) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	if out != nil {
		if cap(spare) < max(len(out), 1) { // room for a group like the last; never nil
			spare = make([]Entry, 0, max(len(out), 1))
		}
		r.log = spare[:0]
	}
	return out
}

// CheckLayout returns the first broken invariant of the registry's
// layout, or nil: the index and the columns map one to one, in datum
// order unless a datum arrived out of order since the last ordered walk;
// every column is non-empty, strictly sorted by version and starts at its
// lo; every holder list is strictly sorted, and no two rows' lists of two
// or more holders overlap (a carve that keeps its slab's tail would); and
// the checkpoint log's newest entry for each key it names is that key's
// row now — a write that logs nothing, or logs before it is done, breaks
// it. The engine's step checks call it.
func (r *Registry) CheckLayout() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.index) != len(r.cols) {
		return fmt.Errorf("index holds %d data, %d columns", len(r.index), len(r.cols))
	}
	carved := make(map[*string]deps.Version) // the row of each name in a list of two or more
	for ci, c := range r.cols {
		if at, ok := r.index[c.data]; !ok || int(at) != ci {
			return fmt.Errorf("datum %d sits in column %d, the index says %d (%v)", c.data, ci, at, ok)
		}
		if ci > 0 && !r.unsorted && r.cols[ci-1].data >= c.data {
			return fmt.Errorf("column %d (datum %d) follows datum %d", ci, c.data, r.cols[ci-1].data)
		}
		if len(c.rows) == 0 || c.lo != c.rows[0].ver {
			return fmt.Errorf("datum %d: %d rows, lo %d", c.data, len(c.rows), c.lo)
		}
		for i, rw := range c.rows {
			k := deps.Version{Data: c.data, Ver: rw.ver}
			if i > 0 && c.rows[i-1].ver >= rw.ver {
				return fmt.Errorf("%v follows version %d", k, c.rows[i-1].ver)
			}
			if !strictlySorted(rw.holders) {
				return fmt.Errorf("%v: holder list %v not strictly sorted", k, rw.holders)
			}
			for j := 0; j < len(rw.holders) && len(rw.holders) > 1; j++ { // sole lists are shared
				if other, dup := carved[&rw.holders[j]]; dup {
					return fmt.Errorf("%v: holder list %v overlaps %v's", k, rw.holders, other)
				}
				carved[&rw.holders[j]] = k
			}
		}
	}
	logged := slices.Clone(r.log) // sorted stably: a key's newest entry ends its run
	slices.SortStableFunc(logged, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Key.Data, b.Key.Data), cmp.Compare(a.Key.Ver, b.Key.Ver))
	})
	for i, en := range logged {
		newest := i+1 == len(logged) || logged[i+1].Key != en.Key
		if rw := r.find(en.Key); newest && (rw == nil || rw.size != en.Size || !slices.Equal(rw.holders, en.Locations)) {
			return fmt.Errorf("%v: newest logged row %d %v, the row is %+v", en.Key, en.Size, en.Locations, rw)
		}
	}
	return nil
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
	MissingKeys []deps.Version
	// UnreachableKeys lists keys that do have replicas, but every one
	// sits behind a cut link (network partition): nothing is lost, yet
	// nothing can be fetched until the partition heals. The engine's
	// availability policies (engine.Availability) treat the two cases
	// differently — lost data is recomputed through lineage, partitioned
	// data can simply be waited out.
	UnreachableKeys []deps.Version
}

// Move is one planned fetch.
type Move struct {
	Key  deps.Version
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

// PlanInto computes the transfers needed so dest holds every key, choosing
// the fastest source for each (replicas already local cost nothing). Its
// Moves are appended to buf[:0], so plan into buf again only once the plan
// is done with; a nil buf costs one allocation when anything moves.
// Keys that cannot be materialised are classified rather than planned: no
// replica anywhere → MissingKeys (lost; only re-execution can bring the
// data back), replicas present but every one behind a cut link →
// UnreachableKeys (partitioned; a heal makes them plannable again).
func (m *Manager) PlanInto(buf []Move, dest string, keys []deps.Version) Plan {
	p := Plan{Moves: buf[:0]}
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
			p.Moves = make([]Move, 0, len(keys)-i)
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
