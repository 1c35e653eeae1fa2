// Placement index — the load-indexed node structure that ends the
// O(pool) placement scan. Placeability depends only on a task's
// constraint *signature*, so the pool interns every distinct constraint
// set to a dense SigID. Signatures whose capable nodes are the same set
// share one capability class: the member nodes that could statically run
// such tasks, in pool insertion order, plus a min-heap of the undrained
// members ordered by busy-core fraction (ties broken by node name, the
// deterministic order scan- and index-backed picks agree on). A
// heterogeneous pool sees many signatures but few distinct capable sets,
// so a load change is queued and repaired once per class, not once per
// signature. Membership follows Pool.Add/Remove and Node.Drain/Undrain;
// load follows every Reserve/Release through a node→index notification
// that looks nothing up by name (a node holds its rec per watching index,
// a rec its entry per class). A notification eagerly refreshes the cached
// capacity and each signature's fitCount, so "no capacity" stays an O(1)
// answer; the load heaps are repaired lazily, by the next pick that walks
// one. Policies query through Candidates, whose one by-name door,
// ByName, lets a scorer that knows its few candidates by name (locality's
// input holders) ask about them without walking the class.
//
// Locking: the index has one mutex and is a leaf — index methods never
// acquire a pool or node lock. Nodes notify their watching indexes while
// holding their own mutex (node.mu → idx.mu), so deliveries are ordered
// and the cache can never run backwards; queries read only the cached
// state and the immutable Description. The lock hierarchy is
// pool.mu → node.mu → idx.mu, acquired strictly left to right.
package resources

import (
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/minheap"
)

// SigID is a pool's dense identifier of one distinct constraint set,
// assigned on first query. IDs of different pools are unrelated.
type SigID int32

// sigKey is the comparable identity of a constraint set: interning one
// without Software costs a struct-keyed map lookup and builds no string.
// software is Signature() for sets that name software, empty otherwise.
type sigKey struct {
	cores, gpus, nodes int
	memMB              int64
	class              Class
	software           string
}

// capState is a node's dynamic capacity — the fields Reserve, Release
// and Drain mutate. The node owns one; the index caches a copy, refreshed
// on every change.
type capState struct {
	freeCores int
	freeMemMB int64
	freeGPUs  int
	drained   bool
}

// fits reports whether the free capacity covers c's demand.
func (st capState) fits(c Constraints) bool {
	return c.EffectiveCores() <= st.freeCores &&
		c.MemoryMB <= st.freeMemMB &&
		c.GPUs <= st.freeGPUs
}

// rec is the index's record of one node: immutable description, cached
// capacity, its entry in every capability class it belongs to, rank — the
// name's position among the index's node names, the load order's
// tie-break as an integer (see rankLocked) — and seq, its insertion
// number: records compare by seq exactly as they stand in pool order.
type rec struct {
	x    *Index
	n    *Node
	desc Description
	st   capState
	rank int
	seq  uint64
	ents []*classEntry
}

// classEntry is one node's membership in one capability class. pos is
// its slot in the class's load heap, -1 while not in it (drained, or not
// yet repaired in). busy/cores is the busy-core fraction the heap last
// arranged it by: the heap is ordered over these entry-local keys, never
// over live node state, so it stays valid while a node's change waits in
// stale for the class's next walk.
type classEntry struct {
	r           *rec
	cc          *capClass
	pos         int
	busy, cores int64
	stale       bool
}

// rekey copies the node's current load into the entry (a node without
// cores counts as fully busy).
func (e *classEntry) rekey() {
	e.busy, e.cores = 1, 1
	if c := e.r.desc.Cores; c > 0 {
		e.busy, e.cores = int64(c-e.r.st.freeCores), int64(c)
	}
}

// loadLess is the load order shared by the heap and the pick walk:
// ascending busy fraction (cross-multiplied: exact, no division), ties
// broken by name rank so the winner never depends on insertion order.
func loadLess(a, b *classEntry) bool {
	if l, r := a.busy*b.cores, b.busy*a.cores; l != r {
		return l < r
	}
	return a.r.rank < b.r.rank
}

// capClass is the capability set of every signature whose description
// test passes on exactly the same nodes: those nodes in pool insertion
// order, plus the load heap over the undrained members. Only addNode
// splits a class (see split); no class is left without a signature, so
// an index holds at most one class per signature.
type capClass struct {
	sigs    []*sigSet     // the signatures capable on exactly these members
	members []*classEntry // insertion order, drained included
	heap    minheap.Heap[*classEntry]
	stale   []*classEntry // members whose heap slot or key is out of date
}

func newClass() *capClass {
	cc := &capClass{}
	cc.heap.Less = loadLess
	cc.heap.Moved = func(e *classEntry, i int) { e.pos = i }
	return cc
}

// sigSet is one constraint signature: its identity, its capability class
// and its own fitCount.
type sigSet struct {
	id    SigID
	label string      // Constraints.Signature(): traces, gauges, SigLoad.Sig
	c     Constraints // representative constraints for the signature
	need  capState    // c's demand, as the free capacity that covers it
	cc    *capClass
	// fitCount is the number of undrained members that currently fit the
	// signature's capacity demand. Every query against this signature
	// carries the same demand (equal signatures ⇒ equal
	// Cores/MemoryMB/GPUs), so the count answers "no capacity" in O(1) —
	// the saturated-pool case that would otherwise walk the whole heap to
	// conclude nil. Eager, and per signature: the signatures of one class
	// share capability, not demand.
	fitCount int
}

// entryFits reports whether a state counts toward fitCount: st.fits(s.c)
// for an undrained node, read from need so a notification, which asks it
// twice per signature, copies no Constraints.
func (s *sigSet) entryFits(st capState) bool {
	return !st.drained && s.need.freeCores <= st.freeCores &&
		s.need.freeMemMB <= st.freeMemMB && s.need.freeGPUs <= st.freeGPUs
}

func (cc *capClass) markStale(e *classEntry) {
	if !e.stale {
		e.stale = true
		cc.stale = append(cc.stale, e)
	}
}

// minFitting returns the least-loaded undrained member that currently
// fits c, walking the (repaired) heap top-down and pruning every subtree
// whose root is already no better than the best fitting candidate found —
// by the heap property its descendants cannot improve on it either. The
// result is exactly the (load, name)-minimum of the fitting set, i.e.
// what a full MinLoad scan with the name tie-break would pick, at a cost
// that is O(log n) when the least-loaded node fits (the common case) and
// never worse than one heap traversal.
func (cc *capClass) minFitting(c Constraints) *rec {
	var best *classEntry
	var walk func(i int)
	walk = func(i int) {
		if i >= cc.heap.Len() {
			return
		}
		e := cc.heap.At(i)
		if best != nil && !loadLess(e, best) {
			return
		}
		if e.r.st.fits(c) {
			best = e
			return
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	if best == nil {
		return nil
	}
	return best.r
}

// Index is a pool's placement index. Every Pool owns one (created by
// NewPool and kept consistent by Add/Remove and node notifications);
// signatures are interned lazily on first query, and their classes
// maintained incrementally from then on.
type Index struct {
	mu      sync.Mutex
	order   []*rec      // pool insertion order (new classes inherit it)
	ranked  bool        // every rec's rank is current
	sets    []*sigSet   // by SigID
	classes []*capClass // creation order
	byKey   map[sigKey]*sigSet
	// byName holds the records of order by node name, built on the first
	// Candidates.ByName: a pool no policy asks by name never pays for it.
	byName map[string]*rec
	seq    uint64 // the last rec.seq handed out
}

func newIndex() *Index { return &Index{byKey: make(map[sigKey]*sigSet)} }

// addNode installs a node in its current state and returns its record,
// which the node hands back on every notification. Called with the
// node's mutex held (see Node.attachIndex), so no capacity change can
// slip in between.
func (x *Index) addNode(n *Node, st capState) *rec {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.seq++
	r := &rec{x: x, n: n, desc: n.desc, st: st, seq: x.seq}
	x.order = append(x.order, r)
	if x.byName != nil {
		x.byName[n.name] = r
	}
	x.ranked = false
	// The range reads x.classes once: a class split off here holds only
	// signatures the new node does not satisfy, so it is not visited.
	for _, cc := range x.classes {
		sat := 0
		for _, s := range cc.sigs {
			if r.desc.Satisfies(s.c) {
				sat++
			}
		}
		if sat == 0 {
			continue
		}
		if sat < len(cc.sigs) {
			x.split(cc, r.desc)
		}
		cc.join(r)
	}
	return r
}

// split moves the signatures of cc that d does not satisfy to a new class
// with the same members, queued stale so its first walk builds its heap;
// the moved signatures' fitCounts are recounted by the joins.
func (x *Index) split(cc *capClass, d Description) {
	nc := newClass()
	kept := cc.sigs[:0]
	for _, s := range cc.sigs {
		if d.Satisfies(s.c) {
			kept = append(kept, s)
		} else {
			s.cc, s.fitCount = nc, 0
			nc.sigs = append(nc.sigs, s)
		}
	}
	clear(cc.sigs[len(kept):])
	cc.sigs = kept
	for _, e := range cc.members {
		nc.join(e.r)
	}
	x.classes = append(x.classes, nc)
}

// removeNode drops a node from every capability class.
func (x *Index) removeNode(r *rec) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.order = without(x.order, r)
	delete(x.byName, r.n.name)
	for _, e := range r.ents {
		cc := e.cc
		if e.pos >= 0 {
			cc.heap.Remove(e.pos)
		}
		cc.tally(r.st, -1)
		cc.members = without(cc.members, e)
		if e.stale { // an unwalked class must not keep the node's record alive
			cc.stale = without(cc.stale, e)
		}
	}
	r.ents = nil
}

// without returns s with its first x removed.
func without[T comparable](s []T, x T) []T {
	if i := slices.Index(s, x); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// changed refreshes a node's cached capacity and every fitCount it
// moves, and queues its heap entry in each of its classes for repair —
// once per class, however many signatures share it. Called with the
// node's mutex held, after every Reserve/Release/Drain/Undrain.
func (r *rec) changed(st capState) {
	x := r.x
	x.mu.Lock()
	defer x.mu.Unlock()
	was := r.st
	r.st = st
	for _, e := range r.ents {
		e.cc.tally(was, -1)
		e.cc.tally(st, 1)
		e.cc.markStale(e)
	}
}

// tally adds d to the fitCount of every signature of cc that st fits.
func (cc *capClass) tally(st capState, d int) {
	for _, s := range cc.sigs {
		if s.entryFits(st) {
			s.fitCount += d
		}
	}
}

// join adds a record to the class (membership at the end — callers
// preserve pool insertion order) and to its signatures' fitCounts; the
// next repair puts it in the heap.
func (cc *capClass) join(r *rec) {
	e := &classEntry{r: r, cc: cc, pos: -1}
	cc.members = append(cc.members, e)
	r.ents = append(r.ents, e)
	cc.tally(r.st, 1)
	cc.markStale(e)
}

// rankLocked numbers the records in node-name order. Removals keep the
// surviving ranks in name order, so only an addition makes it run.
func (x *Index) rankLocked() {
	if x.ranked {
		return
	}
	sorted := append([]*rec(nil), x.order...)
	slices.SortFunc(sorted, func(a, b *rec) int { return strings.Compare(a.n.name, b.n.name) })
	for i, r := range sorted {
		r.rank = i
	}
	x.ranked = true
}

// repairLocked brings cc's load heap up to date with its members' cached
// state — the lazy half of a notification, run before anything reads the
// heap. Stale entries are re-keyed and settled one at a time, so the heap
// is valid over its own keys at every step.
func (x *Index) repairLocked(cc *capClass) {
	if len(cc.stale) == 0 {
		return
	}
	x.rankLocked()
	for _, e := range cc.stale {
		e.stale = false
		e.rekey()
		switch in := !e.r.st.drained; {
		case in && e.pos < 0:
			cc.heap.Push(e)
		case !in && e.pos >= 0:
			cc.heap.Remove(e.pos)
		case in:
			cc.heap.Fix(e.pos)
		}
	}
	cc.stale = cc.stale[:0]
}

// sigFor interns c and returns its signature set. On first use it joins
// the class whose members are exactly c's capable nodes (pool insertion
// order), or founds one. sig is c.Signature() or empty; it is read only
// when c names software.
func (x *Index) sigFor(sig string, c Constraints) *sigSet {
	x.mu.Lock()
	defer x.mu.Unlock()
	key := sigKey{cores: c.Cores, gpus: c.GPUs, nodes: c.Nodes, memMB: c.MemoryMB, class: c.Class}
	if len(c.Software) > 0 {
		if key.software = sig; sig == "" {
			key.software = c.Signature()
		}
	}
	if s, ok := x.byKey[key]; ok {
		return s
	}
	capable := make([]*rec, 0, len(x.order))
	for _, r := range x.order {
		if r.desc.Satisfies(c) {
			capable = append(capable, r)
		}
	}
	i := slices.IndexFunc(x.classes, func(cc *capClass) bool {
		return slices.EqualFunc(cc.members, capable, func(e *classEntry, r *rec) bool { return e.r == r })
	})
	if i < 0 {
		i = len(x.classes)
		x.classes = append(x.classes, newClass())
		for _, r := range capable {
			x.classes[i].join(r) // no signature yet: fitCounts are untouched
		}
	}
	c.Software = slices.Clone(c.Software) // the signature keeps no caller's list
	s := &sigSet{id: SigID(len(x.sets)), label: c.Signature(), c: c, cc: x.classes[i],
		need: capState{freeCores: c.EffectiveCores(), freeMemMB: c.MemoryMB, freeGPUs: c.GPUs}}
	s.cc.sigs = append(s.cc.sigs, s)
	for _, e := range s.cc.members {
		if s.entryFits(e.r.st) {
			s.fitCount++
		}
	}
	x.sets = append(x.sets, s)
	x.byKey[key] = s
	return s
}

// SigIndex is one constraint signature's view of the placement index:
// capability membership plus load order. Obtain one with Pool.IndexFor;
// a placement policy reads it through Candidates. The view stays valid
// across pool churn — it reads the live index under its lock on every
// call.
type SigIndex struct {
	x *Index
	s *sigSet
}

// IndexFor returns the placement-index view for c's constraint
// signature, interning it and joining or founding its capability class on
// first use.
func (p *Pool) IndexFor(c Constraints) SigIndex { return p.IndexForSig("", c) }

// IndexForSig is IndexFor for callers that hold c.Signature() already;
// constraint sets that name software are keyed by it.
func (p *Pool) IndexForSig(sig string, c Constraints) SigIndex {
	return SigIndex{x: p.idx, s: p.idx.sigFor(sig, c)}
}

// ID returns the signature's dense identifier in this pool.
func (si SigIndex) ID() SigID { return si.s.id }

// Label returns the signature's printable form, Constraints.Signature().
func (si SigIndex) Label() string { return si.s.label }

// MinLoadFitting returns the undrained member with the lowest busy-core
// fraction that currently fits c (ties by node name), or nil when no
// member fits — exactly the node a full MinLoad scan would pick.
func (si SigIndex) MinLoadFitting(c Constraints) *Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	if si.s.fitCount == 0 {
		return nil // saturated: answer in O(1), not a repair and a fruitless walk
	}
	si.x.repairLocked(si.s.cc)
	if r := si.s.cc.minFitting(c); r != nil {
		return r.n
	}
	return nil
}

// eachFitting calls fn for every member that currently fits c (undrained,
// enough free capacity), in pool insertion order, with its cached free
// cores. fn runs under the index's leaf lock, so it is this package's own
// code and takes no node mutex: a node holds its own while it notifies
// the index (node.mu → idx.mu), so taking one here would deadlock.
func (si SigIndex) eachFitting(c Constraints, fn func(n *Node, freeCores int)) {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	// fitCount is exact for the signature's demand (see sigSet), so a
	// saturated signature costs O(1) and the walk ends at the last fitting
	// member.
	left := si.s.fitCount
	for _, e := range si.s.cc.members {
		if left == 0 {
			return
		}
		if !e.r.st.drained && e.r.st.fits(c) {
			fn(e.r.n, e.r.st.freeCores)
			left--
		}
	}
}

// AppendCapable appends every member (drained included — capability
// ignores load and cordons) to dst in pool insertion order.
func (si SigIndex) AppendCapable(dst []*Node) []*Node {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	for _, e := range si.s.cc.members {
		dst = append(dst, e.r.n)
	}
	return dst
}

// Len returns the capability-set size (drained members included).
func (si SigIndex) Len() int {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	return len(si.s.cc.members)
}

// FitCount returns the number of members that currently fit the
// signature's reference constraints (undrained, enough free capacity) —
// the exact saturation counter the index maintains for O(1) no-capacity
// waves, exported as the autoscaler's per-signature supply signal.
func (si SigIndex) FitCount() int {
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	return si.s.fitCount
}

// Candidates is what a placement policy chooses among: the nodes that
// currently fit one task, in pool insertion order, never none. The
// unfiltered form (SigIndex.Candidates) is the task's signature read
// through the placement index: each operation is one query under the
// index's leaf lock that runs no caller code, and builds no list unless
// asked to. The filtered form (ListCandidates) is an explicit list: a
// hinted placement's reachable nodes, a multi-node group's fitting set,
// the feedable re-offer's nodes, WaitFast's fast subset. Every operation
// answers the same question over either form, so a policy is written
// once; one that costs candidates against the registry or the network
// walks Nodes(), outside the index's lock.
type Candidates struct {
	si   SigIndex    // the unfiltered form's signature (si.x nil in the filtered form)
	c    Constraints // the demand the unfiltered form's queries test
	list []*Node     // the filtered form's nodes
	buf  *[]*Node    // where Nodes and Filter materialize; nil: a new slice
}

// Candidates returns the unfiltered view of the members that fit c. When
// buf is non-nil, Nodes and Filter materialize into *buf (keeping a grown
// array there), so a caller that keeps one buffer allocates nothing for
// them; what they return is valid until the buffer's next use.
func (si SigIndex) Candidates(c Constraints, buf *[]*Node) Candidates {
	return Candidates{si: si, c: c, buf: buf}
}

// ListCandidates returns the filtered view over nodes, which fit the task
// and are in pool insertion order.
func ListCandidates(nodes []*Node) Candidates { return Candidates{list: nodes} }

// First returns the first candidate in pool order.
func (cs Candidates) First() *Node {
	if cs.si.x == nil {
		return cs.list[0]
	}
	cs.si.x.mu.Lock()
	defer cs.si.x.mu.Unlock()
	for _, e := range cs.si.s.cc.members {
		if !e.r.st.drained && e.r.st.fits(cs.c) {
			return e.r.n
		}
	}
	return nil
}

// MinLoad returns the candidate with the lowest busy-core fraction, ties
// broken by node name, so the pick never depends on pool order. The
// unfiltered form walks the signature's load heap.
func (cs Candidates) MinLoad() *Node {
	if cs.si.x != nil {
		return cs.si.MinLoadFitting(cs.c)
	}
	best := cs.list[0]
	for _, n := range cs.list[1:] {
		if f, bf := loadFrac(n), loadFrac(best); f < bf || f == bf && n.Name() < best.Name() {
			best = n
		}
	}
	return best
}

// loadFrac is a node's busy-core fraction; a node without cores counts as
// fully busy, as in the load heap.
func loadFrac(n *Node) float64 {
	if c := n.Desc().Cores; c > 0 {
		busy, _, _ := n.Reserved()
		return float64(busy) / float64(c)
	}
	return 1
}

// PowerOfTwo samples two candidates through rng and returns the less
// loaded one ((fraction, name) order). Each form samples its own way,
// deterministically given the pool, the loads and rng. The unfiltered
// form draws from the signature's member list — pool order, so the pick
// does not depend on what was walked before — and counts a drained or
// full sample as not fitting; when neither fits it falls back to
// MinLoad, so sampling never turns a placeable task into a decline. The
// filtered form draws from its list, and draws nothing from a list of one.
func (cs Candidates) PowerOfTwo(rng *rand.Rand) *Node {
	if cs.si.x == nil {
		if len(cs.list) == 1 {
			return cs.list[0]
		}
		a, b := cs.list[rng.Intn(len(cs.list))], cs.list[rng.Intn(len(cs.list))]
		if fa, fb := loadFrac(a), loadFrac(b); a == b || fa < fb || fa == fb && a.Name() < b.Name() {
			return a
		}
		return b
	}
	si := cs.si
	si.x.mu.Lock()
	defer si.x.mu.Unlock()
	if si.s.fitCount == 0 {
		return nil
	}
	cc := si.s.cc
	si.x.repairLocked(cc) // current load keys for the samples, a valid heap for the fallback
	n := len(cc.members)
	a := cc.members[rng.Intn(n)]
	b := a
	if n > 1 {
		b = cc.members[rng.Intn(n)]
	}
	if loadLess(b, a) {
		a, b = b, a
	}
	for _, e := range [2]*classEntry{a, b} {
		if !e.r.st.drained && e.r.st.fits(cs.c) {
			return e.r.n
		}
	}
	if r := cc.minFitting(cs.c); r != nil {
		return r.n
	}
	return nil
}

// ByName returns the named node when it is a candidate, with its free
// cores and seq, a number that orders candidates as pool order does (a
// node removed and added again sorts last); n is nil otherwise. The
// unfiltered form answers from the index without walking the set: a
// scorer whose only non-zero candidates are a few named nodes asks about
// those.
func (cs Candidates) ByName(name string) (n *Node, freeCores int, seq uint64) {
	if cs.si.x == nil {
		for i, n := range cs.list {
			if n.Name() == name {
				return n, n.FreeCores(), uint64(i)
			}
		}
		return nil, 0, 0
	}
	x := cs.si.x
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.byName == nil {
		x.byName = make(map[string]*rec, len(x.order))
		for _, r := range x.order {
			x.byName[r.n.name] = r
		}
	}
	r := x.byName[name]
	if r == nil || r.st.drained || !r.st.fits(cs.c) {
		return nil, 0, 0
	}
	for _, e := range r.ents {
		if e.cc == cs.si.s.cc {
			return r.n, r.st.freeCores, r.seq
		}
	}
	return nil, 0, 0
}

// MostFree returns the candidate with the most free cores, the first in
// pool order among equals.
func (cs Candidates) MostFree() *Node {
	var best *Node
	bestFree := 0
	more := func(n *Node, free int) {
		if best == nil || free > bestFree {
			best, bestFree = n, free
		}
	}
	if cs.si.x != nil {
		cs.si.eachFitting(cs.c, more)
	}
	for _, n := range cs.list {
		more(n, n.FreeCores())
	}
	return best
}

// Nodes returns the candidates as a list in pool order: the filtered
// form's own, or the unfiltered form's materialized into its buffer.
func (cs Candidates) Nodes() []*Node {
	if cs.si.x == nil {
		return cs.list
	}
	dst := cs.scratch()
	cs.si.eachFitting(cs.c, func(n *Node, _ int) { dst = append(dst, n) })
	return cs.store(dst)
}

// Filter returns the filtered view of the candidates keep accepts, which
// may be none. It is built in the view's buffer — in place when Nodes put
// the list there (a write never passes the read), never in a list held
// elsewhere — and keep runs outside the index's lock.
func (cs Candidates) Filter(keep func(*Node) bool) Candidates {
	src, dst := cs.Nodes(), cs.scratch()
	for _, n := range src {
		if keep(n) {
			dst = append(dst, n)
		}
	}
	return Candidates{list: cs.store(dst), buf: cs.buf}
}

// scratch returns the view's buffer emptied, or nil when it has none.
func (cs Candidates) scratch() []*Node {
	if cs.buf == nil {
		return nil
	}
	return (*cs.buf)[:0]
}

// store keeps dst in the view's buffer, so a grown array is reused next
// time, and returns it.
func (cs Candidates) store(dst []*Node) []*Node {
	if cs.buf != nil {
		*cs.buf = dst
	}
	return dst
}
