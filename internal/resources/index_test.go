package resources

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// indexSigs are the constraint signatures the churn property test keeps
// live — a spread over cores, memory, GPUs, class and software so nodes
// belong to overlapping subsets of the signature sets.
var indexSigs = []Constraints{
	{},
	{Cores: 2},
	{Cores: 4, MemoryMB: 8_000},
	{GPUs: 1},
	{Class: HPC},
	{Software: []string{"blas"}},
}

// indexDescs are the node shapes the churn test draws from.
var indexDescs = []Description{
	{Cores: 8, MemoryMB: 32_000, SpeedFactor: 1, Class: HPC, Software: []string{"blas", "mpi"}},
	{Cores: 4, MemoryMB: 16_000, SpeedFactor: 1, Class: Cloud},
	{Cores: 2, MemoryMB: 8_000, SpeedFactor: 0.5, Class: Fog},
	{Cores: 8, MemoryMB: 64_000, GPUs: 2, SpeedFactor: 1, Class: Cloud, Software: []string{"blas"}},
	{Cores: 1, MemoryMB: 2_000, SpeedFactor: 0.2, Class: Edge},
}

// scanFitting is the from-scratch reference the index must match: every
// pool node that currently accepts c, in pool insertion order.
func scanFitting(p *Pool, c Constraints) []*Node {
	var out []*Node
	for _, n := range p.Nodes() {
		if n.CanReserve(c) {
			out = append(out, n)
		}
	}
	return out
}

// scanMinLoad is the reference MinLoad pick: the fitting node with the
// lowest busy-core fraction, ties broken by name.
func scanMinLoad(p *Pool, c Constraints) *Node {
	var best *Node
	bestFrac := 0.0
	for _, n := range p.Nodes() {
		if !n.CanReserve(c) {
			continue
		}
		f := float64(busyCores(n)) / float64(n.Desc().Cores)
		if best == nil || f < bestFrac || (f == bestFrac && n.Name() < best.Name()) {
			best, bestFrac = n, f
		}
	}
	return best
}

func checkIndexAgainstScan(t *testing.T, p *Pool, step int) {
	t.Helper()
	for _, c := range indexSigs {
		want := scanFitting(p, c)
		got := p.Fitting(c)
		if len(got) != len(want) {
			t.Fatalf("step %d sig %q: Fitting returned %d nodes, scan %d", step, c.Signature(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d sig %q: Fitting[%d] = %s, scan says %s", step, c.Signature(), i, got[i].Name(), want[i].Name())
			}
		}
		wantCap := 0
		for _, n := range p.Nodes() {
			if n.Desc().Satisfies(c) {
				wantCap++
			}
		}
		if gotCap := len(p.IndexFor(c).AppendCapable(nil)); gotCap != wantCap {
			t.Fatalf("step %d sig %q: Capable returned %d nodes, scan %d", step, c.Signature(), gotCap, wantCap)
		}
		if p.AnyCapable(c) != (wantCap > 0) {
			t.Fatalf("step %d sig %q: AnyCapable = %v with %d capable", step, c.Signature(), p.AnyCapable(c), wantCap)
		}
		si := p.IndexFor(c)
		wantMin := scanMinLoad(p, c)
		gotMin := si.MinLoadFitting(c)
		if gotMin != wantMin {
			t.Fatalf("step %d sig %q: MinLoadFitting = %v, scan min = %v", step, c.Signature(), name(gotMin), name(wantMin))
		}
		var wantFirst *Node
		if len(want) > 0 {
			wantFirst = want[0]
		}
		if gotFirst := si.Candidates(c, nil).First(); gotFirst != wantFirst {
			t.Fatalf("step %d sig %q: first candidate = %v, scan first = %v", step, c.Signature(), name(gotFirst), name(wantFirst))
		}
		// The by-name query answers for every pool node as CanReserve does,
		// with the node's own free cores, and its seqs follow pool order.
		var prev uint64
		for _, n := range p.Nodes() {
			got, free, seq := si.Candidates(c, nil).ByName(n.Name())
			if fits := n.CanReserve(c); (got != nil) != fits || fits && (got != n || free != n.FreeCores() || seq <= prev) {
				t.Fatalf("step %d sig %q: ByName(%s) = %v, %d free, seq %d (after %d); scan says fits %v, %d free",
					step, c.Signature(), n.Name(), name(got), free, seq, prev, fits, n.FreeCores())
			}
			if got != nil {
				prev = seq
			}
		}
		if got, _, _ := si.Candidates(c, nil).ByName("no-such-node"); got != nil {
			t.Fatalf("step %d sig %q: ByName found %s under an unknown name", step, c.Signature(), got.Name())
		}
		// A Candidates view, never empty, answers alike read through the
		// index and listed: the list form is what hinted and group
		// placements ask.
		if len(want) == 0 {
			continue
		}
		var wantMost *Node
		for _, n := range want {
			if wantMost == nil || n.FreeCores() > wantMost.FreeCores() {
				wantMost = n
			}
		}
		for form, v := range [2]Candidates{si.Candidates(c, nil), ListCandidates(want)} {
			if v.First() != wantFirst || v.MinLoad() != wantMin || v.MostFree() != wantMost || !slices.Equal(v.Nodes(), want) {
				t.Fatalf("step %d sig %q, form %d: First %v, MinLoad %v, MostFree %v, %d nodes; scan %v, %v, %v, %d",
					step, c.Signature(), form, name(v.First()), name(v.MinLoad()), name(v.MostFree()), len(v.Nodes()),
					name(wantFirst), name(wantMin), name(wantMost), len(want))
			}
		}
	}
}

func name(n *Node) string {
	if n == nil {
		return "<nil>"
	}
	return n.Name()
}

// checkIndexInvariants asserts the index's structural invariants as they
// stand — without repairing anything first, so the lazily maintained
// state is what gets checked — and then once more per class after a
// repair:
//
//   - every node of the pool reaches its rec through its watcher, and the
//     rec holds exactly one entry per class that contains it, each a
//     member of its class;
//   - the name map, once built, is a bijection onto the records, and
//     insertion numbers strictly increase along the pool order and every
//     class's members;
//   - the classes partition the signatures (so there are never more
//     classes than signatures), and each signature's capable nodes, by a
//     scan in pool insertion order, are exactly its class's members;
//   - each signature's fitCount equals a recount against the nodes
//     themselves (it is eager);
//   - each class's load heap is a heap over its own keys, with exact pos
//     back-pointers, and an entry whose key or heap membership lags its
//     node is queued in stale;
//   - after repair nothing is stale, the heap holds exactly the undrained
//     members, and every key is the node's current load.
func checkIndexInvariants(t *testing.T, p *Pool, step int) {
	t.Helper()
	x := p.idx
	nodes := p.Nodes()
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.order) != len(nodes) || x.byName != nil && len(x.byName) != len(nodes) {
		t.Fatalf("step %d: index holds %d records and %d names, pool %d nodes", step, len(x.order), len(x.byName), len(nodes))
	}
	live := map[*capClass]bool{}
	for _, cc := range x.classes {
		live[cc] = true
	}
	for i, n := range nodes {
		var r *rec
		for _, w := range n.watchers {
			if w.x == x {
				r = w
			}
		}
		if r == nil || r != x.order[i] || r.n != n {
			t.Fatalf("step %d: node %s does not reach its live record at order[%d]", step, n.name, i)
		}
		if r.st != n.st {
			t.Fatalf("step %d: node %s cached state %+v, actual %+v", step, n.name, r.st, n.st)
		}
		if x.byName != nil && x.byName[n.name] != r {
			t.Fatalf("step %d: name %s does not map to its node's record", step, n.name)
		}
		if i > 0 && r.seq <= x.order[i-1].seq {
			t.Fatalf("step %d: order[%d] (%s) has seq %d, not above its predecessor's %d", step, i, n.name, r.seq, x.order[i-1].seq)
		}
		seen := map[*capClass]bool{}
		for _, e := range r.ents {
			if e.r != r || !live[e.cc] || seen[e.cc] || !slices.Contains(e.cc.members, e) {
				t.Fatalf("step %d: node %s has an entry that does not point back at it, is not a member of a live class, or shares its class", step, n.name)
			}
			seen[e.cc] = true
		}
	}
	if len(x.classes) > len(x.sets) {
		t.Fatalf("step %d: %d classes for %d signatures", step, len(x.classes), len(x.sets))
	}
	for id, s := range x.sets {
		if s.id != SigID(id) || !live[s.cc] {
			t.Fatalf("step %d sig %q: id %d at slot %d, or its class is not live", step, s.label, s.id, id)
		}
		var capable []*rec
		fit := 0
		for _, r := range x.order {
			if r.desc.Satisfies(s.c) {
				capable = append(capable, r)
				if !r.st.drained && r.st.fits(s.c) {
					fit++
				}
			}
		}
		if len(s.cc.members) != len(capable) {
			t.Fatalf("step %d sig %q: class has %d members, %d capable nodes", step, s.label, len(s.cc.members), len(capable))
		}
		for i, e := range s.cc.members {
			if e.r != capable[i] {
				t.Fatalf("step %d sig %q: member %d is %s, pool order says %s", step, s.label, i, e.r.n.name, capable[i].n.name)
			}
		}
		if s.fitCount != fit {
			t.Fatalf("step %d sig %q: fitCount %d, recount %d", step, s.label, s.fitCount, fit)
		}
	}
	nsigs := 0
	for _, cc := range x.classes {
		if len(cc.sigs) == 0 {
			t.Fatalf("step %d: a class holds no signature", step)
		}
		for _, s := range cc.sigs {
			if s.cc != cc || x.sets[s.id] != s {
				t.Fatalf("step %d sig %q: listed by a class it does not point at", step, s.label)
			}
		}
		nsigs += len(cc.sigs)
		for i, e := range cc.members {
			if e.cc != cc {
				t.Fatalf("step %d class of %q: member %s points at another class", step, cc.sigs[0].label, e.r.n.name)
			}
			if i > 0 && e.r.seq <= cc.members[i-1].r.seq {
				t.Fatalf("step %d class of %q: member %d (%s) has seq %d, not above its predecessor's %d", step, cc.sigs[0].label, i, e.r.n.name, e.r.seq, cc.members[i-1].r.seq)
			}
			if !slices.Contains(e.r.ents, e) {
				t.Fatalf("step %d class of %q: member %s is not among its record's entries", step, cc.sigs[0].label, e.r.n.name)
			}
		}
		checkLoadHeap(t, cc, step, false)
		x.repairLocked(cc)
		checkLoadHeap(t, cc, step, true)
	}
	if nsigs != len(x.sets) {
		t.Fatalf("step %d: the classes list %d signatures, the index holds %d", step, nsigs, len(x.sets))
	}
}

// checkLoadHeap checks one class's heap; repaired says nothing may lag.
func checkLoadHeap(t *testing.T, cc *capClass, step int, repaired bool) {
	t.Helper()
	label := cc.sigs[0].label
	queued := map[*classEntry]bool{}
	for _, e := range cc.stale {
		if !e.stale {
			t.Fatalf("step %d class of %q: %s is in the stale list without its flag", step, label, e.r.n.name)
		}
		queued[e] = true
	}
	if repaired && len(cc.stale) > 0 {
		t.Fatalf("step %d class of %q: %d entries stale after repair", step, label, len(cc.stale))
	}
	for i := 0; i < cc.heap.Len(); i++ {
		e := cc.heap.At(i)
		if e.pos != i {
			t.Fatalf("step %d class of %q: heap slot %d holds %s with pos %d", step, label, i, e.r.n.name, e.pos)
		}
		if i > 0 && loadLess(e, cc.heap.At((i-1)/2)) {
			t.Fatalf("step %d class of %q: heap slot %d (%s) sorts before its parent", step, label, i, e.r.n.name)
		}
	}
	inHeap := 0
	for _, e := range cc.members {
		if e.stale != queued[e] {
			t.Fatalf("step %d class of %q: %s stale flag %v, queued %v", step, label, e.r.n.name, e.stale, queued[e])
		}
		if e.pos >= 0 {
			inHeap++
			if cc.heap.At(e.pos) != e {
				t.Fatalf("step %d class of %q: %s claims heap slot %d, which holds another entry", step, label, e.r.n.name, e.pos)
			}
		}
		if e.stale {
			continue
		}
		was := *e
		e.rekey()
		if e.busy != was.busy || e.cores != was.cores || (e.pos >= 0) == e.r.st.drained {
			t.Fatalf("step %d class of %q: %s lags its node (key %d/%d, pos %d, drained %v) and is not queued for repair",
				step, label, e.r.n.name, was.busy, was.cores, e.pos, e.r.st.drained)
		}
	}
	if inHeap != cc.heap.Len() {
		t.Fatalf("step %d class of %q: heap holds %d entries, %d members claim a slot", step, label, cc.heap.Len(), inHeap)
	}
}

// classCount returns the number of capability classes p's index holds.
func classCount(p *Pool) int {
	p.idx.mu.Lock()
	defer p.idx.mu.Unlock()
	return len(p.idx.classes)
}

// churner drives a seeded, randomized interleaving of Reserve, Release,
// Add, Remove, Drain and Undrain against one pool. Half the removals add
// the name straight back as a new node, so the name map is overwritten
// in delete-then-insert order and the name moves to the end of pool order.
type churner struct {
	t    *testing.T
	rng  *rand.Rand
	pool *Pool
	held []churnHold
	next int
}

type churnHold struct {
	n *Node
	c Constraints
}

// churnStartClasses is the number of capability classes a fresh
// churner's index holds: its nodes are all of indexDescs[0]'s shape, so
// every signature but the GPU one is capable on all of them.
const churnStartClasses = 2

// newChurner starts from six nodes of indexDescs[0]'s shape, so five of
// indexSigs share one capability class; the churn's later additions of
// other shapes split it.
func newChurner(t *testing.T, seed int64) *churner {
	c := &churner{t: t, rng: rand.New(rand.NewSource(seed)), pool: NewPool()}
	for i := 0; i < 6; i++ {
		c.addNode(indexDescs[0])
	}
	// Touch every signature up front so the classes exist before churn —
	// the maintenance paths, not first-use builds, are what is under test.
	for _, sig := range indexSigs {
		_ = c.pool.IndexFor(sig)
	}
	if n := classCount(c.pool); n != churnStartClasses {
		t.Fatalf("start state holds %d classes, want %d", n, churnStartClasses)
	}
	return c
}

func (c *churner) addNode(d Description) {
	// Names are drawn out of lexicographic order, so name rank and pool
	// insertion order disagree.
	c.add(fmt.Sprintf("churn-%03d", (c.next*37)%1000), d)
	c.next++
}

// add inserts a node of shape d under name.
func (c *churner) add(name string, d Description) {
	if err := c.pool.Add(NewNode(name, d)); err != nil {
		c.t.Fatal(err)
	}
}

// shape draws a random node shape.
func (c *churner) shape() Description { return indexDescs[c.rng.Intn(len(indexDescs))] }

// checkSplit fails the test unless the churn split a class: the
// precondition for the split path having been checked at all.
func (c *churner) checkSplit() {
	c.t.Helper()
	if n := classCount(c.pool); n <= churnStartClasses {
		c.t.Fatalf("churn left %d classes: no split happened", n)
	}
}

func (c *churner) step() {
	rng, pool := c.rng, c.pool
	var names []string
	for _, n := range pool.Nodes() {
		names = append(names, n.Name())
	}
	sort.Strings(names)
	switch op := rng.Intn(10); {
	case op < 3: // reserve on a random fitting node of a random signature
		sig := indexSigs[rng.Intn(len(indexSigs))]
		if fit := pool.Fitting(sig); len(fit) > 0 {
			n := fit[rng.Intn(len(fit))]
			if err := n.Reserve(sig); err == nil {
				c.held = append(c.held, churnHold{n, sig})
			}
		}
	case op < 6: // release a random outstanding reservation
		if len(c.held) > 0 {
			i := rng.Intn(len(c.held))
			r := c.held[i]
			c.held = append(c.held[:i], c.held[i+1:]...)
			r.n.Release(r.c)
		}
	case op < 7: // add a node
		if len(names) < 16 {
			c.addNode(c.shape())
		}
	case op < 8: // remove a node (dropping its outstanding reservations)
		if len(names) > 2 {
			victim := names[rng.Intn(len(names))]
			kept := c.held[:0]
			for _, r := range c.held {
				if r.n.Name() != victim {
					kept = append(kept, r)
				}
			}
			c.held = kept
			if err := pool.Remove(victim); err != nil {
				c.t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				c.add(victim, c.shape())
			}
		}
	case op < 9: // cordon
		if n, ok := pool.Get(names[rng.Intn(len(names))]); ok {
			n.Drain()
		}
	default: // lift a cordon
		if n, ok := pool.Get(names[rng.Intn(len(names))]); ok {
			n.Undrain()
		}
	}
}

// TestIndexMatchesScanUnderChurn is the placement-index property test:
// after every step of a randomized interleaving of Reserve, Release, Add,
// Remove, Drain and Undrain, the capability classes and load heaps must
// answer Fitting / Capable / MinLoad / First exactly as a
// from-scratch scan of the pool does, and the index's own invariants
// must hold — through the splits the additions cause.
func TestIndexMatchesScanUnderChurn(t *testing.T) {
	c := newChurner(t, 7)
	for step := 0; step < 2500; step++ {
		c.step()
		checkIndexInvariants(t, c.pool, step)
		checkIndexAgainstScan(t, c.pool, step)
	}
	c.checkSplit()
}

// TestIndexNamedLookupUnderChurn runs ByName and eachFitting from
// two reader goroutines while one writer adds, removes, re-adds, drains
// and loads nodes — what elastic growth and shrink do on the live backend
// while the engine places. The pool starts as the churner's, so the read
// signature shares its class with five others until the writer's first
// additions split it. Under -race it checks that the index's one lock
// covers the name map, the insertion numbers and the class splits; every
// answer must also be self-consistent, and once the writer stops the
// by-name query must agree with the scan again.
func TestIndexNamedLookupUnderChurn(t *testing.T) {
	const names = 8
	churn := newChurner(t, 5)
	pool := churn.pool
	c := Constraints{Cores: 1}
	nodeName := func(i int) string { return fmt.Sprintf("named-%d", i) }
	add := func(i int) {
		if err := pool.Add(NewNode(nodeName(i), Description{Cores: 1 + i%4, MemoryMB: 4_000, SpeedFactor: 1})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < names; i++ {
		add(i)
	}
	si := pool.IndexFor(c)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				reads.Add(1)
				want := nodeName(k % (names + 1)) // named-8 is never in the pool
				if n, free, _ := si.Candidates(c, nil).ByName(want); n != nil && (n.Name() != want || free < 1 || free > n.Desc().Cores) {
					t.Errorf("ByName(%s) = %s with %d free cores of %d", want, n.Name(), free, n.Desc().Cores)
					return
				}
				si.eachFitting(c, func(n *Node, free int) {
					if free < 1 || free > n.Desc().Cores {
						t.Errorf("eachFitting: %s with %d free cores of %d", n.Name(), free, n.Desc().Cores)
					}
				})
			}
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 2000 || reads.Load() < 2000; step++ { // the readers overlap the churn
		i := rng.Intn(names)
		n, ok := pool.Get(nodeName(i))
		switch op := rng.Intn(5); {
		case op == 0: // the same name comes back, last in pool order
			_ = pool.Remove(nodeName(i)) // ErrUnknownNode when already gone: the add still runs
			add(i)
		case op == 1 && ok:
			if err := pool.Remove(nodeName(i)); err != nil {
				t.Fatal(err)
			}
		case op == 1:
			add(i)
		case op == 2 && ok:
			if rng.Intn(2) == 0 {
				n.Drain()
			} else {
				n.Undrain()
			}
		case op == 3 && ok:
			_ = n.Reserve(c) // a full or drained node refuses: nothing to undo
		case op == 4 && ok && busyCores(n) > 0:
			n.Release(c)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i <= names; i++ {
		n, ok := pool.Get(nodeName(i))
		got, _, _ := si.Candidates(c, nil).ByName(nodeName(i))
		if want := ok && n.CanReserve(c); (got != nil) != want || want && got != n {
			t.Fatalf("after churn: ByName(%s) = %s, scan says fits %v", nodeName(i), name(got), want)
		}
	}
	churn.checkSplit()
	checkIndexInvariants(t, pool, -1)
}

// TestIndexLazyRepairUnderChurn is the same churn with the queries a
// scheduler makes: each step picks for a few signatures only, so the
// other classes go unwalked — their heaps lag, their stale lists grow
// across node removals, drains, re-additions and splits — until a later
// step happens to pick from them. Every pick must still be the scan oracle's, and the
// lazily maintained state must satisfy the invariants as it stands.
func TestIndexLazyRepairUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := newChurner(t, seed)
		for step := 0; step < 2000; step++ {
			c.step()
			for k := c.rng.Intn(3); k > 0; k-- {
				sig := indexSigs[c.rng.Intn(len(indexSigs))]
				want := scanMinLoad(c.pool, sig)
				if got := c.pool.IndexFor(sig).MinLoadFitting(sig); got != want {
					t.Fatalf("seed %d step %d sig %q: MinLoadFitting = %v, scan min = %v",
						seed, step, sig.Signature(), name(got), name(want))
				}
			}
			if step%16 == 0 { // the check itself repairs every class
				checkIndexInvariants(t, c.pool, step)
			}
		}
		checkIndexAgainstScan(t, c.pool, -1)
		c.checkSplit()
	}
}

// TestSigInterning pins the interning contract: equal constraint sets
// share one dense ID and one set, any field that changes the signature
// string changes the ID, Software order and separator-bearing names keep
// sets apart, and the label is Constraints.Signature().
func TestSigInterning(t *testing.T) {
	pool := NewPool()
	distinct := []Constraints{
		{},
		{Cores: 1},
		{Cores: 2},
		{MemoryMB: 2},
		{GPUs: 2},
		{Nodes: 2},
		{Class: Cloud},
		{Software: []string{"a", "b"}},
		{Software: []string{"b", "a"}},
		{Software: []string{"a/1:b"}},
		{Software: []string{"a", "1:b"}},
		{Cores: 2, Software: []string{"a", "b"}},
	}
	seen := map[SigID]string{}
	for i, c := range distinct {
		si := pool.IndexFor(c)
		if si.ID() != SigID(i) {
			t.Fatalf("%q: ID %d, want the next dense ID %d", c.Signature(), si.ID(), i)
		}
		if prev, dup := seen[si.ID()]; dup {
			t.Fatalf("%q shares ID %d with %q", c.Signature(), si.ID(), prev)
		}
		seen[si.ID()] = c.Signature()
		if si.Label() != c.Signature() {
			t.Fatalf("label %q, want Signature() %q", si.Label(), c.Signature())
		}
	}
	for i, c := range distinct {
		again := Constraints{Cores: c.Cores, MemoryMB: c.MemoryMB, GPUs: c.GPUs, Nodes: c.Nodes, Class: c.Class,
			Software: append([]string(nil), c.Software...)}
		if got := pool.IndexFor(again).ID(); got != SigID(i) {
			t.Fatalf("%q interned again as %d, want %d", c.Signature(), got, i)
		}
		if got := pool.IndexForSig(c.Signature(), c).ID(); got != SigID(i) {
			t.Fatalf("%q through IndexForSig is %d, want %d", c.Signature(), got, i)
		}
	}
	if other := NewPool().IndexFor(Constraints{Cores: 2}).ID(); other != 0 {
		t.Fatalf("a fresh pool numbered its first signature %d, want 0", other)
	}
}

// TestSigKeepsNoCallerSoftwareList edits the Software list a signature
// was first interned from: a node added afterwards with the listed
// software must still join the signature's capability set.
func TestSigKeepsNoCallerSoftwareList(t *testing.T) {
	pool := NewPool()
	desc := Description{Cores: 4, MemoryMB: 100, Software: []string{"blast"}}
	_ = pool.Add(NewNode("a", desc))
	sw := []string{"blast"}
	si := pool.IndexFor(Constraints{Software: sw})
	sw[0] = "other"
	_ = pool.Add(NewNode("b", desc))
	if n := si.Len(); n != 2 {
		t.Fatalf("%s: %d capable nodes after adding a second one with the software, want 2", si.Label(), n)
	}
}

// TestNotificationAllocatesNothing is the notification path's
// deterministic cost gate: a Reserve and the matching Release, each
// delivered to every capability class the node belongs to (and every
// signature's fitCount there), allocate no object once the classes'
// stale lists have grown to size.
func TestNotificationAllocatesNothing(t *testing.T) {
	c := newChurner(t, 3)
	n := c.pool.Nodes()[0]
	sig := Constraints{}
	if avg := testing.AllocsPerRun(1000, func() {
		if n.Reserve(sig) == nil {
			n.Release(sig)
		}
	}); avg != 0 {
		t.Fatalf("Reserve+Release allocates %.1f objects, want 0", avg)
	}
}

// TestSharedClassStructure is the deterministic structure gate of the
// capability classes, on the sim-wide ledger workload's pool (bench/gen.go):
// four node shapes, one quarter each, and six signatures, five of which fit
// every shape while the GPU one fits only the first. The six share two
// classes, so a Reserve+Release queues one heap repair per class the node
// is in, not one per signature, and allocates nothing. A node of a shape
// that only some of the five fit splits their class, and every pick still
// matches the scan afterwards.
func TestSharedClassStructure(t *testing.T) {
	shapes := []Description{
		{Cores: 48, MemoryMB: 96_000, GPUs: 2, Class: HPC, SpeedFactor: 1},
		{Cores: 32, MemoryMB: 64_000, Class: HPC, SpeedFactor: 0.9},
		{Cores: 16, MemoryMB: 32_000, Class: Cloud, SpeedFactor: 0.8},
		{Cores: 8, MemoryMB: 16_000, Class: Cloud, SpeedFactor: 0.6},
	}
	sigs := []Constraints{
		{}, {Cores: 2}, {Cores: 1, MemoryMB: 2_000}, {Cores: 4, MemoryMB: 8_000},
		{Cores: 8, MemoryMB: 16_000}, {Cores: 2, GPUs: 1},
	}
	pool := NewPool()
	for i := 0; i < 4*32; i++ {
		if err := pool.Add(NewNode(fmt.Sprintf("w%04d", i), shapes[i%len(shapes)])); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range sigs {
		pool.IndexFor(c).MinLoadFitting(c) // intern, then repair: nothing stale
	}
	if n := classCount(pool); n != 2 {
		t.Fatalf("six signatures over four shapes hold %d classes, want 2", n)
	}
	queued := func() int {
		pool.idx.mu.Lock()
		defer pool.idx.mu.Unlock()
		n := 0
		for _, cc := range pool.idx.classes {
			n += len(cc.stale)
		}
		return n
	}
	gpu := pool.Nodes()[0] // in both classes
	if err := gpu.Reserve(sigs[0]); err != nil {
		t.Fatal(err)
	}
	gpu.Release(sigs[0])
	if n := queued(); n != 2 {
		t.Fatalf("a Reserve+Release on a node in both classes queued %d heap repairs, want 2", n)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if gpu.Reserve(sigs[0]) == nil {
			gpu.Release(sigs[0])
		}
	}); avg != 0 {
		t.Fatalf("Reserve+Release allocates %.1f objects, want 0", avg)
	}

	// Load a spread of nodes so the picks below differ by signature.
	for i, n := range pool.Nodes() {
		for k := 0; k < i%7; k++ {
			_ = n.Reserve(sigs[(i+k)%len(sigs)])
		}
	}
	if err := pool.Add(NewNode("w-small", Description{Cores: 4, MemoryMB: 4_000, Class: Fog, SpeedFactor: 0.5})); err != nil {
		t.Fatal(err)
	}
	if n := classCount(pool); n != 3 {
		t.Fatalf("a node that three of the five shared signatures fit left %d classes, want 3", n)
	}
	checkIndexInvariants(t, pool, -1)
	for _, c := range sigs {
		si := pool.IndexFor(c)
		want := scanFitting(pool, c)
		if got := pool.Fitting(c); !slices.Equal(got, want) {
			t.Fatalf("sig %q: Fitting has %d nodes, scan %d", c.Signature(), len(got), len(want))
		}
		if got, want := si.MinLoadFitting(c), scanMinLoad(pool, c); got != want {
			t.Fatalf("sig %q: MinLoadFitting = %v, scan min = %v", c.Signature(), name(got), name(want))
		}
		if got := si.Candidates(c, nil).First(); len(want) == 0 && got != nil || len(want) > 0 && got != want[0] {
			t.Fatalf("sig %q: first candidate = %v, scan has %d fitting", c.Signature(), name(got), len(want))
		}
	}
}

// TestIndexPowerOfTwoPick pins the P2C contract: the pick always fits,
// and nil comes back only when nothing fits at all — sampling never turns
// a placeable task into a capacity failure.
func TestIndexPowerOfTwoPick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := NewPool()
	for i := 0; i < 8; i++ {
		if err := pool.Add(NewNode(fmt.Sprintf("p2c-%d", i), Description{
			Cores: 2, MemoryMB: 8_000, SpeedFactor: 1,
		})); err != nil {
			t.Fatal(err)
		}
	}
	c := Constraints{Cores: 2}
	si := pool.IndexFor(c)
	var reserved []*Node
	for i := 0; i < 8; i++ {
		n := si.Candidates(c, nil).PowerOfTwo(rng)
		if n == nil {
			t.Fatalf("pick %d: nil with %d free nodes", i, 8-len(reserved))
		}
		if err := n.Reserve(c); err != nil {
			t.Fatalf("pick %d: chose %s which does not fit: %v", i, n.Name(), err)
		}
		reserved = append(reserved, n)
	}
	if n := si.Candidates(c, nil).PowerOfTwo(rng); n != nil {
		t.Fatalf("pick on a full pool returned %s, want nil", n.Name())
	}
	seen := map[string]bool{}
	for _, n := range reserved {
		if seen[n.Name()] {
			t.Fatalf("node %s picked twice while full", n.Name())
		}
		seen[n.Name()] = true
	}
}

// TestPowerOfTwoPickIgnoresWalkHistory pins P2C's determinism promise:
// the pick is a function of the pool, the loads and the seed. Two pools
// take the same reserve/release/drain sequence; one of them is also walked
// (MinLoadFitting, FitCount) after every change, so its lazily repaired
// heap is laid out differently — and both must still pick alike.
func TestPowerOfTwoPickIgnoresWalkHistory(t *testing.T) {
	const nodes = 8
	c := Constraints{Cores: 1}
	var pools [2]*Pool
	var idx [2]SigIndex
	var pickers [2]*rand.Rand
	for p := range pools {
		pools[p] = NewPool()
		for i := 0; i < nodes; i++ {
			if err := pools[p].Add(NewNode(fmt.Sprintf("n%02d", (i*7)%nodes), Description{
				Cores: 2 + i%5, MemoryMB: 8_000, SpeedFactor: 1,
			})); err != nil {
				t.Fatal(err)
			}
		}
		idx[p] = pools[p].IndexFor(c)
		pickers[p] = rand.New(rand.NewSource(5))
	}
	ops := rand.New(rand.NewSource(9))
	for step := 0; step < 2000; step++ {
		i, op := ops.Intn(nodes), ops.Intn(10)
		for p, pool := range pools {
			switch n := pool.Nodes()[i]; {
			case op == 0:
				n.Drain()
			case op == 1:
				n.Undrain()
			case op < 5:
				if busyCores(n) > 0 {
					n.Release(c)
				}
			default:
				_ = n.Reserve(c) // a full or drained node refuses alike in both pools
			}
			if p == 1 {
				idx[p].MinLoadFitting(c)
				idx[p].FitCount()
			}
		}
		if step%8 != 7 {
			continue // let several changes pile up between picks
		}
		a, b := idx[0].Candidates(c, nil).PowerOfTwo(pickers[0]), idx[1].Candidates(c, nil).PowerOfTwo(pickers[1])
		if name(a) != name(b) {
			t.Fatalf("step %d: unwalked pool picked %s, walked pool %s", step, name(a), name(b))
		}
	}
}

// TestIndexAppendReusesBuffer pins the scratch-buffer contract of an
// unfiltered Candidates view: Nodes and Filter materialize into the
// buffer the view was built over, reusing its backing array instead of
// allocating, and a filter never writes into the list it filters.
func TestIndexAppendReusesBuffer(t *testing.T) {
	pool := NewPool()
	for i := 0; i < 4; i++ {
		if err := pool.Add(NewNode(fmt.Sprintf("buf-%d", i), Description{
			Cores: 4, MemoryMB: 8_000, SpeedFactor: 1,
		})); err != nil {
			t.Fatal(err)
		}
	}
	c := Constraints{Cores: 1}
	var buf []*Node
	cands := pool.IndexFor(c).Candidates(c, &buf)
	first := cands.Nodes()
	if len(first) != 4 {
		t.Fatalf("Nodes returned %d nodes, want 4", len(first))
	}
	if again := cands.Nodes(); &again[0] != &first[0] {
		t.Fatal("Nodes reallocated although the view's buffer had capacity")
	}
	keep := func(n *Node) bool { return n.Name() != "buf-2" }
	list := pool.Fitting(c)
	if got := ListCandidates(list).Filter(keep).Nodes(); len(got) != 3 || list[2].Name() != "buf-2" {
		t.Fatalf("filtering a list gave %d nodes and left %s third in it, want 3 and buf-2", len(got), list[2].Name())
	}
	// With the signature precomputed (as the engine caches it per task)
	// the warm-buffer path must not allocate at all.
	sig := c.Signature()
	allocs := testing.AllocsPerRun(100, func() {
		cands := pool.IndexForSig(sig, c).Candidates(c, &buf)
		if len(cands.Nodes()) != 4 || len(cands.Filter(keep).Nodes()) != 3 {
			t.Fatal("a warm view lost a node")
		}
	})
	if allocs != 0 {
		t.Fatalf("Nodes and Filter allocated %.1f times per view on a warm buffer, want 0", allocs)
	}
}

// busyCores returns n's reserved cores.
func busyCores(n *Node) int {
	cores, _, _ := n.Reserved()
	return cores
}
