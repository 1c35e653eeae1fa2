package resources

import (
	"fmt"
	"math/rand"
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
		f := float64(n.BusyCores()) / float64(n.Desc().Cores)
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
		if gotFirst := si.FirstFitting(c); gotFirst != wantFirst {
			t.Fatalf("step %d sig %q: FirstFitting = %v, scan first = %v", step, c.Signature(), name(gotFirst), name(wantFirst))
		}
		// The by-name query answers for every pool node as CanReserve does,
		// with the node's own free cores, and its seqs follow pool order.
		var prev uint64
		for _, n := range p.Nodes() {
			got, free, seq := si.FittingByName(n.Name(), c)
			if fits := n.CanReserve(c); (got != nil) != fits || fits && (got != n || free != n.FreeCores() || seq <= prev) {
				t.Fatalf("step %d sig %q: FittingByName(%s) = %v, %d free, seq %d (after %d); scan says fits %v, %d free",
					step, c.Signature(), n.Name(), name(got), free, seq, prev, fits, n.FreeCores())
			}
			if got != nil {
				prev = seq
			}
		}
		if got, _, _ := si.FittingByName("no-such-node", c); got != nil {
			t.Fatalf("step %d sig %q: FittingByName found %s under an unknown name", step, c.Signature(), got.Name())
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
// state is what gets checked — and then once more per set after a repair:
//
//   - every node of the pool reaches its rec through its watcher, and the
//     rec reaches each of its entries, each of which is a member of its set;
//   - the name map, once built, is a bijection onto the records, and
//     insertion numbers strictly increase along the pool order and every
//     set's members;
//   - members are exactly the capable nodes, in pool insertion order;
//   - fitCount equals a recount against the nodes themselves (it is eager);
//   - the load heap is a heap over its own keys, with exact pos
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
		for _, e := range r.ents {
			if e.r != r || x.sets[e.s.id] != e.s {
				t.Fatalf("step %d: node %s has an entry that does not point back at it or at a live set", step, n.name)
			}
		}
	}
	for _, s := range x.sets {
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
		if len(s.members) != len(capable) {
			t.Fatalf("step %d set %q: %d members, %d capable nodes", step, s.label, len(s.members), len(capable))
		}
		for i, e := range s.members {
			if e.r != capable[i] || e.s != s {
				t.Fatalf("step %d set %q: member %d is %s, pool order says %s", step, s.label, i, e.r.n.name, capable[i].n.name)
			}
			if i > 0 && e.r.seq <= s.members[i-1].r.seq {
				t.Fatalf("step %d set %q: member %d (%s) has seq %d, not above its predecessor's %d", step, s.label, i, e.r.n.name, e.r.seq, s.members[i-1].r.seq)
			}
			found := false
			for _, re := range e.r.ents {
				found = found || re == e
			}
			if !found {
				t.Fatalf("step %d set %q: member %s is not among its record's entries", step, s.label, e.r.n.name)
			}
		}
		if s.fitCount != fit {
			t.Fatalf("step %d set %q: fitCount %d, recount %d", step, s.label, s.fitCount, fit)
		}
		checkLoadHeap(t, s, step, false)
		x.repairLocked(s)
		checkLoadHeap(t, s, step, true)
	}
}

// checkLoadHeap checks one set's heap; repaired says nothing may lag.
func checkLoadHeap(t *testing.T, s *sigSet, step int, repaired bool) {
	t.Helper()
	queued := map[*sigEntry]bool{}
	for _, e := range s.stale {
		if !e.stale {
			t.Fatalf("step %d set %q: %s is in the stale list without its flag", step, s.label, e.r.n.name)
		}
		queued[e] = true
	}
	if repaired && len(s.stale) > 0 {
		t.Fatalf("step %d set %q: %d entries stale after repair", step, s.label, len(s.stale))
	}
	for i := 0; i < s.heap.Len(); i++ {
		e := s.heap.At(i)
		if e.pos != i {
			t.Fatalf("step %d set %q: heap slot %d holds %s with pos %d", step, s.label, i, e.r.n.name, e.pos)
		}
		if i > 0 && loadLess(e, s.heap.At((i-1)/2)) {
			t.Fatalf("step %d set %q: heap slot %d (%s) sorts before its parent", step, s.label, i, e.r.n.name)
		}
	}
	inHeap := 0
	for _, e := range s.members {
		if e.stale != queued[e] {
			t.Fatalf("step %d set %q: %s stale flag %v, queued %v", step, s.label, e.r.n.name, e.stale, queued[e])
		}
		if e.pos >= 0 {
			inHeap++
			if s.heap.At(e.pos) != e {
				t.Fatalf("step %d set %q: %s claims heap slot %d, which holds another entry", step, s.label, e.r.n.name, e.pos)
			}
		}
		if e.stale {
			continue
		}
		was := *e
		e.rekey()
		if e.busy != was.busy || e.cores != was.cores || (e.pos >= 0) == e.r.st.drained {
			t.Fatalf("step %d set %q: %s lags its node (key %d/%d, pos %d, drained %v) and is not queued for repair",
				step, s.label, e.r.n.name, was.busy, was.cores, e.pos, e.r.st.drained)
		}
	}
	if inHeap != s.heap.Len() {
		t.Fatalf("step %d set %q: heap holds %d entries, %d members claim a slot", step, s.label, s.heap.Len(), inHeap)
	}
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

func newChurner(t *testing.T, seed int64) *churner {
	c := &churner{t: t, rng: rand.New(rand.NewSource(seed)), pool: NewPool()}
	for i := 0; i < 6; i++ {
		c.addNode()
	}
	// Touch every signature up front so the sets exist before churn — the
	// maintenance paths, not first-use builds, are what is under test.
	for _, sig := range indexSigs {
		_ = c.pool.IndexFor(sig)
	}
	return c
}

func (c *churner) addNode() {
	// Names are drawn out of lexicographic order, so name rank and pool
	// insertion order disagree.
	c.add(fmt.Sprintf("churn-%03d", (c.next*37)%1000))
	c.next++
}

// add inserts a node of a random shape under name.
func (c *churner) add(name string) {
	d := indexDescs[c.rng.Intn(len(indexDescs))]
	if err := c.pool.Add(NewNode(name, d)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *churner) step() {
	rng, pool := c.rng, c.pool
	names := pool.Names()
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
			c.addNode()
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
				c.add(victim)
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
// Remove, Drain and Undrain, the capability sets and load heaps must
// answer Fitting / Capable / MinLoad / FirstFitting exactly as a
// from-scratch scan of the pool does, and the index's own invariants
// must hold.
func TestIndexMatchesScanUnderChurn(t *testing.T) {
	c := newChurner(t, 7)
	for step := 0; step < 2500; step++ {
		c.step()
		checkIndexInvariants(t, c.pool, step)
		checkIndexAgainstScan(t, c.pool, step)
	}
}

// TestIndexNamedLookupUnderChurn runs FittingByName and EachFitting from
// two reader goroutines while one writer adds, removes, re-adds, drains
// and loads nodes — what elastic growth and shrink do on the live backend
// while the engine places. Under -race it checks that the index's one lock
// covers the name map and the insertion numbers; every answer must also
// be self-consistent, and once the writer stops the by-name query must
// agree with the scan again.
func TestIndexNamedLookupUnderChurn(t *testing.T) {
	const names = 8
	pool := NewPool()
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
				if n, free, _ := si.FittingByName(want, c); n != nil && (n.Name() != want || free < 1 || free > n.Desc().Cores) {
					t.Errorf("FittingByName(%s) = %s with %d free cores of %d", want, n.Name(), free, n.Desc().Cores)
					return
				}
				si.EachFitting(c, func(n *Node, free int) {
					if free < 1 || free > n.Desc().Cores {
						t.Errorf("EachFitting: %s with %d free cores of %d", n.Name(), free, n.Desc().Cores)
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
		case op == 4 && ok && n.BusyCores() > 0:
			n.Release(c)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i <= names; i++ {
		n, ok := pool.Get(nodeName(i))
		got, _, _ := si.FittingByName(nodeName(i), c)
		if want := ok && n.CanReserve(c); (got != nil) != want || want && got != n {
			t.Fatalf("after churn: FittingByName(%s) = %s, scan says fits %v", nodeName(i), name(got), want)
		}
	}
}

// TestIndexLazyRepairUnderChurn is the same churn with the queries a
// scheduler makes: each step picks from a few signature sets only, so the
// others go unwalked — their heaps lag, their stale lists grow across
// node removals, drains and re-additions — until a later step happens to
// pick from them. Every pick must still be the scan oracle's, and the
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
			if step%16 == 0 { // the check itself repairs every set
				checkIndexInvariants(t, c.pool, step)
			}
		}
		checkIndexAgainstScan(t, c.pool, -1)
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

// TestNotificationAllocatesNothing is the notification path's
// deterministic cost gate: a Reserve and the matching Release, each
// delivered to every signature set the node belongs to, allocate no
// object once the sets' stale lists have grown to size.
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
		n := si.PowerOfTwoPick(c, rng)
		if n == nil {
			t.Fatalf("pick %d: nil with %d free nodes", i, 8-len(reserved))
		}
		if err := n.Reserve(c); err != nil {
			t.Fatalf("pick %d: chose %s which does not fit: %v", i, n.Name(), err)
		}
		reserved = append(reserved, n)
	}
	if n := si.PowerOfTwoPick(c, rng); n != nil {
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
				if n.BusyCores() > 0 {
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
		a, b := idx[0].PowerOfTwoPick(c, pickers[0]), idx[1].PowerOfTwoPick(c, pickers[1])
		if name(a) != name(b) {
			t.Fatalf("step %d: unwalked pool picked %s, walked pool %s", step, name(a), name(b))
		}
	}
}

// TestIndexAppendReusesBuffer pins the scratch-buffer contract of the
// Append variants: appending into a cleared buffer reuses its backing
// array instead of allocating.
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
	buf := pool.AppendFitting(nil, c)
	if len(buf) != 4 {
		t.Fatalf("AppendFitting returned %d nodes, want 4", len(buf))
	}
	again := pool.AppendFitting(buf[:0], c)
	if &again[0] != &buf[0] {
		t.Fatal("AppendFitting reallocated although the scratch buffer had capacity")
	}
	// With the signature precomputed (as the engine caches it per task)
	// the warm-buffer path must not allocate at all.
	sig := c.Signature()
	allocs := testing.AllocsPerRun(100, func() {
		buf = pool.IndexForSig(sig, c).AppendFitting(buf[:0], c)
	})
	if allocs != 0 {
		t.Fatalf("AppendFitting allocated %.1f times per call on a warm buffer, want 0", allocs)
	}
}
