package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/deps"
	"repro/internal/resources"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

// indexedPool builds a pool with staggered loads: node p-<i> has i of its
// 4 cores reserved, so the load order is fully determined and p-0 is the
// unique MinLoad winner.
func indexedPool(t testing.TB, n int) *resources.Pool {
	t.Helper()
	pool := resources.NewPool()
	for i := 0; i < n; i++ {
		node := resources.NewNode(fmt.Sprintf("p-%d", i), resources.Description{
			Cores: 4, MemoryMB: 16_000, SpeedFactor: 1,
		})
		if err := pool.Add(node); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < i%4; j++ {
			if err := node.Reserve(resources.Constraints{Cores: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pool
}

// TestMinLoadTieBreaksByName pins the deterministic tie-break: with every
// load fraction equal, MinLoad picks the lexicographically smallest node
// name regardless of slice order.
func TestMinLoadTieBreaksByName(t *testing.T) {
	ns := []*resources.Node{
		resources.NewNode("zeta", resources.CloudVM),
		resources.NewNode("beta", resources.CloudVM),
		resources.NewNode("alpha", resources.CloudVM),
	}
	got := MinLoad{}.Choose(&TaskView{}, resources.ListCandidates(ns), nil)
	if got == nil || got.Name() != "alpha" {
		t.Fatalf("MinLoad tie picked %v, want alpha", got)
	}
	// Reversing the slice must not change the winner.
	rev := []*resources.Node{ns[2], ns[1], ns[0]}
	if got := (MinLoad{}).Choose(&TaskView{}, resources.ListCandidates(rev), nil); got == nil || got.Name() != "alpha" {
		t.Fatalf("MinLoad tie after reorder picked %v, want alpha", got)
	}
}

// scanMinLoad is the MinLoad oracle: the fitting node with the lowest
// busy-core fraction, ties broken by name.
func scanMinLoad(fitting []*resources.Node) *resources.Node {
	var best *resources.Node
	var bestFrac float64
	for _, n := range fitting {
		f := float64(busyCores(n)) / float64(n.Desc().Cores)
		if best == nil || f < bestFrac || (f == bestFrac && n.Name() < best.Name()) {
			best, bestFrac = n, f
		}
	}
	return best
}

// scanLocality is the Locality oracle: every fitting node asked how many
// of the task's input bytes it holds, then, under a partition, whether it
// can be fed every input, then how many cores it has free; the first in
// pool order wins a tie.
func scanLocality(t *TaskView, fitting []*resources.Node, ctx *Context) *resources.Node {
	var rows []inputRow
	if ctx.Net.HasCuts() {
		rows = inputRows(t, ctx)
	}
	var best *resources.Node
	var bestLocal int64
	var bestFed bool
	for _, n := range fitting {
		local := ctx.Registry.LocalBytes(n.Name(), t.InputKeys)
		fed := transferTime(rows, n, ctx) < unreachablePenalty
		switch {
		case best == nil, local > bestLocal:
		case local == bestLocal && fed && !bestFed:
		case local == bestLocal && fed == bestFed && n.FreeCores() > best.FreeCores():
		default:
			continue
		}
		best, bestLocal, bestFed = n, local, fed
	}
	return best
}

// TestChooseMatchesScan is the policy half of the index equivalence
// contract: for FIFO and MinLoad, Choose over the pool's index and over
// the materialized fitting list both return exactly the scan oracle's
// node, across a randomized load churn.
func TestChooseMatchesScan(t *testing.T) {
	pool := indexedPool(t, 9)
	c := resources.Constraints{Cores: 1}
	rng := rand.New(rand.NewSource(3))
	oracles := []struct {
		p    Policy
		scan func([]*resources.Node) *resources.Node
	}{
		{FIFO{}, func(fitting []*resources.Node) *resources.Node { return fitting[0] }},
		{MinLoad{}, scanMinLoad},
	}
	var held []*resources.Node
	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 {
			if fit := pool.Fitting(c); len(fit) > 0 {
				n := fit[rng.Intn(len(fit))]
				if err := n.Reserve(c); err == nil {
					held = append(held, n)
				}
			}
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			held[i].Release(c)
			held = append(held[:i], held[i+1:]...)
		}
		fitting := pool.Fitting(c)
		if len(fitting) == 0 {
			continue
		}
		view := &TaskView{Constraints: c}
		for _, o := range oracles {
			scan := o.scan(fitting)
			indexed := o.p.Choose(view, pool.IndexFor(c).Candidates(c, nil), nil)
			listed := o.p.Choose(view, resources.ListCandidates(fitting), nil)
			if indexed != scan || listed != scan {
				t.Fatalf("step %d %s: scan = %v, through the index %v, over the list %v", step, o.p.Name(), nn(scan), nn(indexed), nn(listed))
			}
		}
	}
}

// TestLocalityChooseMatchesScan holds Locality.Choose, through the index
// and over the fitting list, to the scan oracle over a seeded churn of load, drains, catalog rows,
// network cuts and nodes removed and added back under their name (which
// moves them to the end of pool order). The pool's insertion order is not
// its name order and its nodes differ in cores; sizes come from a small
// set so equal scores (the free-cores and feedable tie-breaks) are the
// common case, and about half the picks run under a partition, where
// the walk is costed against the network. Some replicas sit on a node outside the
// pool (the sim's persist tier), and a quarter of the picks demand 3
// cores, which leaves the 2-core holders outside the signature set.
func TestLocalityChooseMatchesScan(t *testing.T) {
	pool := resources.NewPool()
	names := []string{"n-m", "n-a", "n-z", "n-c", "n-q", "n-b", "n-k"}
	desc := func(name string) resources.Description {
		i := slices.Index(names, name)
		return resources.Description{Cores: 2 + i%3, MemoryMB: 8_000, SpeedFactor: 1}
	}
	for _, name := range names {
		_ = pool.Add(resources.NewNode(name, desc(name)))
	}
	const persist = "persist" // holds replicas, never in the pool
	one, three := resources.Constraints{Cores: 1}, resources.Constraints{Cores: 3}
	reg := transfer.NewRegistry()
	ctx := &Context{Registry: reg, Net: simnet.New(simnet.Link{BandwidthMBps: 100})}
	rng := rand.New(rand.NewSource(11))
	key := func() deps.Version { return deps.Version{Data: deps.DataID(rng.Intn(6))} }
	var held []*resources.Node
	var cuts [][2]string
	// ED-3: each case the holder-first path must get right is counted, and
	// a churn in which one never occurs fails instead of passing vacuously.
	var picks, partitioned, readded, offPool, offSet, holderTies, noHolderFits int
	for step := 0; step < 4000; step++ {
		nodes := pool.Nodes()
		switch n := nodes[rng.Intn(len(nodes))]; rng.Intn(9) {
		case 0, 1:
			if n.Reserve(one) == nil {
				held = append(held, n)
			}
		case 2:
			if len(held) > 0 {
				i := rng.Intn(len(held))
				held[i].Release(one)
				held = append(held[:i], held[i+1:]...)
			}
		case 3:
			if rng.Intn(4) == 0 {
				n.Drain()
			} else {
				n.Undrain()
			}
		case 4:
			reg.SetSize(key(), int64(rng.Intn(3))*1_000_000)
		case 5:
			if rng.Intn(4) == 0 {
				reg.AddReplica(key(), persist)
			} else {
				reg.AddReplica(key(), n.Name())
			}
		case 6:
			reg.DropNode(n.Name())
		case 7:
			if rng.Intn(2) > 0 {
				cuts = append(cuts, [2]string{n.Name(), names[rng.Intn(len(names))]})
				ctx.Net.Cut(n.Name(), cuts[len(cuts)-1][1])
				break
			}
			for _, c := range cuts {
				ctx.Net.Heal(c[0], c[1])
			}
			cuts = nil
		case 8: // the same name comes back as a fresh node, last in pool order
			if rng.Intn(2) == 0 {
				break
			}
			held = slices.DeleteFunc(held, func(h *resources.Node) bool { return h == n })
			if err := pool.Remove(n.Name()); err != nil {
				t.Fatal(err)
			}
			if err := pool.Add(resources.NewNode(n.Name(), desc(n.Name()))); err != nil {
				t.Fatal(err)
			}
			readded++
		}
		c := one
		if rng.Intn(4) == 0 {
			c = three
		}
		view := &TaskView{Constraints: c, InputKeys: []deps.Version{key(), key(), key()}}
		fitting := pool.Fitting(c)
		if len(fitting) == 0 {
			continue
		}
		scan := scanLocality(view, fitting, ctx)
		picks++
		if ctx.Net.HasCuts() {
			partitioned++
		} else {
			o, s, ties, none := holderCases(view, fitting, pool, reg, persist)
			offPool += o
			offSet += s
			holderTies += ties
			noHolderFits += none
		}
		indexed := Locality{}.Choose(view, pool.IndexFor(c).Candidates(c, nil), ctx)
		listed := Locality{}.Choose(view, resources.ListCandidates(fitting), ctx)
		if indexed != scan || listed != scan {
			t.Fatalf("step %d (cores=%d cuts=%v): scan = %s, through the index %s, over the list %s",
				step, c.Cores, ctx.Net.HasCuts(), nn(scan), nn(indexed), nn(listed))
		}
	}
	t.Logf("%d picks: %d partitioned, %d re-adds, holder off the pool %d, off the signature set %d, holder ties %d, no holder fits %d",
		picks, partitioned, readded, offPool, offSet, holderTies, noHolderFits)
	if picks < 2000 || partitioned < picks/5 || readded == 0 || offPool == 0 || offSet == 0 || holderTies == 0 || noHolderFits == 0 {
		t.Fatal("churn degenerate: a case above never occurred")
	}
}

// holderCases classifies one unpartitioned pick for the oracle's counts,
// each 0 or 1: a sized input is held off the pool; a sized input is held
// by a pool node the demand leaves outside the signature set; two or more
// fitting holders tie on local bytes and free cores at the top, so pool
// order decides; no holder fits at all, so the fallback walk decides.
func holderCases(t *TaskView, fitting []*resources.Node, pool *resources.Pool, reg *transfer.Registry, persist string) (offPool, offSet, ties, none int) {
	for _, k := range t.InputKeys {
		size, holders := reg.Row(k)
		if size == 0 {
			continue
		}
		for _, h := range holders {
			if h == persist {
				offPool = 1
			} else if n, ok := pool.Get(h); ok && !n.Desc().Satisfies(t.Constraints) {
				offSet = 1
			}
		}
	}
	var bestLocal int64
	bestFree, tied := 0, 0
	for _, n := range fitting {
		local, free := reg.LocalBytes(n.Name(), t.InputKeys), n.FreeCores()
		switch {
		case local > bestLocal || local == bestLocal && free > bestFree:
			bestLocal, bestFree, tied = local, free, 1
		case local == bestLocal && free == bestFree:
			tied++
		}
	}
	if bestLocal == 0 {
		return offPool, offSet, 0, 1
	}
	return offPool, offSet, min(tied-1, 1), 0
}

// localityFixture is the placement hot path's shape on an indexedPool of
// the given size: three sized inputs on two holders each, all among the
// first 19 nodes, so a holder fits and wins whatever the pool's size.
func localityFixture(tb testing.TB, nodes int) (*TaskView, resources.SigIndex, *Context) {
	pool := indexedPool(tb, nodes)
	reg := transfer.NewRegistry()
	view := &TaskView{Constraints: resources.Constraints{Cores: 1}}
	for i := 0; i < 3; i++ {
		k := deps.Version{Data: deps.DataID(i + 1)}
		reg.SetSize(k, int64(i+1)*1_000_000)
		reg.AddReplica(k, fmt.Sprintf("p-%d", 7*i+3))
		reg.AddReplica(k, fmt.Sprintf("p-%d", 7*i+4))
		view.InputKeys = append(view.InputKeys, k)
	}
	ctx := &Context{Registry: reg, Net: simnet.New(simnet.Link{BandwidthMBps: 100})}
	return view, pool.IndexFor(view.Constraints), ctx
}

// TestLocalityChooseAllocatesNothing is the deterministic cost gate
// on the placement hot path: three sized inputs on two holders each, a
// 64-node pool, no candidate slice, no per-holder heap state — and the
// same when no holder fits and the fitting set is walked instead.
func TestLocalityChooseAllocatesNothing(t *testing.T) {
	view, idx, ctx := localityFixture(t, 64)
	orphan := deps.Version{Data: 99} // held only off the pool: no holder fits
	ctx.Registry.SetSize(orphan, 1_000_000)
	ctx.Registry.AddReplica(orphan, "persist")
	for _, tc := range []struct {
		keys []deps.Version
		want string
	}{
		{view.InputKeys, "p-17"},        // input 3 (3 MB) is on p-17 (3 free cores) and p-18 (2)
		{[]deps.Version{orphan}, "p-0"}, // the most free cores (4), first in pool order
	} {
		v := &TaskView{Constraints: view.Constraints, InputKeys: tc.keys}
		var picked *resources.Node
		allocs := testing.AllocsPerRun(200, func() { picked = Locality{}.Choose(v, idx.Candidates(v.Constraints, nil), ctx) })
		if picked == nil || picked.Name() != tc.want {
			t.Fatalf("picked %s, want %s", nn(picked), tc.want)
		}
		if allocs != 0 {
			t.Fatalf("Locality.Choose allocated %v times per pick (want %s), want 0", allocs, tc.want)
		}
	}
}

// sinkPick keeps the timed picks observable, so none is optimized away.
var sinkPick *resources.Node

// pickLoop times Locality.Choose through the index over one fixture.
func pickLoop(view *TaskView, idx resources.SigIndex, ctx *Context) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkPick = Locality{}.Choose(view, idx.Candidates(view.Constraints, nil), ctx)
		}
	}
}

// TestLocalityChooseIgnoresPoolSize is the cost gate on the holder-
// first pick: when a holder fits, a pick asks the index about the holders
// by name and walks nothing, so its price has no pool-size term. A pick on
// 4,096 nodes may cost at most 4× one on 64 (walking the fitting set
// instead costs 19–28× there); a noisy machine gets three tries.
func TestLocalityChooseIgnoresPoolSize(t *testing.T) {
	nsPerPick := func(nodes int) func() float64 {
		loop := pickLoop(localityFixture(t, nodes))
		return func() float64 {
			r := testing.Benchmark(loop)
			return float64(r.T.Nanoseconds()) / float64(r.N)
		}
	}
	small, large := nsPerPick(64), nsPerPick(4096)
	var ratio float64
	for try := 0; try < 3; try++ {
		s, l := small(), large()
		ratio = l / s
		t.Logf("ns per pick: %.0f at 64 nodes, %.0f at 4096 (%.2f×)", s, l, ratio)
		if ratio <= 4 {
			return
		}
	}
	t.Fatalf("a pick on 4096 nodes costs %.2f× one on 64, want ≤ 4×", ratio)
}

// BenchmarkLocalityChoose prices one holder-first pick by pool size.
func BenchmarkLocalityChoose(b *testing.B) {
	for _, nodes := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), pickLoop(localityFixture(b, nodes)))
	}
}

func nn(n *resources.Node) string {
	if n == nil {
		return "<nil>"
	}
	return n.Name()
}

// TestP2CDeterministicAndNeverDeclines pins the two P2C properties the
// engine relies on: same seed ⇒ same pick sequence (cross-backend
// parity), and nil only when nothing fits (a P2C "miss" falls back to
// the exact heap walk instead of reporting a capacity failure).
func TestP2CDeterministicAndNeverDeclines(t *testing.T) {
	c := resources.Constraints{Cores: 1}
	run := func() []string {
		pool := indexedPool(t, 8)
		p := &P2C{Seed: 42}
		idx := pool.IndexFor(c)
		free := 0
		for _, n := range pool.Nodes() {
			free += n.FreeCores()
		}
		var picks []string
		for i := 0; i < free; i++ {
			n := p.Choose(&TaskView{Constraints: c}, idx.Candidates(c, nil), nil)
			if n == nil {
				t.Fatalf("pick %d: nil with %d free cores", i, free-i)
			}
			if err := n.Reserve(c); err != nil {
				t.Fatalf("pick %d: %s does not fit: %v", i, n.Name(), err)
			}
			picks = append(picks, n.Name())
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d diverges across identically-seeded runs: %s vs %s", i, a[i], b[i])
		}
	}

	// Saturate a tiny pool: P2C must keep placing until full, then nil.
	pool := indexedPool(t, 2)
	p := &P2C{Seed: 1}
	idx := pool.IndexFor(c)
	free := 0
	for _, n := range pool.Nodes() {
		free += n.FreeCores()
	}
	for i := 0; i < free; i++ {
		n := p.Choose(&TaskView{Constraints: c}, idx.Candidates(c, nil), nil)
		if n == nil {
			t.Fatalf("pick %d: nil with %d free cores", i, free-i)
		}
		if err := n.Reserve(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Choose(&TaskView{Constraints: c}, idx.Candidates(c, nil), nil); n != nil {
		t.Fatalf("pick on a saturated pool returned %s, want nil", n.Name())
	}
}

// busyCores returns n's reserved cores.
func busyCores(n *resources.Node) int {
	cores, _, _ := n.Reserved()
	return cores
}
