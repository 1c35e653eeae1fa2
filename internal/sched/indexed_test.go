package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/resources"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

// indexedPool builds a pool with staggered loads: node p-<i> has i of its
// 4 cores reserved, so the load order is fully determined and p-0 is the
// unique MinLoad winner.
func indexedPool(t *testing.T, n int) *resources.Pool {
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
	got := MinLoad{}.Pick(&TaskView{}, ns, nil)
	if got == nil || got.Name() != "alpha" {
		t.Fatalf("MinLoad tie picked %v, want alpha", got)
	}
	// Reversing the slice must not change the winner.
	rev := []*resources.Node{ns[2], ns[1], ns[0]}
	if got := (MinLoad{}).Pick(&TaskView{}, rev, nil); got == nil || got.Name() != "alpha" {
		t.Fatalf("MinLoad tie after reorder picked %v, want alpha", got)
	}
}

// TestPickIndexedMatchesScanPick is the policy half of the index
// equivalence contract: for FIFO and MinLoad, PickIndexed over the
// pool's index returns exactly the node Pick returns over the
// materialized fitting slice, across a randomized load churn.
func TestPickIndexedMatchesScanPick(t *testing.T) {
	pool := indexedPool(t, 9)
	c := resources.Constraints{Cores: 1}
	rng := rand.New(rand.NewSource(3))
	type picker interface {
		Policy
		PickIndexed(*TaskView, resources.SigIndex, *Context) *resources.Node
	}
	policies := []picker{FIFO{}, MinLoad{}}
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
		idx := pool.IndexFor(c)
		view := &TaskView{Constraints: c}
		for _, p := range policies {
			var scan *resources.Node
			if len(fitting) > 0 {
				scan = p.Pick(view, fitting, nil)
			}
			indexed := p.PickIndexed(view, idx, nil)
			if scan != indexed {
				t.Fatalf("step %d %s: Pick = %v, PickIndexed = %v", step, p.Name(), nn(scan), nn(indexed))
			}
		}
	}
}

// TestLocalityPickIndexedMatchesPick holds Locality.PickIndexed to the
// scan reference over a seeded churn of load, drains, catalog rows and
// network cuts. The pool's insertion order is not its name order and its
// nodes differ in cores; sizes come from a small set so equal scores (the
// free-cores and feedable tie-breaks) are the common case, and a third of
// the steps run under a partition, where PickIndexed hands over to Pick.
func TestLocalityPickIndexedMatchesPick(t *testing.T) {
	pool := resources.NewPool()
	names := []string{"n-m", "n-a", "n-z", "n-c", "n-q", "n-b", "n-k"}
	for i, name := range names {
		_ = pool.Add(resources.NewNode(name, resources.Description{Cores: 2 + i%3, MemoryMB: 8_000, SpeedFactor: 1}))
	}
	nodes := pool.Nodes()
	c := resources.Constraints{Cores: 1}
	reg := transfer.NewRegistry()
	ctx := &Context{Registry: reg, Net: simnet.New(simnet.Link{BandwidthMBps: 100})}
	rng := rand.New(rand.NewSource(11))
	key := func() deps.Version { return deps.Version{Data: deps.DataID(rng.Intn(6))} }
	var held []*resources.Node
	var cuts [][2]string
	picks, partitioned := 0, 0
	for step := 0; step < 3000; step++ {
		switch n := nodes[rng.Intn(len(nodes))]; rng.Intn(8) {
		case 0, 1:
			if n.Reserve(c) == nil {
				held = append(held, n)
			}
		case 2:
			if len(held) > 0 {
				i := rng.Intn(len(held))
				held[i].Release(c)
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
			reg.AddReplica(key(), n.Name())
		case 6:
			reg.RemoveReplica(key(), n.Name())
		case 7:
			if rng.Intn(3) > 0 {
				cuts = append(cuts, [2]string{n.Name(), names[rng.Intn(len(names))]})
				ctx.Net.Cut(n.Name(), cuts[len(cuts)-1][1])
				break
			}
			for _, c := range cuts {
				ctx.Net.Heal(c[0], c[1])
			}
			cuts = nil
		}
		view := &TaskView{Constraints: c, InputKeys: []deps.Version{key(), key(), key()}}
		var scan *resources.Node
		if fitting := pool.Fitting(c); len(fitting) > 0 {
			scan = Locality{}.Pick(view, fitting, ctx)
			picks++
			if ctx.Net.HasCuts() {
				partitioned++
			}
		}
		if indexed := (Locality{}).PickIndexed(view, pool.IndexFor(c), ctx); scan != indexed {
			t.Fatalf("step %d (cuts=%v): Pick = %s, PickIndexed = %s", step, ctx.Net.HasCuts(), nn(scan), nn(indexed))
		}
	}
	if picks < 2000 || partitioned < picks/5 {
		t.Fatalf("churn degenerate: %d picks, %d under a partition", picks, partitioned)
	}
}

// TestLocalityPickIndexedAllocatesNothing is the deterministic cost gate
// on the placement hot path: three sized inputs on three holders, a
// 64-node pool, no candidate slice, no per-holder heap state.
func TestLocalityPickIndexedAllocatesNothing(t *testing.T) {
	pool := indexedPool(t, 64)
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
	idx := pool.IndexFor(view.Constraints)
	var picked *resources.Node
	allocs := testing.AllocsPerRun(200, func() { picked = Locality{}.PickIndexed(view, idx, ctx) })
	if picked == nil || picked.Name() != "p-17" { // input 3 (3 MB) is on p-17 (3 free cores) and p-18 (2)
		t.Fatalf("picked %s, want p-17", nn(picked))
	}
	if allocs != 0 {
		t.Fatalf("Locality.PickIndexed allocated %v times per pick, want 0", allocs)
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
		p := NewP2C(42)
		idx := pool.IndexFor(c)
		free := 0
		for _, n := range pool.Nodes() {
			free += n.FreeCores()
		}
		var picks []string
		for i := 0; i < free; i++ {
			n := p.PickIndexed(&TaskView{Constraints: c}, idx, nil)
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
	p := NewP2C(1)
	idx := pool.IndexFor(c)
	free := 0
	for _, n := range pool.Nodes() {
		free += n.FreeCores()
	}
	for i := 0; i < free; i++ {
		n := p.PickIndexed(&TaskView{Constraints: c}, idx, nil)
		if n == nil {
			t.Fatalf("pick %d: nil with %d free cores", i, free-i)
		}
		if err := n.Reserve(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.PickIndexed(&TaskView{Constraints: c}, idx, nil); n != nil {
		t.Fatalf("pick on a saturated pool returned %s, want nil", n.Name())
	}
}
