package resources

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDescriptionSatisfies(t *testing.T) {
	d := Description{Cores: 8, MemoryMB: 16000, GPUs: 1, Software: []string{"blas", "mpi"}, Class: HPC}
	cases := []struct {
		name string
		c    Constraints
		want bool
	}{
		{"empty", Constraints{}, true},
		{"cores ok", Constraints{Cores: 8}, true},
		{"too many cores", Constraints{Cores: 9}, false},
		{"memory ok", Constraints{MemoryMB: 16000}, true},
		{"too much memory", Constraints{MemoryMB: 16001}, false},
		{"gpu ok", Constraints{GPUs: 1}, true},
		{"too many gpus", Constraints{GPUs: 2}, false},
		{"software present", Constraints{Software: []string{"mpi"}}, true},
		{"software missing", Constraints{Software: []string{"cuda"}}, false},
		{"class match", Constraints{Class: HPC}, true},
		{"class mismatch", Constraints{Class: Fog}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := d.Satisfies(tc.c); got != tc.want {
				t.Fatalf("Satisfies(%+v) = %v, want %v", tc.c, got, tc.want)
			}
		})
	}
}

func TestEffectiveDefaults(t *testing.T) {
	var c Constraints
	if c.EffectiveCores() != 1 || c.EffectiveNodes() != 1 {
		t.Fatal("zero constraints should default to 1 core, 1 node")
	}
}

// freeMemMB reads n's unreserved memory, which only tests observe.
func freeMemMB(n *Node) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.freeMemMB
}

func TestReserveRelease(t *testing.T) {
	n := NewNode("n1", Description{Cores: 4, MemoryMB: 1000, Class: Cloud})
	c := Constraints{Cores: 3, MemoryMB: 600}
	if err := n.Reserve(c); err != nil {
		t.Fatal(err)
	}
	if n.FreeCores() != 1 || freeMemMB(n) != 400 {
		t.Fatalf("after reserve: cores=%d mem=%d", n.FreeCores(), freeMemMB(n))
	}
	// Second reservation must fail on memory.
	if err := n.Reserve(Constraints{MemoryMB: 500}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reserve err = %v, want ErrInsufficient", err)
	}
	n.Release(c)
	if n.FreeCores() != 4 || freeMemMB(n) != 1000 || n.Running() != 0 {
		t.Fatal("release did not restore capacity")
	}
}

func TestReleaseClampsToCapacity(t *testing.T) {
	n := NewNode("n1", Description{Cores: 2, MemoryMB: 100})
	n.Release(Constraints{Cores: 10, MemoryMB: 1000})
	if n.FreeCores() != 2 || freeMemMB(n) != 100 {
		t.Fatal("release exceeded capacity")
	}
}

func TestConcurrentReservationsNeverOversubscribe(t *testing.T) {
	n := NewNode("n1", Description{Cores: 10, MemoryMB: 10000})
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n.Reserve(Constraints{Cores: 1, MemoryMB: 1000}) == nil {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 10 {
		t.Fatalf("granted %d reservations on a 10-slot node", granted)
	}
}

func TestPoolAddRemove(t *testing.T) {
	p := NewPool()
	if err := p.Add(NewNode("a", MareNostrumNode)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(NewNode("a", MareNostrumNode)); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate add err = %v", err)
	}
	if err := p.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("a"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("remove missing err = %v", err)
	}
}

func TestPoolFittingVsCapable(t *testing.T) {
	p := NewPool()
	small := NewNode("small", Description{Cores: 2, MemoryMB: 1000})
	big := NewNode("big", Description{Cores: 16, MemoryMB: 64000})
	_ = p.Add(small)
	_ = p.Add(big)

	c := Constraints{Cores: 2}
	if got := len(p.IndexFor(c).AppendCapable(nil)); got != 2 {
		t.Fatalf("Capable = %d nodes, want 2", got)
	}
	// Fill small: it stays capable but stops fitting.
	if err := small.Reserve(Constraints{Cores: 2}); err != nil {
		t.Fatal(err)
	}
	fitting := p.Fitting(c)
	if len(fitting) != 1 || fitting[0].Name() != "big" {
		t.Fatalf("Fitting = %v", fitting)
	}
	if got := len(p.IndexFor(c).AppendCapable(nil)); got != 2 {
		t.Fatalf("Capable after load = %d nodes, want 2", got)
	}
}

func TestPoolIterationDeterministic(t *testing.T) {
	p := NewPool()
	for _, name := range []string{"c", "a", "b"} {
		_ = p.Add(NewNode(name, FogDevice))
	}
	nodes := p.Nodes()
	want := []string{"c", "a", "b"} // insertion order
	for i, n := range nodes {
		if n.Name() != want[i] {
			t.Fatalf("iteration order %v, want insertion order %v", nodes, want)
		}
	}
	names := p.Names()
	wantSorted := []string{"a", "b", "c"}
	for i := range names {
		if names[i] != wantSorted[i] {
			t.Fatalf("Names() = %v, want sorted", names)
		}
	}
}

func TestSimProviderLimit(t *testing.T) {
	prov := NewSimProvider("aws", CloudVM, 2, 30*time.Second)
	n1, d, err := prov.Acquire()
	if err != nil || n1 == nil || d != 30*time.Second {
		t.Fatalf("first acquire: %v %v %v", n1, d, err)
	}
	if _, _, err := prov.Acquire(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prov.Acquire(); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-limit acquire err = %v", err)
	}
	if err := prov.Release(n1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prov.Acquire(); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestShrinkNeverRemovesBusyNodes(t *testing.T) {
	prov := NewSimProvider("cloud", CloudVM, 4, 0)
	mgr := NewElasticManager(prov, ScalePolicy{MaxNodes: 4, IdleCoresToShrink: 0})
	pool := NewPool()
	n1, _, _ := mgr.GrowOne(pool)
	if err := n1.Reserve(Constraints{Cores: 1}); err != nil {
		t.Fatal(err)
	}
	// A busy victim is cordoned (drain-then-remove), never removed while
	// its reservation is live.
	v, err := mgr.ShrinkOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("shrunk busy node %s", v.Name())
	}
	if pool.Len() != 1 {
		t.Fatal("busy node left the pool")
	}
}

// Property: for any sequence of reserve/release pairs, free capacity never
// goes negative and never exceeds the description.
func TestReservationInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		n := NewNode("x", Description{Cores: 8, MemoryMB: 8000, GPUs: 2})
		var held []Constraints
		for _, op := range ops {
			if op%2 == 0 {
				c := Constraints{
					Cores:    int(op%4) + 1,
					MemoryMB: int64(op%3) * 1000,
					GPUs:     int(op % 2),
				}
				if n.Reserve(c) == nil {
					held = append(held, c)
				}
			} else if len(held) > 0 {
				n.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if n.FreeCores() < 0 || n.FreeCores() > 8 {
				return false
			}
			if freeMemMB(n) < 0 || freeMemMB(n) > 8000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{HPC: "hpc", Cloud: "cloud", Fog: "fog", Edge: "edge"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

// Downscaling is drain-then-remove: a busy victim is cordoned first and
// only removed once its running work has released — never killed.
func TestShrinkDrainsBusyNodeBeforeRemoval(t *testing.T) {
	prov := NewSimProvider("cloud", CloudVM, 4, 0)
	mgr := NewElasticManager(prov, ScalePolicy{MaxNodes: 4, IdleCoresToShrink: 0})
	pool := NewPool()
	n1, _, _ := mgr.GrowOne(pool)
	work := Constraints{Cores: 1}
	if err := n1.Reserve(work); err != nil {
		t.Fatal(err)
	}

	// Phase 1: the busy node is cordoned, not removed.
	v, err := mgr.ShrinkOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("removed busy node %s", v.Name())
	}
	if !n1.Drained() {
		t.Fatal("busy victim not cordoned")
	}
	if mgr.DrainingCount() != 1 {
		t.Fatalf("draining count = %d, want 1", mgr.DrainingCount())
	}
	if err := n1.Reserve(work); err == nil {
		t.Fatal("cordoned node accepted a new reservation")
	}
	// Still bleeding: a second call removes nothing.
	if v, _ := mgr.ShrinkOne(pool); v != nil {
		t.Fatalf("removed still-busy node %s", v.Name())
	}

	// The work finishes; phase 2 reaps the node.
	n1.Release(work)
	v, err = mgr.ShrinkOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Name() != n1.Name() {
		t.Fatalf("reaped %v, want %s", v, n1.Name())
	}
	if pool.Len() != 0 || mgr.ElasticCount() != 0 {
		t.Fatalf("pool=%d elastic=%d after reap, want both 0", pool.Len(), mgr.ElasticCount())
	}
}

// The cordon hook (engine DrainNode in production) sees every victim.
func TestShrinkUsesCordonHook(t *testing.T) {
	prov := NewSimProvider("cloud", CloudVM, 1, 0)
	mgr := NewElasticManager(prov, ScalePolicy{MaxNodes: 1, IdleCoresToShrink: 0})
	pool := NewPool()
	n1, _, _ := mgr.GrowOne(pool)
	var cordoned []string
	mgr.SetCordon(func(name string) error {
		cordoned = append(cordoned, name)
		n, ok := pool.Get(name)
		if !ok {
			t.Fatalf("cordon hook called for %s after pool removal", name)
		}
		n.Drain()
		return nil
	})
	v, err := mgr.ShrinkOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Name() != n1.Name() {
		t.Fatalf("shrunk %v, want idle %s", v, n1.Name())
	}
	if len(cordoned) != 1 || cordoned[0] != n1.Name() {
		t.Fatalf("cordon hook saw %v, want [%s]", cordoned, n1.Name())
	}
}
