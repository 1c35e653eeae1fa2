package autoscale

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/resources"
)

// oneTier returns a cost-aware autoscaler over a single tier and that
// tier's books.
func oneTier(t *testing.T, tr Tier) (*Autoscaler, *tier) {
	t.Helper()
	a, err := New([]Tier{tr})
	if err != nil {
		t.Fatal(err)
	}
	return a, &a.tiers[0]
}

// A tier hands out at most Max nodes, each after its Delay; a removal
// frees a slot.
func TestTierLimit(t *testing.T) {
	a, err := NewThreshold(Tier{Name: "aws", Desc: resources.CloudVM, Delay: 30 * time.Second, Max: 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &a.tiers[0]
	pool := resources.NewPool()
	act := a.Step(pool, Signals{Ready: 1})
	if act.Kind != Grew || act.Node == nil || act.Delay != 30*time.Second {
		t.Fatalf("first grow: %+v", act)
	}
	if _, err := a.grow(pool, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := a.grow(pool, tr); !errors.Is(err, resources.ErrInsufficient) {
		t.Fatalf("over-limit grow err = %v", err)
	}
	if n, err := a.shrink(pool, tr); err != nil || n == nil {
		t.Fatalf("idle shrink: %v %v", n, err)
	}
	if _, err := a.grow(pool, tr); err != nil {
		t.Fatalf("grow after removal: %v", err)
	}
}

func TestShrinkNeverRemovesBusyNodes(t *testing.T) {
	a, tr := oneTier(t, Tier{Name: "cloud", Desc: resources.CloudVM, Max: 4})
	pool := resources.NewPool()
	n1, _ := a.grow(pool, tr)
	if err := n1.Reserve(resources.Constraints{Cores: 1}); err != nil {
		t.Fatal(err)
	}
	// A busy victim is cordoned (drain-then-remove), never removed while
	// its reservation is live.
	v, err := a.shrink(pool, tr)
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

// Downscaling is drain-then-remove: a busy victim is cordoned first and
// only removed once its running work has released — never killed.
func TestShrinkDrainsBusyNodeBeforeRemoval(t *testing.T) {
	a, tr := oneTier(t, Tier{Name: "cloud", Desc: resources.CloudVM, Max: 4})
	pool := resources.NewPool()
	n1, _ := a.grow(pool, tr)
	work := resources.Constraints{Cores: 1}
	if err := n1.Reserve(work); err != nil {
		t.Fatal(err)
	}

	// Phase 1: the busy node is cordoned, not removed.
	v, err := a.shrink(pool, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("removed busy node %s", v.Name())
	}
	if !n1.Drained() {
		t.Fatal("busy victim not cordoned")
	}
	if len(tr.draining) != 1 {
		t.Fatalf("draining count = %d, want 1", len(tr.draining))
	}
	if err := n1.Reserve(work); err == nil {
		t.Fatal("cordoned node accepted a new reservation")
	}
	// Still bleeding: a second call removes nothing.
	if v, _ := a.shrink(pool, tr); v != nil {
		t.Fatalf("removed still-busy node %s", v.Name())
	}

	// The work finishes; phase 2 reaps the node.
	n1.Release(work)
	v, err = a.shrink(pool, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Name() != n1.Name() {
		t.Fatalf("reaped %v, want %s", v, n1.Name())
	}
	if pool.Len() != 0 || len(tr.elastic) != 0 {
		t.Fatalf("pool=%d elastic=%d after reap, want both 0", pool.Len(), len(tr.elastic))
	}
}

// The cordon hook (engine DrainNode in production) sees every victim.
func TestShrinkUsesCordonHook(t *testing.T) {
	a, tr := oneTier(t, Tier{Name: "cloud", Desc: resources.CloudVM, Max: 1})
	pool := resources.NewPool()
	n1, _ := a.grow(pool, tr)
	var cordoned []string
	a.SetCordon(func(name string) error {
		cordoned = append(cordoned, name)
		n, ok := pool.Get(name)
		if !ok {
			t.Fatalf("cordon hook called for %s after pool removal", name)
		}
		n.Drain()
		return nil
	})
	v, err := a.shrink(pool, tr)
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

// TestTierHammer races Steps from several goroutines against a reader of
// Decisions and of the decision series, and a load goroutine that
// reserves and releases cores on the pool's nodes, and checks the tier
// books between steps: at most one node draining per tier, at most Max
// elastic nodes, and each tier's books naming exactly the pool's <tier>-
// members. The series count every decision. Run it under -race.
func TestTierHammer(t *testing.T) {
	a, err := New([]Tier{
		{Name: "cloud", Desc: resources.CloudVM, Cost: 1, Max: 3},
		{Name: "fog", Desc: resources.FogDevice, Cost: 0.25, Max: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	a.Expose(reg)
	pool := resources.NewPool()
	if err := pool.Add(resources.NewNode("base-0", resources.FogDevice)); err != nil {
		t.Fatal(err)
	}
	steps := 400
	if testing.Short() {
		steps = 100
	}
	check := func() error {
		a.mu.Lock()
		defer a.mu.Unlock()
		for i := range a.tiers {
			tr := &a.tiers[i]
			if len(tr.draining) > 1 {
				return fmt.Errorf("%s: %d nodes draining", tr.Name, len(tr.draining))
			}
			if len(tr.elastic) > tr.Max {
				return fmt.Errorf("%s: %d elastic nodes, Max %d", tr.Name, len(tr.elastic), tr.Max)
			}
			var members []string
			for _, n := range pool.Nodes() {
				if strings.HasPrefix(n.Name(), tr.Name+"-") {
					members = append(members, n.Name())
				}
			}
			if len(members) != len(tr.elastic) {
				return fmt.Errorf("%s: pool holds %v, books hold %d", tr.Name, members, len(tr.elastic))
			}
			for _, name := range members {
				if _, ok := tr.elastic[name]; !ok {
					return fmt.Errorf("%s: pool member %s not on the books", tr.Name, name)
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := resources.Constraints{Cores: 1 + rng.Intn(2)}
			for i := 0; i < steps; i++ {
				// Idle half the time, so the fleet sheds as well as grows;
				// now and then a starved signature.
				ready, capable := 0, 1
				if rng.Intn(2) == 0 {
					ready = rng.Intn(60)
				}
				if rng.Intn(8) == 0 {
					capable = 0
				}
				s := sig(ready, c, capable, pool.FreeCores(), pool.TotalCores())
				a.Step(pool, s)
				if err := check(); err != nil {
					errs <- fmt.Errorf("stepper %d, step %d: %w", seed, i, err)
					return
				}
			}
		}(int64(g))
	}
	readers := sync.WaitGroup{}
	readers.Add(2)
	go func() { // decision readers
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = a.Decisions()
				reg.Visit(func(string, float64) {})
			}
		}
	}()
	go func() { // load: reserve and release cores across the pool
		defer readers.Done()
		rng := rand.New(rand.NewSource(99))
		hold := resources.Constraints{Cores: 1}
		var held []*resources.Node
		for {
			select {
			case <-done:
				for _, n := range held {
					n.Release(hold)
				}
				return
			default:
			}
			if nodes := pool.Nodes(); len(nodes) > 0 && rng.Intn(2) == 0 {
				if n := nodes[rng.Intn(len(nodes))]; n.Reserve(hold) == nil {
					held = append(held, n)
				}
			} else if len(held) > 0 {
				i := rng.Intn(len(held))
				held[i].Release(hold)
				held = append(held[:i], held[i+1:]...)
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Decisions()); got != 3*steps && !t.Failed() {
		t.Fatalf("%d decisions recorded, want %d", got, 3*steps)
	}
	counted := 0.0
	reg.Visit(func(_ string, v float64) { counted += v })
	if counted != float64(3*steps) {
		t.Fatalf("the decision series count %v decisions, want %d", counted, 3*steps)
	}
}
