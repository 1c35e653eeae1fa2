package autoscale

// The threshold planner's rule, exercised through the same grow/shrink
// loops that drove resources.ElasticManager's own Evaluate before the
// rule moved here: the planner decides, the manager's mechanism
// (GrowOne / Reclaim / ShrinkOne) executes.

import (
	"testing"

	"repro/internal/resources"
)

// thresholdDelta evaluates the planner on the pool's current state with
// the given ready-queue depth: +1 grow, -1 shrink, 0 hold.
func thresholdDelta(a *Autoscaler, pool *resources.Pool, ready int) int {
	return a.Evaluate(Signals{Ready: ready, FreeCores: pool.FreeCores(), TotalCores: pool.TotalCores()}).Delta
}

func TestThresholdGrowAndShrink(t *testing.T) {
	prov := resources.NewSimProvider("cloud", resources.CloudVM, 8, 0)
	mgr := resources.NewElasticManager(prov, resources.ScalePolicy{MaxNodes: 4, TasksPerCore: 1, IdleCoresToShrink: 0})
	pool := resources.NewPool()
	plan := NewThreshold(mgr)

	// Empty pool + pending work ⇒ grow.
	if d := thresholdDelta(plan, pool, 10); d <= 0 {
		t.Fatalf("decision = %v, want grow", d)
	}
	n, _, err := mgr.GrowOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 || mgr.ElasticCount() != 1 {
		t.Fatal("grow did not register node")
	}

	// Massive backlog ⇒ keep growing until MaxNodes.
	grew := 1
	for thresholdDelta(plan, pool, 1000) > 0 {
		if _, _, err := mgr.GrowOne(pool); err != nil {
			t.Fatal(err)
		}
		grew++
	}
	if grew != 4 {
		t.Fatalf("grew to %d nodes, want MaxNodes=4", grew)
	}

	// Idle ⇒ shrink back down to MinNodes.
	shrunk := 0
	for thresholdDelta(plan, pool, 0) < 0 {
		v, err := mgr.ShrinkOne(pool)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			break
		}
		shrunk++
	}
	if shrunk != 4 || pool.Len() != 0 {
		t.Fatalf("shrunk %d, pool %d nodes", shrunk, pool.Len())
	}
	_ = n
}

// A load spike mid-drain reclaims the cordoned node instead of paying the
// provider for a new one.
func TestThresholdReclaimCancelsDrain(t *testing.T) {
	prov := resources.NewSimProvider("cloud", resources.CloudVM, 1, 0)
	mgr := resources.NewElasticManager(prov, resources.ScalePolicy{MaxNodes: 1, TasksPerCore: 1, IdleCoresToShrink: 0})
	pool := resources.NewPool()
	plan := NewThreshold(mgr)
	n1, _, _ := mgr.GrowOne(pool)
	work := resources.Constraints{Cores: 1}
	if err := n1.Reserve(work); err != nil {
		t.Fatal(err)
	}
	if v, _ := mgr.ShrinkOne(pool); v != nil {
		t.Fatalf("removed busy node %s", v.Name())
	}
	// Pending work + a draining node ⇒ Grow, even at MaxNodes.
	if d := thresholdDelta(plan, pool, 5); d <= 0 {
		t.Fatalf("decision = %v, want grow (reclaim)", d)
	}
	n := mgr.Reclaim()
	if n == nil || n.Name() != n1.Name() {
		t.Fatalf("reclaimed %v, want %s", n, n1.Name())
	}
	if n1.Drained() || mgr.DrainingCount() != 0 {
		t.Fatal("reclaimed node still cordoned")
	}
	n1.Release(work)
	if err := n1.Reserve(work); err != nil {
		t.Fatalf("reclaimed node refuses work: %v", err)
	}
}
