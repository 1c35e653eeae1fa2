package autoscale

// The threshold planner's rule, exercised through grow/shrink loops: the
// rule decides, the tier mechanics (grow / reclaim / shrink) execute.

import (
	"testing"

	"repro/internal/resources"
)

// thresholdDelta evaluates the planner on the pool's current state with
// the given ready-queue depth: +1 grow, -1 shrink, 0 hold.
func thresholdDelta(a *Autoscaler, pool *resources.Pool, ready int) int {
	return a.decide(Signals{Ready: ready, FreeCores: pool.FreeCores(), TotalCores: pool.TotalCores()}).Delta
}

func TestThresholdGrowAndShrink(t *testing.T) {
	plan, err := NewThreshold(Tier{Name: "cloud", Desc: resources.CloudVM, Max: 4}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &plan.tiers[0]
	pool := resources.NewPool()

	// Empty pool + pending work ⇒ grow.
	if d := thresholdDelta(plan, pool, 10); d <= 0 {
		t.Fatalf("decision = %v, want grow", d)
	}
	if _, err := plan.grow(pool, tr); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 || len(tr.elastic) != 1 {
		t.Fatal("grow did not register node")
	}

	// Massive backlog ⇒ keep growing until Max.
	grew := 1
	for thresholdDelta(plan, pool, 1000) > 0 {
		if _, err := plan.grow(pool, tr); err != nil {
			t.Fatal(err)
		}
		grew++
	}
	if grew != 4 {
		t.Fatalf("grew to %d nodes, want Max=4", grew)
	}

	// Idle ⇒ shrink back down to zero.
	shrunk := 0
	for thresholdDelta(plan, pool, 0) < 0 {
		v, err := plan.shrink(pool, tr)
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
}

// A load spike mid-drain reclaims the cordoned node instead of paying for
// a new one.
func TestThresholdReclaimCancelsDrain(t *testing.T) {
	plan, err := NewThreshold(Tier{Name: "cloud", Desc: resources.CloudVM, Max: 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &plan.tiers[0]
	pool := resources.NewPool()
	n1, _ := plan.grow(pool, tr)
	work := resources.Constraints{Cores: 1}
	if err := n1.Reserve(work); err != nil {
		t.Fatal(err)
	}
	if v, _ := plan.shrink(pool, tr); v != nil {
		t.Fatalf("removed busy node %s", v.Name())
	}
	// Pending work + a draining node ⇒ Grow, even at Max.
	if d := thresholdDelta(plan, pool, 5); d <= 0 {
		t.Fatalf("decision = %v, want grow (reclaim)", d)
	}
	n := tr.reclaim()
	if n == nil || n.Name() != n1.Name() {
		t.Fatalf("reclaimed %v, want %s", n, n1.Name())
	}
	if n1.Drained() || len(tr.draining) != 0 {
		t.Fatal("reclaimed node still cordoned")
	}
	n1.Release(work)
	if err := n1.Reserve(work); err != nil {
		t.Fatalf("reclaimed node refuses work: %v", err)
	}
}
