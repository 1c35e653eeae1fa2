package experiments

import (
	"fmt"
	"testing"
	"time"
)

// e16Check asserts what every E16 run must satisfy: both arms drain the
// whole trace on both shapes, report positive priced cost, and balance
// their node-add/remove books.
func e16Check(t *testing.T, rows []E16Result) {
	t.Helper()
	if len(rows) != 2 {
		t.Fatalf("got %d shapes, want 2", len(rows))
	}
	for _, r := range rows {
		for name, arm := range map[string]E16Arm{"threshold": r.Threshold, "cost-aware": r.CostAware} {
			if arm.TasksCompleted != r.Tasks {
				t.Fatalf("%s/%s completed %d of %d", r.Shape, name, arm.TasksCompleted, r.Tasks)
			}
			if arm.CostUnits <= 0 || arm.CostPer1kTasks <= 0 {
				t.Fatalf("%s/%s degenerate cost: %+v", r.Shape, name, arm)
			}
			if arm.NodesRemoved > arm.NodesAdded {
				t.Fatalf("%s/%s removed %d nodes but added only %d", r.Shape, name, arm.NodesRemoved, arm.NodesAdded)
			}
		}
	}
}

// TestE16CostAwareUndercutsThreshold is the cost gate at the published
// scale. The run is a virtual-clock replay of a seeded trace, so the
// figures are pinned exactly (to the table's precision), not banded:
// any drift in either planner, the trace generator or the elastic
// mechanism shows up here.
func TestE16CostAwareUndercutsThreshold(t *testing.T) {
	rows, err := E16AutoscaleCost(250, 1)
	if err != nil {
		t.Fatal(err)
	}
	e16Check(t, rows)
	want := []string{
		"poisson-burst 4.49 vs 3.23",
		"diurnal 16.31 vs 8.83",
	}
	for i, r := range rows {
		if r.CostAware.CostPer1kTasks > r.Threshold.CostPer1kTasks {
			t.Fatalf("%s: cost-aware costs more per task than threshold: %.2f vs %.2f per 1k",
				r.Shape, r.CostAware.CostPer1kTasks, r.Threshold.CostPer1kTasks)
		}
		got := fmt.Sprintf("%s %.2f vs %.2f", r.Shape, r.Threshold.CostPer1kTasks, r.CostAware.CostPer1kTasks)
		if got != want[i] {
			t.Fatalf("cost per 1k tasks (threshold vs cost-aware) = %q, want %q", got, want[i])
		}
	}
}

// TestE16ThresholdBaselinePinned: the threshold arm is pinned to what
// the pre-host elastic loop produced for this config, so the baseline
// the comparison divides by cannot drift.
func TestE16ThresholdBaselinePinned(t *testing.T) {
	rows, err := E16AutoscaleCost(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	e16Check(t, rows)
	want := []E16Arm{
		{TasksCompleted: 364, Makespan: 3617755766276 * time.Nanosecond, CostUnits: 1.0524009873860556,
			CostPer1kTasks: 2.8912115038078445, PeakNodes: 2, NodesAdded: 1, NodesRemoved: 0},
		{TasksCompleted: 389, Makespan: 83432922535721 * time.Nanosecond, CostUnits: 6.386568368551682,
			CostPer1kTasks: 16.417913543834658, PeakNodes: 2, NodesAdded: 58, NodesRemoved: 58},
	}
	for i, r := range rows {
		if r.Threshold != want[i] {
			t.Fatalf("%s threshold arm = %+v, want %+v", r.Shape, r.Threshold, want[i])
		}
	}
}

// TestE16Deterministic: two runs of the same config must price out
// identically — the property that makes the pinned figures meaningful.
func TestE16Deterministic(t *testing.T) {
	a, err := E16AutoscaleCost(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := E16AutoscaleCost(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shape %s not deterministic:\n  %+v\n  %+v", a[i].Shape, a[i], b[i])
		}
	}
}
