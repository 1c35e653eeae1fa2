package experiments

import (
	"reflect"
	"testing"
	"time"
)

// e16Check asserts what every E16 run must satisfy: both arms drain the
// whole trace on both shapes, report positive priced cost, and balance
// their node-add/remove books. Each pair cell is threshold, cost-aware.
func e16Check(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.rows) != 2 {
		t.Fatalf("got %d shapes, want 2", len(tab.rows))
	}
	for _, shape := range []string{"poisson-burst", "diurnal"} {
		tasks := tab.at(shape, "tasks").vals[0]
		completed, cost := tab.at(shape, "completed").vals, tab.at(shape, "cost units").vals
		added, removed := tab.at(shape, "nodes added").vals, tab.at(shape, "nodes removed").vals
		for arm, name := range []string{"threshold", "cost-aware"} {
			if completed[arm] != tasks {
				t.Fatalf("%s/%s completed %v of %v", shape, name, completed[arm], tasks)
			}
			if per1k := tab.at(shape, name).vals[0]; cost[arm] <= 0 || per1k <= 0 {
				t.Fatalf("%s/%s degenerate cost: %v units, %v per 1k tasks", shape, name, cost[arm], per1k)
			}
			if removed[arm] > added[arm] {
				t.Fatalf("%s/%s removed %v nodes but added only %v", shape, name, removed[arm], added[arm])
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
	tab := run(t)(e16AutoscaleCost(250, 1))
	e16Check(t, tab)
	for shape, want := range map[string][2]string{"poisson-burst": {"4.49", "3.23"}, "diurnal": {"16.31", "8.83"}} {
		th, ca := tab.at(shape, "threshold"), tab.at(shape, "cost-aware")
		if ca.vals[0] > th.vals[0] {
			t.Fatalf("%s: cost-aware costs more per task than threshold: %s vs %s per 1k", shape, ca.text, th.text)
		}
		if got := [2]string{th.text, ca.text}; got != want {
			t.Fatalf("%s cost per 1k tasks (threshold, cost-aware) = %q, want %q", shape, got, want)
		}
	}
}

// TestE16ThresholdBaselinePinned: the threshold arm is pinned to what
// the pre-host elastic loop produced for this config, so the baseline
// the comparison divides by cannot drift. Every figure is the first
// value of its cell, at full precision.
func TestE16ThresholdBaselinePinned(t *testing.T) {
	tab := run(t)(e16AutoscaleCost(400, 1))
	e16Check(t, tab)
	cols := []string{"completed", "makespan", "cost units", "threshold", "peak nodes", "nodes added", "nodes removed"}
	want := map[string][]float64{
		"poisson-burst": {364, float64(3617755766276 * time.Nanosecond), 1.0524009873860556, 2.8912115038078445, 2, 1, 0},
		"diurnal":       {389, float64(83432922535721 * time.Nanosecond), 6.386568368551682, 16.417913543834658, 2, 58, 58},
	}
	for shape, w := range want {
		got := make([]float64, len(cols))
		for i, c := range cols {
			got[i] = tab.at(shape, c).vals[0]
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s threshold arm %v = %v, want %v", shape, cols, got, w)
		}
	}
}

// TestE16Deterministic: two runs of the same config must price out
// identically, cell for cell — the property that makes the pinned
// figures meaningful.
func TestE16Deterministic(t *testing.T) {
	a := run(t)(e16AutoscaleCost(300, 7))
	b := run(t)(e16AutoscaleCost(300, 7))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("not deterministic:\n  %+v\n  %+v", a.rows, b.rows)
	}
}
