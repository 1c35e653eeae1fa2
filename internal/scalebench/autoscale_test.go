package scalebench

import (
	"os"
	"testing"
	"time"
)

// TestRunAutoscaleSmall keeps the comparison harness honest at suite
// speed: both arms must drain the whole trace on both shapes, report
// positive priced cost, and balance their node-add/remove books.
func TestRunAutoscaleSmall(t *testing.T) {
	rep, err := RunAutoscale(AutoscaleConfig{Tasks: 400, Seed: 1, Every: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shapes) != 2 {
		t.Fatalf("got %d shapes, want 2", len(rep.Shapes))
	}
	for _, sh := range rep.Shapes {
		for name, arm := range map[string]AutoscaleArm{"legacy": sh.Legacy, "cost_aware": sh.CostAware} {
			if arm.TasksCompleted != sh.Tasks {
				t.Fatalf("%s/%s completed %d of %d", sh.Shape, name, arm.TasksCompleted, sh.Tasks)
			}
			if arm.CostUnits <= 0 || arm.CostPer1kTasks <= 0 {
				t.Fatalf("%s/%s degenerate cost: %+v", sh.Shape, name, arm)
			}
			if arm.NodesRemoved > arm.NodesAdded {
				t.Fatalf("%s/%s removed %d nodes but added only %d", sh.Shape, name, arm.NodesRemoved, arm.NodesAdded)
			}
		}
		if sh.LegacyOverCostAware <= 0 {
			t.Fatalf("%s: no cost ratio computed: %+v", sh.Shape, sh)
		}
	}
	// The legacy arm runs the threshold planner through the shared
	// autoscale step; pinned to what the pre-host elastic loop produced
	// for this config, so the baseline the cost gate divides by cannot
	// drift.
	wantLegacy := []AutoscaleArm{
		{TasksCompleted: 364, MakespanSec: 3617.755766276, CostUnits: 1.0524009873860556,
			CostPer1kTasks: 2.8912115038078445, PeakNodes: 2, NodesAdded: 1, NodesRemoved: 0},
		{TasksCompleted: 389, MakespanSec: 83432.922535721, CostUnits: 6.386568368551682,
			CostPer1kTasks: 16.417913543834658, PeakNodes: 2, NodesAdded: 58, NodesRemoved: 58},
	}
	for i, sh := range rep.Shapes {
		if sh.Legacy != wantLegacy[i] {
			t.Fatalf("%s legacy arm = %+v, want %+v", sh.Shape, sh.Legacy, wantLegacy[i])
		}
	}
}

// TestRunAutoscaleDeterministic: the comparison is a virtual-clock
// replay of a seeded trace, so two runs of the same config must price
// out identically — the property that makes the committed numbers and
// the nightly gate meaningful.
func TestRunAutoscaleDeterministic(t *testing.T) {
	cfg := AutoscaleConfig{Tasks: 300, Seed: 7, Every: 10 * time.Second}
	a, err := RunAutoscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAutoscale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Shapes {
		if a.Shapes[i] != b.Shapes[i] {
			t.Fatalf("shape %s not deterministic:\n  %+v\n  %+v", a.Shapes[i].Shape, a.Shapes[i], b.Shapes[i])
		}
	}
}

// TestAutoscaleSmoke is the nightly cost gate at the committed
// BENCH_scale.json scale: on both the bursty and the diurnal shape the
// cost-aware analyzer must run the trace no more expensively per task
// than the legacy single-tier baseline. Opt in with SCALE_SMOKE=1,
// alongside the throughput smoke.
func TestAutoscaleSmoke(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the autoscale cost gate")
	}
	rep, err := RunAutoscale(AutoscaleConfig{Tasks: 250, Seed: 1, Progress: func(s string) { t.Log(s) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range rep.Shapes {
		if sh.CostAware.TasksCompleted != sh.Tasks || sh.Legacy.TasksCompleted != sh.Tasks {
			t.Fatalf("%s: shortfall (legacy %d, cost-aware %d, want %d)",
				sh.Shape, sh.Legacy.TasksCompleted, sh.CostAware.TasksCompleted, sh.Tasks)
		}
		if sh.CostAware.CostPer1kTasks > sh.Legacy.CostPer1kTasks {
			t.Fatalf("%s: cost-aware costs more per task than legacy: %.2f vs %.2f per 1k",
				sh.Shape, sh.CostAware.CostPer1kTasks, sh.Legacy.CostPer1kTasks)
		}
		t.Logf("%s: legacy %.2f vs cost-aware %.2f per 1k tasks (%.2fx)",
			sh.Shape, sh.Legacy.CostPer1kTasks, sh.CostAware.CostPer1kTasks, sh.LegacyOverCostAware)
	}
}
