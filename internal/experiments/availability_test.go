package experiments

import (
	"testing"
	"time"
)

// TestE15PoliciesEliminateRanMissing is the acceptance test of the
// availability layer: under a heal-bounded partition, run-anyway launches
// tasks without their data while defer and recompute both drive the
// "missing, run anyway" count to zero — defer by waiting the cut out,
// recompute by paying exactly one lineage re-run of the stranded
// producer and finishing long before the heal.
func TestE15PoliciesEliminateRanMissing(t *testing.T) {
	tab := run(t)(e15PartitionRecovery(8, 4, 40*time.Second))
	if tab.at("run-anyway", "ran-missing").vals[0] == 0 {
		t.Fatal("run-anyway reported zero ran-missing launches; the cut never bit and the drill proves nothing")
	}
	for _, policy := range []string{"defer", "recompute"} {
		if n := tab.at(policy, "ran-missing").vals[0]; n != 0 {
			t.Fatalf("%s: %v tasks still ran with missing inputs, want 0", policy, n)
		}
		if tab.at(policy, "deferred").vals[0] == 0 {
			t.Fatalf("%s: nothing was parked; the policy never engaged", policy)
		}
	}
	if re := tab.at("recompute", "re-executed").vals[0]; re != 1 {
		t.Fatalf("recompute paid %v lineage re-runs, want exactly 1 (the stranded producer)", re)
	}
	if re := tab.at("defer", "re-executed").vals[0]; re != 0 {
		t.Fatalf("defer paid %v lineage re-runs, want 0 (it waits, it does not recompute)", re)
	}
	if rec, def := tab.at("recompute", "makespan"), tab.at("defer", "makespan"); rec.vals[0] >= def.vals[0] {
		t.Fatalf("recompute makespan %s not shorter than defer's %s under a long heal", rec.text, def.text)
	}
}

// TestE15ShrunkPoolRestore is the acceptance test of the placement-aware
// restore: resuming onto a pool missing a node re-stages the vanished
// node's replicas from the persist tier, restores every snapshotted
// completion, and recomputes none of them.
func TestE15ShrunkPoolRestore(t *testing.T) {
	tab := run(t)(e15ShrunkPoolRestore(12, 4))
	cell := func(col string) float64 { return tab.at("17", col).vals[0] }
	if cell("snapshotted") == 0 {
		t.Fatal("no completed tasks in the restored snapshot; halt landed too early")
	}
	if cell("restored") != cell("snapshotted") {
		t.Fatalf("restored %v of %v snapshotted tasks; the persist tier should cover the vanished node",
			cell("restored"), cell("snapshotted"))
	}
	if cell("re-staged") == 0 {
		t.Fatal("nothing was re-staged; the removed node apparently held no exclusive replicas — drill misconfigured")
	}
	if n := cell("recomputed"); n != 0 {
		t.Fatalf("%v snapshotted tasks re-executed on the shrunk pool, want 0", n)
	}
}
