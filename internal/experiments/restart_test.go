package experiments

import "testing"

// TestE14NoRecomputeAfterRestart is the acceptance test of the
// checkpoint subsystem: after a mid-run engine crash and a restore from
// the latest snapshot, zero tasks the snapshot recorded as completed
// execute again, and the resumed run launches exactly the unfinished
// remainder.
func TestE14NoRecomputeAfterRestart(t *testing.T) {
	tab := run(t)(e14CrashRestart(4, 20, 10))
	cell := func(col string) float64 { return tab.at("every:10", col).vals[0] }
	snapshot := tab.at("every:10", "done pre-crash").vals[1]
	if snapshot == 0 {
		t.Fatal("no completed tasks in the restored snapshot; crash landed too early")
	}
	if restored := cell("restored"); restored != snapshot {
		t.Fatalf("restored %v of %v snapshot tasks (pool unchanged, all replicas should survive)", restored, snapshot)
	}
	if n := cell("recomputed"); n != 0 {
		t.Fatalf("%v restored tasks re-executed after restart, want 0", n)
	}
	if want := cell("tasks") - cell("restored"); cell("launched") != want {
		t.Fatalf("resumed run launched %v tasks, want %v (the unfinished remainder)", cell("launched"), want)
	}
	if resumed, cold := tab.at("every:10", "resumed makespan"), tab.at("every:10", "cold makespan"); resumed.vals[0] >= cold.vals[0] {
		t.Fatalf("resumed makespan %s not shorter than cold %s — restore bought nothing", resumed.text, cold.text)
	}
}
