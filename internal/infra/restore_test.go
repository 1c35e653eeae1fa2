package infra

import (
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
)

// Restore under an admission quota: a recorded completion that resolves
// never runs and is never charged; one whose outputs lost every holder
// re-runs and is admitted like any other task, so every slot taken is
// returned and the run drains.
func TestRestoreUnderAdmissionChargesOnlyWhatRuns(t *testing.T) {
	specs := []TaskSpec{
		{ID: 1, Class: "lost", Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.Out}}},
		{ID: 2, Class: "kept", Duration: time.Second, Accesses: []deps.Access{{Data: 2, Dir: deps.Out}}},
		{ID: 3, Class: "join", Duration: time.Second, Accesses: []deps.Access{
			{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.In}, {Data: 3, Dir: deps.Out}}},
	}
	d1, d2 := deps.Version{Data: 1, Ver: 1}, deps.Version{Data: 2, Ver: 1}
	snap := &checkpoint.Snapshot{
		Tasks: []engine.TaskSnap{
			{ID: 1, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{d1}},
			{ID: 2, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{d2}},
		},
		Catalog: []checkpoint.CatalogEntry{
			{Key: d1, Size: 1e6, Locations: []string{"gone"}}, // no persist tier: nothing to re-stage from
			{Key: d2, Size: 1e6, Locations: []string{nodeName(0)}},
		},
	}
	adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1})
	cfg := baseCfg(1)
	cfg.Restore, cfg.Admission = snap, adm
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("the restored run did not drain: %v", err)
	}
	if res.TasksRestored != 1 || res.ReplicasRestaged != 0 {
		t.Fatalf("restored %d tasks, re-staged %d replicas; want 1 and 0", res.TasksRestored, res.ReplicasRestaged)
	}
	if res.TasksCompleted != 2 || res.TasksReExecuted != 0 {
		t.Fatalf("completed %d (re-executed %d), want the lost producer and the join to run once each", res.TasksCompleted, res.TasksReExecuted)
	}
	st := adm.Stats()
	if charged := st.Admitted + st.Released; charged != len(specs)-res.TasksRestored {
		t.Fatalf("%d submissions charged a slot, want %d (every task that ran, none that resolved)", charged, len(specs)-res.TasksRestored)
	}
	if st.InFlight != 0 {
		t.Fatalf("%d slots still held after the run drained", st.InFlight)
	}
}
