package checkpoint_test

import (
	"testing"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workloads"
)

// benchSim builds a completed mid-size simulation whose engine state a
// checkpoint capture walks: ~2.3k tasks, full catalog.
func benchSim(b *testing.B) *infra.Sim {
	b.Helper()
	g := workloads.DefaultGWAS()
	g.Chromosomes = 23
	g.ImputationsPerChrom = 100
	specs, stageIn := workloads.GWAS(g)
	pool := resources.NewPool()
	for i := 0; i < 8; i++ {
		_ = pool.Add(resources.NewNode(nodeName(i), resources.MareNostrumNode))
	}
	sim, err := infra.New(infra.Config{
		Pool:    pool,
		Net:     simnet.Continuum(),
		Policy:  sched.MinLoad{},
		StageIn: stageIn,
	}, specs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	return sim
}

func nodeName(i int) string { return "bn" + string(rune('0'+i)) }

// BenchmarkCheckpointSnapshot measures capturing the engine + catalog
// state of a ~2.3k-task run (no disk I/O).
func BenchmarkCheckpointSnapshot(b *testing.B) {
	sim := benchSim(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sim.CheckpointSnapshot()
		if len(snap.Tasks) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkCheckpointSave measures the full snapshot → encode → hash →
// atomic-write path.
func BenchmarkCheckpointSave(b *testing.B) {
	sim := benchSim(b)
	store, err := checkpoint.NewStore(b.TempDir(), checkpoint.Keep(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Save(sim.CheckpointSnapshot()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// TestCaptureDeltaSharesOutputLists pins the cost shape of a delta
// capture: a dirty task's record carries the task's own output list, and
// the delta carries the engine's records, so a capture of 1000 tasks that
// completed since the base allocates two objects and nothing per task.
func TestCaptureDeltaSharesOutputLists(t *testing.T) {
	const tasks = 1000
	specs := make([]infra.TaskSpec, tasks)
	for i := range specs {
		specs[i] = infra.TaskSpec{
			ID: int64(i + 1), Class: "t",
			Accesses: []deps.Access{{Data: deps.DataID(i + 1), Dir: deps.Out}},
		}
	}
	var sims []*infra.Sim // one per AllocsPerRun call: a capture drains the dirty set
	for i := 0; i < 2; i++ {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("n0", resources.MareNostrumNode))
		sim, err := infra.New(infra.Config{Pool: pool, Net: simnet.Continuum(), Policy: sched.MinLoad{}}, specs)
		if err != nil {
			t.Fatal(err)
		}
		checkpoint.CaptureBase(sim.Engine(), nil) // dirty tracking starts here
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		sims = append(sims, sim)
	}
	var d *checkpoint.Delta
	allocs := testing.AllocsPerRun(1, func() {
		d = checkpoint.CaptureDelta(sims[0].Engine(), nil)
		sims = sims[1:]
	})
	if len(d.Tasks) != tasks || len(d.Tasks[tasks-1].OutputKeys) != 1 {
		t.Fatalf("captured %d records, last %+v", len(d.Tasks), d.Tasks[len(d.Tasks)-1])
	}
	// The engine's record slice and the Delta.
	if allocs > 2 {
		t.Fatalf("CaptureDelta of %d dirty tasks allocated %.0f objects, want 2", tasks, allocs)
	}
}
