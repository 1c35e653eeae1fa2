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
// capture: a logged record carries the task's own output list, and a
// capture swaps the engine's log out whole, so a capture of the 2000
// records 1000 tasks logged since the base (started, then done) allocates
// two objects, the Delta and the array the log goes on in — and, into a
// spare delta, none.
func TestCaptureDeltaSharesOutputLists(t *testing.T) {
	const tasks = 1000
	specs := make([]infra.TaskSpec, tasks)
	for i := range specs {
		specs[i] = infra.TaskSpec{
			ID: int64(i + 1), Class: "t",
			Accesses: []deps.Access{{Data: deps.DataID(i + 1), Dir: deps.Out}},
		}
	}
	var sims []*infra.Sim // one per AllocsPerRun call: a capture empties the log
	for i := 0; i < 4; i++ {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("n0", resources.MareNostrumNode))
		sim, err := infra.New(infra.Config{Pool: pool, Net: simnet.Continuum(), Policy: sched.MinLoad{}}, specs)
		if err != nil {
			t.Fatal(err)
		}
		checkpoint.CaptureBase(sim.Engine(), nil) // the log opens here
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
	if len(d.Tasks) != 2*tasks {
		t.Fatalf("captured %d records, want %d", len(d.Tasks), 2*tasks)
	}
	list := map[int64]*deps.Version{} // each task's output list, by its first element
	for _, r := range d.Tasks {
		if len(r.OutputKeys) != 1 {
			t.Fatalf("record %+v: want its task's one output", r)
		}
		if first, ok := list[r.ID]; ok && first != &r.OutputKeys[0] {
			t.Fatalf("task %d's records carry two output lists", r.ID)
		}
		list[r.ID] = &r.OutputKeys[0]
	}
	if allocs > 2 {
		t.Fatalf("CaptureDelta of %d logged records allocated %.0f objects, want 2", len(d.Tasks), allocs)
	}
	spare := d
	if allocs := testing.AllocsPerRun(1, func() {
		d = checkpoint.CaptureDeltaInto(spare, sims[0].Engine(), nil)
		sims = sims[1:]
	}); allocs != 0 || len(d.Tasks) != 2*tasks {
		t.Fatalf("a capture into a spare delta allocated %.0f objects for %d records, want none", allocs, len(d.Tasks))
	}
}
