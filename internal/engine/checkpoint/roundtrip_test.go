package checkpoint_test

// Checkpoint → restore round trip, swept across every generator in
// internal/workloads.ConformanceSuite: run each workload on the
// simulator with an every-N snapshot policy, kill the whole engine
// mid-run (Config.HaltAt — the simulated process death), restore a
// fresh simulation from the latest valid snapshot, and assert that the
// resumed run completes the workload without re-executing any restored
// task.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// simConfig builds the standard single-node conformance rig.
func simConfig(c workloads.ConformanceCase, tr *trace.Tracer) infra.Config {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("pn0", c.Node))
	return infra.Config{
		Pool:    pool,
		Net:     simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:  sched.FIFO{},
		Tracer:  tr,
		StageIn: c.StageIn,
	}
}

// TestIntervalCheckpointDoesNotMaskStuckRuns: interval checkpoints
// re-arm themselves on the virtual clock; without a liveness gate the
// self-re-arming event would keep the heap non-empty forever and a
// wedged simulation (unsatisfiable constraints) would spin instead of
// reporting ErrStuck.
func TestIntervalCheckpointDoesNotMaskStuckRuns(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("tiny", resources.Description{
		Cores: 1, MemoryMB: 100, SpeedFactor: 1,
	}))
	sim, err := infra.New(infra.Config{
		Pool:       pool,
		Net:        simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:     sched.FIFO{},
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.Interval(time.Second)},
	}, []infra.TaskSpec{{
		ID: 1, Class: "too-big", Duration: time.Second,
		Constraints: resources.Constraints{MemoryMB: 1_000_000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sim.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, infra.ErrStuck) {
			t.Fatalf("Run = %v, want ErrStuck", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stuck run did not terminate: interval checkpoints keep the clock alive")
	}
}

func TestCheckpointRestoreRoundTripSweep(t *testing.T) {
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			// Cold run: learn the makespan so the crash lands mid-run.
			cold, err := infra.New(simConfig(c, nil), c.Specs)
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := cold.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Run 1: checkpoint every 3 completions, die at half-makespan.
			store, err := checkpoint.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cfg1 := simConfig(c, nil)
			cfg1.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(3)}
			cfg1.HaltAt = coldRes.Makespan / 2
			sim1, err := infra.New(cfg1, c.Specs)
			if err != nil {
				t.Fatal(err)
			}
			res1, err := sim1.Run()
			if !errors.Is(err, infra.ErrHalted) {
				t.Fatalf("run 1 = %v, want ErrHalted (completed %d)", err, res1.TasksCompleted)
			}
			snap, err := store.Latest()
			if err != nil {
				t.Fatalf("no snapshot before the crash: %v", err)
			}
			restored := make(map[int64]bool)
			for _, t := range snap.Tasks {
				if t.Restorable() {
					restored[t.ID] = true
				}
			}
			if len(restored) == 0 {
				t.Fatal("latest snapshot records no completed tasks; bad halt point")
			}

			// Run 2: restore and finish.
			tr2 := trace.New(0)
			cfg2 := simConfig(c, tr2)
			cfg2.Restore = snap
			sim2, err := infra.New(cfg2, c.Specs)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := sim2.Run()
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			// Every snapshot-completed task was restored (the conformance
			// node pool is identical, so all replicas survive) …
			if res2.TasksRestored != len(restored) {
				t.Fatalf("restored %d tasks, snapshot records %d", res2.TasksRestored, len(restored))
			}
			// … none of them executed again …
			for _, ev := range tr2.Events() {
				if ev.Kind == trace.TaskStarted && restored[ev.Task] {
					t.Fatalf("restored task %d re-executed in the resumed run", ev.Task)
				}
			}
			// … the resumed run launched exactly the unfinished remainder …
			st2 := sim2.EngineStats()
			if want := len(c.Specs) - len(restored); st2.Launched != want {
				t.Fatalf("resumed run launched %d tasks, want %d", st2.Launched, want)
			}
			if st2.Restored != len(restored) {
				t.Fatalf("engine restored counter = %d, want %d", st2.Restored, len(restored))
			}
			if res2.TasksReExecuted != 0 {
				t.Fatalf("resumed run re-executed %d tasks, want 0", res2.TasksReExecuted)
			}
			// … and the two halves cover the whole workload exactly once.
			if total := res2.TasksCompleted + res2.TasksRestored; total != len(c.Specs) {
				t.Fatalf("restored(%d) + completed(%d) = %d, want %d",
					res2.TasksRestored, res2.TasksCompleted, total, len(c.Specs))
			}
		})
	}
}

// TestStoreRoundTripsValuesAndEmptiness covers the two shapes the
// simulator sweep above never writes: a live-backend catalog row carrying
// an encoded value, and a snapshot with nothing in it (every slice nil —
// what the codec writes for an empty section must read back as empty).
func TestStoreRoundTripsValuesAndEmptiness(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	value, ok := checkpoint.EncodeValue([]int{3, 4})
	if !ok {
		t.Fatal("EncodeValue([]int) failed")
	}
	live := &checkpoint.Snapshot{
		At:    time.Second,
		Tasks: []engine.TaskSnap{{ID: 1, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{{Data: 1, Ver: 1}}}},
		Catalog: []checkpoint.CatalogEntry{{
			Key: deps.Version{Data: 1, Ver: 1}, Size: 16, Locations: []string{"local"},
			Value: value,
		}},
	}
	for _, want := range []*checkpoint.Snapshot{live, {}} {
		path, err := store.Save(want) // stamps Seq into want
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Load:\n got %+v\nwant %+v", got, want)
		}
		if got, err = store.Latest(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Latest:\n got %+v, %v\nwant %+v", got, err, want)
		}
	}
	got, err := store.Load(store.Snapshots()[0])
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := checkpoint.DecodeValue(got.Catalog[0].Value); !ok || !reflect.DeepEqual(v, []int{3, 4}) {
		t.Fatalf("restored value = %v, %v, want [3 4]", v, ok)
	}
}
