package engine_test

// Work-stealing unit tests, at engine level: a tier-guarding policy
// (sched.WaitFast) declines to run long tasks on the slow node, so the
// shared bucket's long head parks it — the head-of-line blocking the
// steal phase exists to bypass. Tests drive completions by hand through
// a manual clock and a collecting executor.

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/trace"
)

// tierPool builds one fast node (SpeedFactor 1) and one slow node
// (SpeedFactor 0.1), one core each: WaitFast{MaxSlowdown: 2} accepts long
// tasks only on the fast node.
func tierPool() *resources.Pool {
	p := resources.NewPool()
	_ = p.Add(resources.NewNode("fast", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	_ = p.Add(resources.NewNode("slow", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 0.1, Class: resources.Fog,
	}))
	return p
}

func stealEngine(t *testing.T, steal engine.StealConfig, tr *trace.Tracer) (*engine.Engine, *collectExec) {
	t.Helper()
	exec := &collectExec{}
	e := engine.New(engine.Config{
		Pool:     tierPool(),
		Policy:   sched.WaitFast{Inner: sched.FIFO{}, MaxSlowdown: 2, MinWait: 10 * time.Second},
		Clock:    &stubClock{},
		Executor: exec,
		Tracer:   tr,
		Steal:    steal,
	})
	return e, exec
}

// long and short tasks share the unconstrained signature: one bucket.
func addSkew(e *engine.Engine) {
	e.Add(&engine.Task{ID: 1, Class: "long", EstDuration: 100 * time.Second}, nil, 0)
	e.Add(&engine.Task{ID: 2, Class: "long", EstDuration: 100 * time.Second}, nil, 0)
	e.Add(&engine.Task{ID: 3, Class: "short", EstDuration: time.Second}, nil, 0)
}

func placedIDs(exec *collectExec) []int64 {
	ids := make([]int64, 0, len(exec.queue))
	for _, p := range exec.queue {
		ids = append(ids, p.Task.ID)
	}
	return ids
}

func TestStealOffParksBucketBehindLongHead(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	e, exec := stealEngine(t, engine.StealConfig{}, nil)
	addSkew(e)
	e.Schedule()
	// Long 1 takes the fast node; long 2 declines the slow node and parks
	// the bucket — the short task behind it waits even though the slow
	// node is idle.
	if ids := placedIDs(exec); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("placements = %v, want [1]", ids)
	}
	if st := e.Stats(); st.Steals != 0 {
		t.Fatalf("steals = %d, want 0", st.Steals)
	}
}

func TestStealOnIdleBypassesBlockedHead(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	tr := trace.New(0)
	e, exec := stealEngine(t, engine.StealConfig{Mode: engine.StealOnIdle}, tr)
	addSkew(e)
	e.Schedule()
	// Same wave, but the short tail is stolen onto the idle slow node.
	// The blocked long head (task 2) must NOT be stolen: it keeps its
	// claim on the fast tier.
	if ids := placedIDs(exec); len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("placements = %v, want [1 3]", ids)
	}
	if exec.queue[1].Primary().Name() != "slow" {
		t.Fatalf("stolen task placed on %s, want slow", exec.queue[1].Primary().Name())
	}
	if st := e.Stats(); st.Steals != 1 {
		t.Fatalf("steals = %d, want 1", st.Steals)
	}
	if n := tr.Count(trace.TaskStolen); n != 1 {
		t.Fatalf("task_stolen events = %d, want 1", n)
	}
	// The parked long head places normally once the fast node frees up.
	pl := exec.queue[0]
	exec.queue = nil
	if _, ok := e.Complete(pl.Task.ID, pl.Epoch, false); !ok {
		t.Fatal("completion rejected")
	}
	e.Schedule()
	if ids := placedIDs(exec); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("post-completion placements = %v, want [2]", ids)
	}
	if exec.queue[0].Primary().Name() != "fast" {
		t.Fatalf("long head placed on %s, want fast", exec.queue[0].Primary().Name())
	}
}

func TestStealThresholdRequiresBacklog(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	e, exec := stealEngine(t, engine.StealConfig{Mode: engine.StealThreshold, Threshold: 2}, nil)
	addSkew(e)
	e.Schedule()
	// One entry behind the head ≤ threshold 2: no steal.
	if ids := placedIDs(exec); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("placements = %v, want [1] (backlog below threshold)", ids)
	}
	// Two more shorts push the backlog over the threshold; the deepest
	// entry is stolen first and the slow node holds only one.
	e.Add(&engine.Task{ID: 4, Class: "short", EstDuration: time.Second}, nil, 0)
	e.Add(&engine.Task{ID: 5, Class: "short", EstDuration: time.Second}, nil, 0)
	exec.queue = nil
	e.Schedule()
	if ids := placedIDs(exec); len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("placements = %v, want [5] (deepest entry stolen)", ids)
	}
	if st := e.Stats(); st.Steals != 1 {
		t.Fatalf("steals = %d, want 1", st.Steals)
	}
}

func TestStolenTaskRecoversFromCrash(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	// The fault-recovery invariant: a stolen task killed by a node crash
	// re-executes exactly like a normally placed one.
	e, exec := stealEngine(t, engine.StealConfig{Mode: engine.StealOnIdle}, nil)
	addSkew(e)
	e.Schedule()
	if ids := placedIDs(exec); len(ids) != 2 || ids[1] != 3 {
		t.Fatalf("placements = %v, want [1 3]", ids)
	}
	stolen := exec.queue[1]
	longPl := exec.queue[0]
	exec.queue = nil

	rep, err := e.FailNode("slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Killed) != 1 || rep.Killed[0].ID != 3 {
		t.Fatalf("killed = %+v, want task 3", rep.Killed)
	}
	// The stolen placement's completion is stale after the crash.
	if _, ok := e.Complete(stolen.Task.ID, stolen.Epoch, false); ok {
		t.Fatal("stale completion of the stolen placement accepted")
	}
	// Only the fast node remains: longs and the recovered short serialise
	// on it in bucket order.
	for _, want := range []int64{2, 3} {
		if _, ok := e.Complete(longPl.Task.ID, longPl.Epoch, false); !ok {
			t.Fatalf("completion of %d rejected", longPl.Task.ID)
		}
		e.Schedule()
		if ids := placedIDs(exec); len(ids) != 1 || ids[0] != want {
			t.Fatalf("placements = %v, want [%d]", ids, want)
		}
		longPl = exec.queue[0]
		exec.queue = nil
	}
	if _, ok := e.Complete(longPl.Task.ID, longPl.Epoch, false); !ok {
		t.Fatal("final completion rejected")
	}
	st := e.Stats()
	if st.Steals != 1 || st.Completed != 3 || st.Reexecuted != 0 {
		t.Fatalf("stats = %+v, want 1 steal, 3 completions, 0 re-executions", st)
	}
}

func TestStealSkipsCapacityBlockedBuckets(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	// A bucket parked for lack of capacity (not a policy decline) has no
	// stealable entries: its signature fits nowhere.
	exec := &collectExec{}
	p := tierPool()
	e := engine.New(engine.Config{
		Pool:     p,
		Policy:   sched.FIFO{},
		Clock:    &stubClock{},
		Executor: exec,
		Steal:    engine.StealConfig{Mode: engine.StealOnIdle},
	})
	gpu := resources.Constraints{GPUs: 1}
	e.Add(&engine.Task{ID: 1, Constraints: gpu}, nil, 0)
	e.Add(&engine.Task{ID: 2, Constraints: gpu}, nil, 0)
	e.Schedule()
	if len(exec.queue) != 0 {
		t.Fatalf("placed %v, want none (no GPU node exists)", placedIDs(exec))
	}
	if st := e.Stats(); st.Steals != 0 {
		t.Fatalf("steals = %d, want 0", st.Steals)
	}
}
