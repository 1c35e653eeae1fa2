package engine_test

// Work-stealing parity: the same skewed DAG run through the live runtime
// and the virtual-time simulator with stealing enabled must make the
// identical steal decisions — same stolen tasks, same victim nodes, same
// start order — because the steal phase is engine code shared by both
// backends and its scan order (signature order, tail first, pool
// insertion order) is deterministic. A second scenario crashes the node
// a stolen task runs on and asserts the stolen task re-executes
// correctly on both backends: stealing must not weaken the
// lineage/fault-recovery invariants.

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// stealParityPool: n0 is the fast tier (HPC, SpeedFactor 1), n1 the slow
// one (fog, SpeedFactor 0.25); one core each, so WaitFast makes long
// tasks queue for n0 while n1 idles — the steal trigger.
func stealParityPool() *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	_ = pool.Add(resources.NewNode("n1", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 0.25, Class: resources.Fog,
	}))
	return pool
}

func stealParityPolicy() sched.Policy {
	return sched.WaitFast{Inner: sched.FIFO{}, MaxSlowdown: 2, MinWait: 10 * time.Second}
}

// stealConfig is both backends' options for a steal case, built once per
// backend: a fresh pool, network, registry and tracer each call.
func stealConfig() host.Config {
	return host.Config{
		Pool:      stealParityPool(),
		Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:    stealParityPolicy(),
		Tracer:    trace.New(0),
		Locations: transfer.NewRegistry(),
		Steal:     engine.StealConfig{Mode: engine.StealOnIdle},
	}
}

type stealOutcome struct {
	order  []int64
	stolen []int64 // task IDs of task_stolen events, in firing order
	stats  engine.Stats
}

func stolenOrder(tr *trace.Tracer) []int64 {
	var out []int64
	for _, ev := range tr.Events() {
		if ev.Kind == trace.TaskStolen {
			out = append(out, ev.Task)
		}
	}
	return out
}

// The shared DAG: a gate holds the fast node while two long tasks and a
// short one queue in the shared unconstrained bucket. The long head
// declines the slow node and parks the bucket; the short tail is stolen
// onto it. IDs: gate 1, L1 2, L2 3, S1 4.
func runStealDAGSim(t *testing.T, cfg host.Config) stealOutcome {
	t.Helper()
	specs := []infra.TaskSpec{
		{ID: 1, Class: "gate", Duration: time.Second},
		{ID: 2, Class: "long", Duration: 100 * time.Second},
		{ID: 3, Class: "long", Duration: 100 * time.Second},
		{ID: 4, Class: "short", Duration: time.Second},
	}
	sim, err := infra.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return stealOutcome{order: startOrder(cfg.Tracer), stolen: stolenOrder(cfg.Tracer), stats: sim.EngineStats()}
}

func runStealDAGLive(t *testing.T, cfg host.Config) stealOutcome {
	t.Helper()
	rt := core.New(cfg)
	defer rt.Shutdown()

	release := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "gate", Fn: func(_ context.Context, _ []any) ([]any, error) {
		<-release
		return nil, nil
	}, EstDuration: time.Second})
	noop := func(_ context.Context, _ []any) ([]any, error) { return nil, nil }
	mustRegister(t, rt, core.TaskDef{Name: "long", Fn: noop, EstDuration: 100 * time.Second})
	mustRegister(t, rt, core.TaskDef{Name: "short", Fn: noop, EstDuration: time.Second})

	// The gate occupies the fast node, so the live backend reaches the
	// same fully-queued state the simulator starts from.
	if _, err := rt.Submit("gate"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"long", "long", "short"} {
		if _, err := rt.Submit(name); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	rt.Barrier()
	return stealOutcome{order: startOrder(cfg.Tracer), stolen: stolenOrder(cfg.Tracer), stats: rt.EngineStats()}
}

func TestStealParity(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	sim := runStealDAGSim(t, stealConfig())
	live := runStealDAGLive(t, stealConfig())

	wantOrder := []int64{1, 4, 2, 3} // gate, stolen short, then the longs in bucket order
	for name, got := range map[string][]int64{"sim": sim.order, "live": live.order} {
		if len(got) != len(wantOrder) {
			t.Fatalf("%s start order = %v, want %v", name, got, wantOrder)
		}
		for i := range wantOrder {
			if got[i] != wantOrder[i] {
				t.Fatalf("%s start order = %v, want %v", name, got, wantOrder)
			}
		}
	}
	if len(sim.stolen) != 1 || len(live.stolen) != 1 || sim.stolen[0] != 4 || live.stolen[0] != 4 {
		t.Fatalf("stolen tasks diverge: sim %v vs live %v, want [4] each", sim.stolen, live.stolen)
	}
	if sim.stats.Steals != 1 || live.stats.Steals != 1 {
		t.Fatalf("steal counts: sim %d, live %d, want 1 each", sim.stats.Steals, live.stats.Steals)
	}
	if sim.stats.Launched != live.stats.Launched {
		t.Fatalf("launch counts diverge: sim %d vs live %d", sim.stats.Launched, live.stats.Launched)
	}
}

// Steal + crash: the stolen short task is killed by a crash of the slow
// node it was stolen onto, and must re-execute (with the correct value,
// on the live backend) once the fast tier frees up. IDs: gate 1, L1 2,
// S1 3; start order gate, stolen S1, L1, recovered S1.
func runStealCrashSim(t *testing.T, cfg host.Config) stealOutcome {
	t.Helper()
	specs := []infra.TaskSpec{
		{ID: 1, Class: "gate", Duration: 3 * time.Second},
		{ID: 2, Class: "long", Duration: 20 * time.Second},
		{ID: 3, Class: "short", Duration: time.Second},
	}
	cfg.Faults = faults.Scenario{{At: time.Second, Kind: faults.Crash, Node: "n1"}} // the live side crashes by hand
	sim, err := infra.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksFailed != 1 {
		t.Fatalf("sim killed %d tasks, want 1 (the stolen short)", res.TasksFailed)
	}
	return stealOutcome{order: startOrder(cfg.Tracer), stolen: stolenOrder(cfg.Tracer), stats: sim.EngineStats()}
}

func runStealCrashLive(t *testing.T, cfg host.Config) stealOutcome {
	t.Helper()
	rt := core.New(cfg)
	defer rt.Shutdown()

	gateRelease := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "gate", Fn: func(_ context.Context, _ []any) ([]any, error) {
		<-gateRelease
		return nil, nil
	}, EstDuration: 3 * time.Second})
	mustRegister(t, rt, core.TaskDef{Name: "long", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return nil, nil
	}, EstDuration: 20 * time.Second})
	sStarted := make(chan struct{}, 2)
	sRelease := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "short", Fn: func(_ context.Context, _ []any) ([]any, error) {
		sStarted <- struct{}{}
		<-sRelease
		return []any{7}, nil
	}, EstDuration: time.Second})

	if _, err := rt.Submit("gate"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("long"); err != nil {
		t.Fatal(err)
	}
	d := rt.NewData()
	fs, err := rt.Submit("short", core.Write(d))
	if err != nil {
		t.Fatal(err)
	}
	<-sStarted // the short was stolen onto n1 and is running there

	rep, err := rt.FailNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Killed) != 1 || rep.Killed[0].ID != 3 {
		t.Fatalf("killed = %+v, want the stolen short (task 3)", rep.Killed)
	}
	close(sRelease)    // let the orphaned and the recovery execution proceed
	close(gateRelease) // free the fast node: long, then the recovered short
	if vals, err := fs.Wait(); err != nil || len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("recovered short returned (%v, %v), want ([7], nil)", vals, err)
	}
	rt.Barrier()
	return stealOutcome{order: startOrder(cfg.Tracer), stolen: stolenOrder(cfg.Tracer), stats: rt.EngineStats()}
}

func TestStealCrashRecoveryParity(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	sim := runStealCrashSim(t, stealConfig())
	live := runStealCrashLive(t, stealConfig())

	wantOrder := []int64{1, 3, 2, 3}
	for name, got := range map[string][]int64{"sim": sim.order, "live": live.order} {
		if len(got) != len(wantOrder) {
			t.Fatalf("%s start order = %v, want %v", name, got, wantOrder)
		}
		for i := range wantOrder {
			if got[i] != wantOrder[i] {
				t.Fatalf("%s start order = %v, want %v", name, got, wantOrder)
			}
		}
	}
	if sim.stats.Steals != 1 || live.stats.Steals != 1 {
		t.Fatalf("steal counts: sim %d, live %d, want 1 each", sim.stats.Steals, live.stats.Steals)
	}
	// The stolen task never completed before the crash, so its recovery
	// run is a first completion, not a re-execution.
	if sim.stats.Reexecuted != 0 || live.stats.Reexecuted != 0 {
		t.Fatalf("re-execution counts: sim %d, live %d, want 0 each",
			sim.stats.Reexecuted, live.stats.Reexecuted)
	}
	if sim.stats.Launched != live.stats.Launched || sim.stats.Launched != 4 {
		t.Fatalf("launch counts: sim %d, live %d, want 4 each", sim.stats.Launched, live.stats.Launched)
	}
}
