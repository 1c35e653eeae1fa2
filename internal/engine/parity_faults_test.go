package engine_test

// Failure parity: the same fault script — slow-node, network partition,
// node crash — executed against the live runtime and the virtual-time
// simulator must produce identical task re-execution counts, identical
// transfer books and the same start order, because both backends delegate
// kill/deregister/lineage-resubmit to the shared engine fault surface.
// The live side proves the E7 recovery drill end-to-end: the killed
// task's future stays open until the recovery re-execution delivers the
// (correct) value.

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// faultParityPool builds the shared 3-node pool: two HPC workers and one
// cloud node, one core each.
func faultParityPool() *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	_ = pool.Add(resources.NewNode("n1", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	_ = pool.Add(resources.NewNode("n2", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	}))
	return pool
}

// faultScriptConfig is both backends' options for the fault script: a
// fresh pool, network, registry and tracer each call.
func faultScriptConfig(steal engine.StealConfig, ck *checkpoint.Config) host.Config {
	return host.Config{
		Pool:       faultParityPool(),
		Net:        simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:     sched.FIFO{},
		Tracer:     trace.New(0),
		Locations:  transfer.NewRegistry(),
		Steal:      steal,
		Checkpoint: ck,
	}
}

type faultParityOutcome struct {
	order  []int64 // TaskStarted sequence (includes recovery re-starts)
	stats  engine.Stats
	failed int // killed-by-crash count
}

// The script, shared by both backends:
//
//	a (1) writes d1; b (2) reads d1, writes d2.
//	While b runs on n0: slow n2 ×3, cut n1~n2, crash n0.
//	  → b killed; d1's only replica lost; a re-executes; b re-runs.
//	c (3, cloud-pinned) reads d2 behind the cut: staging blocked, no move.
//	After healing, e (4, cloud-pinned) reads d2: one real transfer.
func runFaultScriptSim(t *testing.T, cfg host.Config) faultParityOutcome {
	t.Helper()
	specs := []infra.TaskSpec{
		{ID: 1, Class: "a", Duration: time.Second,
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 2, Class: "b", Duration: 10 * time.Second,
			Accesses:    []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{2: 2e6}},
		{ID: 3, Class: "c", Duration: time.Second, Release: 15 * time.Second,
			Constraints: resources.Constraints{Class: resources.Cloud},
			Accesses:    []deps.Access{{Data: 2, Dir: deps.In}, {Data: 3, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{3: 1e3}},
		{ID: 4, Class: "e", Duration: time.Second, Release: 20 * time.Second,
			Constraints: resources.Constraints{Class: resources.Cloud},
			Accesses:    []deps.Access{{Data: 2, Dir: deps.In}, {Data: 4, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{4: 1e3}},
	}
	// The live side injects the same script by hand.
	cfg.Faults = faults.Scenario{
		{At: 2 * time.Second, Kind: faults.Slow, Node: "n2", Factor: 3},
		{At: 2 * time.Second, Kind: faults.Cut, Node: "n1", Peer: "n2"},
		{At: 2 * time.Second, Kind: faults.Crash, Node: "n0"},
		{At: 18 * time.Second, Kind: faults.HealLink, Node: "n1", Peer: "n2"},
	}
	sim, err := infra.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return faultParityOutcome{
		order:  startOrder(cfg.Tracer),
		stats:  sim.EngineStats(),
		failed: res.TasksFailed,
	}
}

func runFaultScriptLive(t *testing.T, cfg host.Config) faultParityOutcome {
	t.Helper()
	rt := core.New(cfg)
	defer rt.Shutdown()

	bStarted := make(chan struct{}, 2) // first execution + recovery re-run
	bRelease := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "a", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return []any{10}, nil
	}})
	mustRegister(t, rt, core.TaskDef{Name: "b", Fn: func(_ context.Context, args []any) ([]any, error) {
		bStarted <- struct{}{}
		<-bRelease
		v, _ := args[0].(int)
		return []any{v * 2}, nil
	}})
	addOne := func(_ context.Context, args []any) ([]any, error) {
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}
	cloud := resources.Constraints{Class: resources.Cloud}
	mustRegister(t, rt, core.TaskDef{Name: "c", Fn: addOne, Constraints: cloud})
	mustRegister(t, rt, core.TaskDef{Name: "e", Fn: addOne, Constraints: cloud})

	d1, d2, d3, d4 := rt.NewData(), rt.NewData(), rt.NewData(), rt.NewData()
	fa, err := rt.Submit("a", core.WriteSized(d1, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(); err != nil {
		t.Fatal(err)
	}
	fb, err := rt.Submit("b", core.Read(d1), core.WriteSized(d2, 2e6))
	if err != nil {
		t.Fatal(err)
	}
	<-bStarted // b is running on n0

	// Inject the script, in the simulator's firing order.
	if err := rt.SlowNode("n2", 3); err != nil {
		t.Fatal(err)
	}
	if err := rt.Partition("n1", "n2"); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.FailNode("n0")
	if err != nil {
		t.Fatal(err)
	}
	failed := len(rep.Killed)
	close(bRelease) // let the orphaned and the recovery execution proceed
	if _, err := fb.Wait(); err != nil {
		t.Fatalf("b after recovery: %v", err)
	}

	fc, err := rt.Submit("c", core.Read(d2), core.WriteSized(d3, 1e3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Heal("n1", "n2"); err != nil {
		t.Fatal(err)
	}
	fe, err := rt.Submit("e", core.Read(d2), core.WriteSized(d4, 1e3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()

	// Recovery must deliver the correct workload result: a=10, b=2a=20,
	// c=b+1=21, e=b+1=21.
	for _, check := range []struct {
		h    *core.Handle
		want int
	}{{d2, 20}, {d3, 21}, {d4, 21}} {
		v, err := rt.WaitOn(check.h)
		if err != nil {
			t.Fatal(err)
		}
		if v != check.want {
			t.Fatalf("final value = %v, want %d", v, check.want)
		}
	}
	return faultParityOutcome{
		order:  startOrder(cfg.Tracer),
		stats:  rt.EngineStats(),
		failed: failed,
	}
}

// startOrder extracts the TaskStarted sequence.
func startOrder(tr *trace.Tracer) []int64 {
	var order []int64
	for _, ev := range tr.Events() {
		if ev.Kind == trace.TaskStarted {
			order = append(order, ev.Task)
		}
	}
	return order
}

func TestFaultScriptParity(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	// The script must produce the same choreography with work stealing
	// off and on: the FIFO policy never declines a placement, so no steal
	// fires, and the knob must not disturb the fault/recovery path.
	for _, mode := range []struct {
		name  string
		steal engine.StealConfig
	}{
		{"steal-off", engine.StealConfig{}},
		{"steal-on-idle", engine.StealConfig{Mode: engine.StealOnIdle}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			sim := runFaultScriptSim(t, faultScriptConfig(mode.steal, nil))
			live := runFaultScriptLive(t, faultScriptConfig(mode.steal, nil))

			if len(sim.order) != len(live.order) {
				t.Fatalf("start sequences differ in length: sim %v vs live %v", sim.order, live.order)
			}
			for i := range sim.order {
				if sim.order[i] != live.order[i] {
					t.Fatalf("start order diverges at %d: sim %v vs live %v", i, sim.order, live.order)
				}
			}
			if sim.failed != live.failed || sim.failed != 1 {
				t.Fatalf("killed tasks: sim %d, live %d, want 1 each", sim.failed, live.failed)
			}
			if sim.stats.Reexecuted != live.stats.Reexecuted || sim.stats.Reexecuted != 1 {
				t.Fatalf("re-execution counts: sim %d, live %d, want 1 each",
					sim.stats.Reexecuted, live.stats.Reexecuted)
			}
			if sim.stats.Launched != live.stats.Launched {
				t.Fatalf("launch counts diverge: sim %d vs live %d", sim.stats.Launched, live.stats.Launched)
			}
			if sim.stats.Steals != live.stats.Steals || sim.stats.Steals != 0 {
				t.Fatalf("steal counts: sim %d, live %d, want 0 each (FIFO never declines)",
					sim.stats.Steals, live.stats.Steals)
			}
			if sim.stats.Transfers != live.stats.Transfers || sim.stats.Transfers != 1 {
				t.Fatalf("transfer counts: sim %d, live %d, want 1 each (partition must block c's fetch)",
					sim.stats.Transfers, live.stats.Transfers)
			}
			if sim.stats.BytesMoved != live.stats.BytesMoved || sim.stats.BytesMoved != 2e6 {
				t.Fatalf("bytes moved: sim %d, live %d, want 2e6 each",
					sim.stats.BytesMoved, live.stats.BytesMoved)
			}
		})
	}
}

// ignoredFaults extracts the fault_ignored audit trail: target and reason
// per no-op fault, in firing order.
func ignoredFaults(tr *trace.Tracer) []string {
	var out []string
	for _, ev := range tr.Events() {
		if ev.Kind == trace.FaultIgnored {
			out = append(out, ev.Node+": "+ev.Info)
		}
	}
	return out
}

// TestFaultUnknownNodeParity: both backends must reject (not silently
// absorb) faults aimed at nodes that are unknown or already dead, and
// leave the same fault_ignored events on the trace — the injector lives
// in the shared host, so the audit trail cannot diverge.
func TestFaultUnknownNodeParity(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	// Simulator: a crash on a node that never existed, then a double
	// crash of a real one; the run completes around them.
	simCfg := faultScriptConfig(engine.StealConfig{}, nil)
	simCfg.Faults = faults.Scenario{
		{At: time.Second, Kind: faults.Crash, Node: "ghost"},
		{At: time.Second, Kind: faults.Crash, Node: "n2"},
		{At: time.Second, Kind: faults.Crash, Node: "n2"},
	}
	sim, err := infra.New(simCfg, []infra.TaskSpec{{ID: 1, Class: "t", Duration: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := simCfg.Tracer.Count(trace.NodeFailed); got != 1 {
		t.Fatalf("sim recorded %d node failures, want 1 (n2 once; never the ghost)", got)
	}

	// Live runtime: same script, same verdicts, same trail.
	liveCfg := faultScriptConfig(engine.StealConfig{}, nil)
	rt := core.New(liveCfg)
	defer rt.Shutdown()
	if _, err := rt.FailNode("ghost"); err == nil {
		t.Fatal("live FailNode(ghost) succeeded, want error")
	}
	if _, err := rt.FailNode("n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.FailNode("n2"); err == nil {
		t.Fatal("second FailNode(n2) succeeded, want error")
	}

	simIgn, liveIgn := ignoredFaults(simCfg.Tracer), ignoredFaults(liveCfg.Tracer)
	if len(simIgn) != 2 || len(liveIgn) != 2 {
		t.Fatalf("ignored faults: sim %v, live %v, want 2 each (ghost, second n2)", simIgn, liveIgn)
	}
	for i := range simIgn {
		if simIgn[i] != liveIgn[i] {
			t.Fatalf("ignored fault %d diverges: sim %q vs live %q", i, simIgn[i], liveIgn[i])
		}
	}
}

// broadcastPool is n0..n3 (HPC) and n4 (cloud), one core each.
func broadcastPool() *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < 5; i++ {
		class := resources.HPC
		if i == 4 {
			class = resources.Cloud
		}
		_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i), resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: class,
		}))
	}
	return pool
}

// TestBroadcastSurvivesProducerCrashParity: a (cloud-pinned) writes d1 on
// n4; four long readers, placed one engine step apart, take n0..n3 and
// each fetches d1, so its holder list grows a name at a time — the third
// fetch lands ahead of n4 in a list with room to spare, where copy-on-write
// is what keeps the published list intact. Then n4 crashes: d1 keeps four
// replicas, nothing is lost or re-executed, and both backends book the
// same four transfers.
func TestBroadcastSurvivesProducerCrashParity(t *testing.T) {
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	hpc, cloud := resources.Constraints{Class: resources.HPC}, resources.Constraints{Class: resources.Cloud}
	specs := []infra.TaskSpec{{ID: 1, Class: "a", Duration: time.Second, Constraints: cloud,
		Accesses: []deps.Access{{Data: 1, Dir: deps.Out}}, OutputBytes: map[deps.DataID]int64{1: 1e6}}}
	for i := int64(0); i < 4; i++ {
		specs = append(specs, infra.TaskSpec{ID: 2 + i, Class: "r", Duration: 100 * time.Second,
			Release: time.Duration(2+i) * time.Second, Constraints: hpc,
			Accesses: []deps.Access{{Data: 1, Dir: deps.In}, {Data: deps.DataID(2 + i), Dir: deps.Out}}})
	}
	config := func() host.Config {
		return host.Config{Pool: broadcastPool(), Net: simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy: sched.FIFO{}, Locations: transfer.NewRegistry()}
	}
	simCfg := config()
	simCfg.Faults = faults.Scenario{{At: 10 * time.Second, Kind: faults.Crash, Node: "n4"}}
	sim, err := infra.New(simCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	liveCfg := config()
	rt := core.New(liveCfg)
	defer rt.Shutdown()
	started, release := make(chan struct{}), make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "a", Constraints: cloud, Fn: func(context.Context, []any) ([]any, error) {
		return []any{1}, nil
	}})
	mustRegister(t, rt, core.TaskDef{Name: "r", Constraints: hpc, Fn: func(_ context.Context, args []any) ([]any, error) {
		started <- struct{}{}
		<-release
		return args, nil
	}})
	d1 := rt.NewData()
	fa, err := rt.Submit("a", core.WriteSized(d1, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rt.Submit("r", core.Read(d1), core.Write(rt.NewData())); err != nil {
			t.Fatal(err)
		}
		<-started
	}
	rep, err := rt.FailNode("n4")
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	rt.Barrier()
	live := rt.EngineStats()

	if len(rep.LostKeys) != 0 || len(rep.Killed) != 0 {
		t.Fatalf("live crash of n4 lost %v and killed %d tasks, want nothing", rep.LostKeys, len(rep.Killed))
	}
	if got := liveCfg.Locations.Where(deps.Version{Data: rt.CurrentVersion(d1).Data, Ver: 1}); !slices.Equal(got, []string{"n0", "n1", "n2", "n3"}) {
		t.Fatalf("live d1 held by %v, want n0..n3", got)
	}
	simStats := sim.EngineStats()
	if simStats.Transfers != 4 || live.Transfers != 4 || simStats.BytesMoved != live.BytesMoved {
		t.Fatalf("transfers: sim %d (%d B), live %d (%d B), want 4 each and the same bytes",
			simStats.Transfers, simStats.BytesMoved, live.Transfers, live.BytesMoved)
	}
	if simStats.Reexecuted != 0 || live.Reexecuted != 0 {
		t.Fatalf("re-executions: sim %d, live %d, want 0", simStats.Reexecuted, live.Reexecuted)
	}
}
