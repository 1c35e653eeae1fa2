package engine_test

// Availability parity: the same partition script under the same
// availability policy must produce identical park/wake/recompute
// choreography on the live runtime and the virtual-time simulator,
// because both delegate the placement-time classification and the wait
// set to the shared engine. Three drills:
//
//  1. defer, heal-mid-queue: a task parked on a partitioned input runs —
//     without any recompute — once the partition heals before drain;
//  2. recompute, isolating cut: a cut that maroons every replica of an
//     input produces exactly one lineage re-run of the producer, placed
//     on the reachable side, and the run finishes without the heal;
//  3. placement-aware restore on the live backend: a snapshot restored
//     onto a pool missing the producing node re-stages the decoded value
//     onto a surviving node, so the resumed run neither parks nor
//     recomputes.

import (
	"context"
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

// availPool builds the shared rig: one HPC producer node ahead of two
// cloud consumer nodes, one core each.
func availPool() *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	_ = pool.Add(resources.NewNode("n1", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	}))
	_ = pool.Add(resources.NewNode("n2", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	}))
	return pool
}

// availNet zones the rig so one cut severs the producer tier from the
// consumer tier.
func availNet() *simnet.Network {
	net := simnet.New(simnet.Link{BandwidthMBps: 1000})
	net.SetZone("n0", "hpc")
	net.SetZone("n1", "cloud")
	net.SetZone("n2", "cloud")
	return net
}

// availConfig is both backends' options for an availability drill: a
// fresh pool, network and registry each call.
func availConfig(policy engine.Availability) host.Config {
	return host.Config{
		Pool:         availPool(),
		Net:          availNet(),
		Policy:       sched.FIFO{},
		Locations:    transfer.NewRegistry(),
		Availability: policy,
	}
}

type availOutcome struct {
	stats  engine.Stats
	parked int // observed while the cut was active
}

// The drill, shared by both backends: a (HPC side) writes d1; the
// hpc~cloud link is cut; b (cloud-pinned) wants d1 — unreachable. Under
// defer the heal releases b; under recompute a re-runs on the cloud side
// and b never waits for the heal.
func runAvailSim(t *testing.T, cfg host.Config, heal bool) availOutcome {
	t.Helper()
	script := faults.Scenario{{At: 2 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "cloud"}}
	if heal {
		script = append(script, faults.Event{At: 6 * time.Second, Kind: faults.HealLink, Node: "hpc", Peer: "cloud"})
	}
	specs := []infra.TaskSpec{
		{ID: 1, Class: "a", Duration: time.Second,
			Constraints: resources.Constraints{Class: resources.HPC},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 2, Class: "b", Duration: 2 * time.Second, Release: 3 * time.Second,
			Constraints: resources.Constraints{Class: resources.Cloud},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{2: 1e3}},
	}
	cfg.Faults = script // the live side cuts and heals by hand
	sim, err := infra.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return availOutcome{stats: sim.EngineStats()}
}

func runAvailLive(t *testing.T, cfg host.Config, heal bool) availOutcome {
	t.Helper()
	policy := cfg.Availability
	rt := core.New(cfg)
	defer rt.Shutdown()

	prodConstraints := resources.Constraints{Class: resources.HPC}
	if policy == engine.AvailRecompute {
		// The producer must be re-runnable on the consumers' side; the
		// simulator drill keeps it HPC-pinned only under defer, where it
		// never re-runs. Parity on the defer path is asserted with the
		// pin; the recompute path needs the unpinned producer on both
		// backends (see runAvailSimRecompute).
		prodConstraints = resources.Constraints{}
	}
	mustRegister(t, rt, core.TaskDef{Name: "a", Constraints: prodConstraints,
		Fn: func(_ context.Context, _ []any) ([]any, error) { return []any{10}, nil }})
	mustRegister(t, rt, core.TaskDef{Name: "b", Constraints: resources.Constraints{Class: resources.Cloud},
		Fn: func(_ context.Context, args []any) ([]any, error) {
			v, _ := args[0].(int)
			return []any{v * 2}, nil
		}})

	d1, d2 := rt.NewData(), rt.NewData()
	fa, err := rt.Submit("a", core.WriteSized(d1, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Partition("hpc", "cloud"); err != nil {
		t.Fatal(err)
	}
	fb, err := rt.Submit("b", core.Read(d1), core.WriteSized(d2, 1e3))
	if err != nil {
		t.Fatal(err)
	}
	out := availOutcome{}
	if policy == engine.AvailDefer {
		// Submit schedules synchronously, so the park is observable now.
		out.parked = rt.EngineStats().Deferred
	}
	if heal {
		if err := rt.Heal("hpc", "cloud"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fb.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()
	if v, err := rt.WaitOn(d2); err != nil || v != 20 {
		t.Fatalf("b's value = %v (%v), want 20", v, err)
	}
	out.stats = rt.EngineStats()
	return out
}

// TestAvailabilityDeferHealParity: a task parked by defer whose partition
// heals before drain runs without any recompute, identically on both
// backends.
func TestAvailabilityDeferHealParity(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	sim := runAvailSim(t, availConfig(engine.AvailDefer), true)
	live := runAvailLive(t, availConfig(engine.AvailDefer), true)

	if live.parked != 1 {
		t.Fatalf("live: %d tasks parked while cut, want 1", live.parked)
	}
	for name, st := range map[string]engine.Stats{"sim": sim.stats, "live": live.stats} {
		if st.Deferred != 1 || st.Woken != 1 {
			t.Fatalf("%s: deferred/woken = %d/%d, want 1/1", name, st.Deferred, st.Woken)
		}
		if st.RanMissing != 0 {
			t.Fatalf("%s: %d tasks ran with missing inputs, want 0", name, st.RanMissing)
		}
		if st.Reexecuted != 0 {
			t.Fatalf("%s: %d recompute re-runs, want 0 (heal-mid-queue must not recompute)", name, st.Reexecuted)
		}
		if st.Launched != 2 {
			t.Fatalf("%s: %d launches, want 2 (one per task, no re-runs)", name, st.Launched)
		}
	}
	if sim.stats.Transfers != live.stats.Transfers || sim.stats.BytesMoved != live.stats.BytesMoved {
		t.Fatalf("transfer books diverge: sim %d/%dB vs live %d/%dB",
			sim.stats.Transfers, sim.stats.BytesMoved, live.stats.Transfers, live.stats.BytesMoved)
	}
	if sim.stats.Transfers != 1 || sim.stats.BytesMoved != 1e6 {
		t.Fatalf("want exactly one post-heal fetch of 1e6 bytes, got %d moves / %dB",
			sim.stats.Transfers, sim.stats.BytesMoved)
	}
}

// runAvailSimRecompute mirrors the recompute drill: the producer is
// unpinned (it must be re-runnable on the cloud side) and no heal ever
// comes — recovery must not need one.
func runAvailSimRecompute(t *testing.T, cfg host.Config) availOutcome {
	t.Helper()
	specs := []infra.TaskSpec{
		{ID: 1, Class: "a", Duration: time.Second,
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 2, Class: "b", Duration: 2 * time.Second, Release: 3 * time.Second,
			Constraints: resources.Constraints{Class: resources.Cloud},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{2: 1e3}},
	}
	cfg.Faults = faults.Scenario{{At: 2 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "cloud"}}
	sim, err := infra.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return availOutcome{stats: sim.EngineStats()}
}

// TestAvailabilityRecomputeParity: a cut that isolates every replica of
// an input under recompute produces exactly one lineage re-run — on the
// reachable side — on both backends, with no heal required.
func TestAvailabilityRecomputeParity(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	sim := runAvailSimRecompute(t, availConfig(engine.AvailRecompute))
	live := runAvailLive(t, availConfig(engine.AvailRecompute), false)

	for name, st := range map[string]engine.Stats{"sim": sim.stats, "live": live.stats} {
		if st.Reexecuted != 1 {
			t.Fatalf("%s: %d lineage re-runs, want exactly 1", name, st.Reexecuted)
		}
		if st.RanMissing != 0 {
			t.Fatalf("%s: %d tasks ran with missing inputs, want 0", name, st.RanMissing)
		}
		if st.Deferred != 1 || st.Woken != 1 {
			t.Fatalf("%s: deferred/woken = %d/%d, want 1/1", name, st.Deferred, st.Woken)
		}
		if st.AvailRecomputes != 1 {
			t.Fatalf("%s: %d availability recomputes, want 1", name, st.AvailRecomputes)
		}
		if st.Launched != 3 {
			t.Fatalf("%s: %d launches, want 3 (a, a's re-run, b)", name, st.Launched)
		}
	}
	if sim.stats.Transfers != live.stats.Transfers || sim.stats.BytesMoved != live.stats.BytesMoved {
		t.Fatalf("transfer books diverge: sim %d/%dB vs live %d/%dB",
			sim.stats.Transfers, sim.stats.BytesMoved, live.stats.Transfers, live.stats.BytesMoved)
	}
}

// TestAvailabilityFeedableRepick: a policy whose first choice sits
// behind the cut must not park the task when another fitting node can be
// fed — the engine re-offers the choice over the feedable subset. No
// heal is ever scripted; without the re-pick the run would end ErrStuck.
func TestAvailabilityFeedableRepick(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	// n1 (cloud) is first in pool order, so FIFO aims the unpinned
	// consumer at it; d1's only replica is on n0, cut away from n1.
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n1", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	}))
	_ = pool.Add(resources.NewNode("n0", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	sim, err := infra.New(infra.Config{
		Pool:         pool,
		Net:          availNet(),
		Policy:       sched.FIFO{},
		Availability: engine.AvailDefer,
		Faults:       faults.Scenario{{At: 2 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "cloud"}},
	}, []infra.TaskSpec{
		{ID: 1, Class: "a", Duration: time.Second,
			Constraints: resources.Constraints{Class: resources.HPC},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 2, Class: "b", Duration: time.Second, Release: 3 * time.Second,
			Accesses: []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("run with a feedable alternative must complete, got %v", err)
	}
	st := sim.EngineStats()
	if st.Deferred != 0 {
		t.Fatalf("%d tasks parked, want 0 (b re-aims at n0 where d1 lives)", st.Deferred)
	}
	if st.Launched != 2 || st.Reexecuted != 0 || st.RanMissing != 0 {
		t.Fatalf("launched/reexecuted/ran-missing = %d/%d/%d, want 2/0/0",
			st.Launched, st.Reexecuted, st.RanMissing)
	}
}

// TestAvailabilityBusyFeedableNodeQueues: a task whose data is reachable
// only from a node that is merely busy must stay queued (and run when
// the capacity frees), not park — capacity release is not an
// availability wake source, so parking here would hang forever.
func TestAvailabilityBusyFeedableNodeQueues(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	pool := resources.NewPool()
	for _, n := range []string{"n0", "n1"} {
		_ = pool.Add(resources.NewNode(n, resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
		}))
	}
	net := simnet.New(simnet.Link{BandwidthMBps: 1000})
	sim, err := infra.New(infra.Config{
		Pool:         pool,
		Net:          net,
		Policy:       sched.FIFO{},
		Availability: engine.AvailDefer,
		StageIn:      map[deps.DataID]int64{1: 1e6}, // on n0, the first pool node
		// The cut leaves n1 unable to fetch d1; n0 holds it locally but
		// is busy with the blocker until t=100s. No heal ever comes.
		Faults: faults.Scenario{{At: time.Second, Kind: faults.Cut, Node: "n0", Peer: "n1"}},
	}, []infra.TaskSpec{
		{ID: 1, Class: "blocker", Duration: 100 * time.Second},
		{ID: 2, Class: "consumer", Duration: time.Second, Release: 5 * time.Second,
			Accesses: []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("run must complete once the feedable node frees, got %v", err)
	}
	st := sim.EngineStats()
	if st.Deferred != 0 {
		t.Fatalf("%d tasks parked, want 0 (busy capacity is a queue wait, not a partition)", st.Deferred)
	}
	if want := 101 * time.Second; res.Makespan != want {
		t.Fatalf("makespan = %v, want %v (consumer runs on n0 right after the blocker)", res.Makespan, want)
	}
}

// TestAvailabilityPartialHealNoChurn: healing a link unrelated to a
// parked task's data must not wake it — only the heal that actually
// makes a replica movable does. Guards the wakeReachable filter against
// the vacuous "a replica holder reaches itself" short-circuit.
func TestAvailabilityPartialHealNoChurn(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	specs := []infra.TaskSpec{
		{ID: 1, Class: "a", Duration: time.Second,
			Constraints: resources.Constraints{Class: resources.HPC},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 2, Class: "b", Duration: time.Second, Release: 3 * time.Second,
			Constraints: resources.Constraints{Class: resources.Cloud},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}}},
	}
	sim, err := infra.New(infra.Config{
		Pool:         availPool(),
		Net:          availNet(),
		Policy:       sched.FIFO{},
		Availability: engine.AvailDefer,
		Faults: faults.Scenario{
			{At: 2 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "cloud"},
			{At: 2 * time.Second, Kind: faults.Cut, Node: "n1", Peer: "n2"},
			// The unrelated heal: d1 still sits behind the hpc~cloud cut.
			{At: 6 * time.Second, Kind: faults.HealLink, Node: "n1", Peer: "n2"},
			{At: 10 * time.Second, Kind: faults.HealLink, Node: "hpc", Peer: "cloud"},
		},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := sim.EngineStats()
	if st.Deferred != 1 || st.Woken != 1 {
		t.Fatalf("deferred/woken = %d/%d, want 1/1 (the unrelated heal must not churn the parked tasks)",
			st.Deferred, st.Woken)
	}
	if st.RanMissing != 0 || st.Reexecuted != 0 {
		t.Fatalf("ran-missing/re-executed = %d/%d, want 0/0", st.RanMissing, st.Reexecuted)
	}
}

// TestAvailabilityRevalidateOnGrowth: capacity added mid-partition may
// be the first node that can both run a parked task and reach its data;
// RevalidateAvailability must give the parked work that chance — no
// heal is ever issued.
func TestAvailabilityRevalidateOnGrowth(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
	}))
	_ = pool.Add(resources.NewNode("n1", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	}))
	rt := core.New(core.Config{
		Pool:         pool,
		Policy:       sched.FIFO{},
		Locations:    transfer.NewRegistry(),
		Net:          simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Availability: engine.AvailDefer,
	})
	defer rt.Shutdown()
	mustRegister(t, rt, core.TaskDef{Name: "a", Constraints: resources.Constraints{Class: resources.HPC},
		Fn: func(_ context.Context, _ []any) ([]any, error) { return []any{10}, nil }})
	mustRegister(t, rt, core.TaskDef{Name: "b", Constraints: resources.Constraints{Class: resources.Cloud},
		Fn: func(_ context.Context, args []any) ([]any, error) {
			v, _ := args[0].(int)
			return []any{v * 2}, nil
		}})
	d1, d2 := rt.NewData(), rt.NewData()
	fa, err := rt.Submit("a", core.WriteSized(d1, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(); err != nil {
		t.Fatal(err)
	}
	// Cut the specific pair, so only n1 — the sole cloud node — is
	// severed from d1's replica on n0.
	if err := rt.Partition("n0", "n1"); err != nil {
		t.Fatal(err)
	}
	fb, err := rt.Submit("b", core.Read(d1), core.WriteSized(d2, 1e3))
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.EngineStats().Deferred; got != 1 {
		t.Fatalf("%d tasks parked, want 1", got)
	}
	// Grow the pool with a cloud node that CAN reach n0.
	if err := pool.Add(resources.NewNode("n2", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	})); err != nil {
		t.Fatal(err)
	}
	if woken := rt.Engine().RevalidateAvailability(); woken != 1 {
		t.Fatalf("RevalidateAvailability woke %d tasks, want 1", woken)
	}
	if v, err := fb.Wait(); err != nil || v[0] != 20 {
		t.Fatalf("b = %v (%v), want [20]", v, err)
	}
	st := rt.EngineStats()
	if st.RanMissing != 0 || st.Reexecuted != 0 {
		t.Fatalf("ran-missing/re-executed = %d/%d, want 0/0", st.RanMissing, st.Reexecuted)
	}
}

// TestAvailabilityDeferLostLineage: defer waits out partitions, but data
// lost outright (crash took the only replica) has no heal to wait for —
// its producer must be resubmitted through lineage even under defer,
// instead of dead-waiting in the park set.
func TestAvailabilityDeferLostLineage(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	pool := resources.NewPool()
	for _, n := range []string{"n0", "n1"} {
		_ = pool.Add(resources.NewNode(n, resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
		}))
	}
	sim, err := infra.New(infra.Config{
		Pool:         pool,
		Net:          simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:       sched.FIFO{},
		Availability: engine.AvailDefer,
		// a completes on n0 at 1s; the crash at 2s loses d1's only
		// replica; b only becomes ready at 5s, so the crash-time sweep of
		// the ready queue cannot have caught it.
		Faults: faults.Scenario{{At: 2 * time.Second, Kind: faults.Crash, Node: "n0"}},
	}, []infra.TaskSpec{
		{ID: 1, Class: "a", Duration: time.Second,
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 2, Class: "b", Duration: time.Second, Release: 5 * time.Second,
			Accesses: []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("defer must recover lost data through lineage, got %v", err)
	}
	st := sim.EngineStats()
	if st.Reexecuted != 1 {
		t.Fatalf("%d lineage re-runs, want 1 (a recomputes d1)", st.Reexecuted)
	}
	if st.Deferred != 1 || st.Woken != 1 {
		t.Fatalf("deferred/woken = %d/%d, want 1/1", st.Deferred, st.Woken)
	}
	if st.AvailRecomputes != 0 {
		t.Fatalf("%d availability recomputes, want 0 (lost data is lineage recovery, not the recompute policy)", st.AvailRecomputes)
	}
}

// TestLiveRestoreShrunkPoolRestages: the live half of the E15b drill. A
// two-node run checkpoints after the producer completes; the resumed
// runtime has only the consumer node, so the producer's replica location
// is gone — the restore seed must re-stage the decoded value onto the
// surviving node, and the resumed run (under defer, which would park
// forever on a dropped replica) must neither park nor recompute.
func TestLiveRestoreShrunkPoolRestages(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckRegistrySteps(t)
	engine.CheckTaskRecordSteps(t)
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	twoNodes := func() *resources.Pool {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("n0", resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC,
		}))
		_ = pool.Add(resources.NewNode("n1", resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
		}))
		return pool
	}
	aRuns := 0
	register := func(rt *core.Runtime) {
		mustRegister(t, rt, core.TaskDef{Name: "a", Constraints: resources.Constraints{Class: resources.HPC},
			Fn: func(_ context.Context, _ []any) ([]any, error) { aRuns++; return []any{10}, nil }})
		mustRegister(t, rt, core.TaskDef{Name: "b", Constraints: resources.Constraints{Class: resources.Cloud},
			Fn: func(_ context.Context, args []any) ([]any, error) {
				v, _ := args[0].(int)
				return []any{v + 1}, nil
			}})
	}

	// Incarnation 1: a runs on n0, its value is checkpointed.
	rt1 := core.New(core.Config{
		Pool: twoNodes(), Policy: sched.FIFO{},
		Locations:  transfer.NewRegistry(),
		Net:        simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)},
	})
	register(rt1)
	d1 := rt1.NewData()
	fa, err := rt1.Submit("a", core.WriteSized(d1, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(); err != nil {
		t.Fatal(err)
	}
	rt1.Barrier()
	rt1.Shutdown()
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: n0 is gone. The same workflow re-submits; b's input
	// must come from the re-staged replica, not a producer re-run.
	pool2 := resources.NewPool()
	_ = pool2.Add(resources.NewNode("n1", resources.Description{
		Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud,
	}))
	tr := trace.New(0)
	rt2 := core.New(core.Config{
		Pool: pool2, Policy: sched.FIFO{},
		Locations:    transfer.NewRegistry(),
		Net:          simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Restore:      snap,
		Tracer:       tr,
		Availability: engine.AvailDefer,
	})
	defer rt2.Shutdown()
	mustRegister(t, rt2, core.TaskDef{Name: "a", // unplaceable on this pool: must restore, not run
		Constraints: resources.Constraints{Class: resources.Cloud},
		Fn:          func(_ context.Context, _ []any) ([]any, error) { aRuns++; return []any{10}, nil }})
	mustRegister(t, rt2, core.TaskDef{Name: "b", Constraints: resources.Constraints{Class: resources.Cloud},
		Fn: func(_ context.Context, args []any) ([]any, error) {
			v, _ := args[0].(int)
			return []any{v + 1}, nil
		}})
	d1b := rt2.NewData()
	fa2, err := rt2.Submit("a", core.WriteSized(d1b, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if !fa2.Done() {
		t.Fatal("a was not resolved from the snapshot")
	}
	d2 := rt2.NewData()
	fb, err := rt2.Submit("b", core.Read(d1b), core.WriteSized(d2, 1e3))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := fb.Wait(); err != nil || v[0] != 11 {
		t.Fatalf("b = %v (%v), want [11]", v, err)
	}
	rt2.Barrier()

	if rt2.RestoredTasks() != 1 {
		t.Fatalf("restored %d tasks, want 1", rt2.RestoredTasks())
	}
	if rt2.RestagedReplicas() != 1 {
		t.Fatalf("re-staged %d replicas, want 1 (d1's only location vanished with n0)", rt2.RestagedReplicas())
	}
	if got := tr.Count(trace.DataRestaged); got != 1 {
		t.Fatalf("%d data_restaged trace events, want 1", got)
	}
	st := rt2.EngineStats()
	if st.Deferred != 0 || st.RanMissing != 0 || st.Reexecuted != 0 {
		t.Fatalf("resumed run parked/ran-missing/recomputed = %d/%d/%d, want 0/0/0",
			st.Deferred, st.RanMissing, st.Reexecuted)
	}
	if aRuns != 1 {
		t.Fatalf("a's body ran %d times, want 1 (incarnation 1 only)", aRuns)
	}
}

// TestAvailabilityWakeOrder pins the order parked tasks wake in, which
// the trace, the checkpoint log and the next wave's bucket pushes all
// follow. A heal wakes key by key, in version order, and each key's
// tasks in ascending ID, so a lower-ID task parked on a higher version
// wakes after a higher-ID task parked on a lower one. A node failure
// wakes every parked task in registration order, whatever their IDs.
func TestAvailabilityWakeOrder(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	lo, hi := deps.Version{Data: 1, Ver: 1}, deps.Version{Data: 2, Ver: 1}
	woken := func(tr *trace.Tracer, from int) []int64 {
		var ids []int64
		for _, ev := range tr.Events()[from:] {
			if ev.Kind == trace.TaskWoken {
				ids = append(ids, ev.Task)
			}
		}
		return ids
	}
	// Both inputs sit on p, behind a cut from c, the only node the
	// consumers fit; x is an idle bystander to fail.
	rig := func(tasks []*engine.Task) (*engine.Engine, *trace.Tracer) {
		pool := resources.NewPool()
		for _, n := range []struct {
			name  string
			class resources.Class
		}{{"p", resources.HPC}, {"c", resources.Cloud}, {"x", resources.HPC}} {
			_ = pool.Add(resources.NewNode(n.name, resources.Description{
				Cores: 4, MemoryMB: 8000, SpeedFactor: 1, Class: n.class,
			}))
		}
		reg := transfer.NewRegistry()
		reg.AddReplica(lo, "p")
		reg.AddReplica(hi, "p")
		net := simnet.New(simnet.Link{BandwidthMBps: 1000})
		net.Cut("p", "c")
		tr := trace.New(0)
		e := engine.New(engine.Config{
			Pool: pool, Policy: sched.FIFO{}, Clock: &stubClock{}, Executor: &collectExec{},
			Registry: reg, Net: net, Tracer: tr, Availability: engine.AvailDefer,
		})
		if _, err := e.Add(tasks, make([][]deps.TaskID, len(tasks)), nil); err != nil {
			t.Fatal(err)
		}
		e.Schedule()
		if got := e.ParkedCount(); got != len(tasks) {
			t.Fatalf("%d tasks parked behind the cut, want %d", got, len(tasks))
		}
		return e, tr
	}
	consumer := func(id int64, in deps.Version) *engine.Task {
		return &engine.Task{ID: id, Class: "c", InputKeys: []deps.Version{in},
			Constraints: resources.Constraints{Class: resources.Cloud}}
	}

	e, tr := rig([]*engine.Task{consumer(10, hi), consumer(20, lo)})
	from := len(tr.Events())
	if err := e.Heal("p", "c"); err != nil {
		t.Fatal(err)
	}
	if got := woken(tr, from); !slices.Equal(got, []int64{20, 10}) {
		t.Errorf("heal woke %v, want [20 10]: key by key, then by ID", got)
	}

	e, tr = rig([]*engine.Task{consumer(30, lo), consumer(10, lo), consumer(20, hi)})
	from = len(tr.Events())
	if _, err := e.FailNode("x", nil); err != nil {
		t.Fatal(err)
	}
	if got := woken(tr, from); !slices.Equal(got, []int64{30, 10, 20}) {
		t.Errorf("a node failure woke %v, want [30 10 20]: registration order", got)
	}
}

// TestAvailabilityParkedProducerResubmitted: a consumer whose input was
// lost resubmits the input's producer even while that producer sits
// parked behind a cut on an input of its own. The resubmission takes the
// producer off the parked list before it re-queues (it parks again at
// placement), and once the cut heals every task runs to completion.
func TestAvailabilityParkedProducerResubmitted(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	engine.CheckTaskRecordSteps(t)
	ext, k := deps.Version{Data: 1}, deps.Version{Data: 2, Ver: 1}
	pool := resources.NewPool()
	net := simnet.New(simnet.Link{BandwidthMBps: 1000})
	for _, n := range []struct {
		name, zone string
		class      resources.Class
	}{{"s", "hpc", resources.HPC}, {"c1", "cloud", resources.Cloud}, {"c2", "cloud", resources.Cloud}} {
		_ = pool.Add(resources.NewNode(n.name, resources.Description{
			Cores: 2, MemoryMB: 8000, SpeedFactor: 1, Class: n.class,
		}))
		net.SetZone(n.name, n.zone)
	}
	reg := transfer.NewRegistry()
	reg.AddReplica(ext, "s")
	x := &collectExec{}
	e := engine.New(engine.Config{
		Pool: pool, Policy: sched.FIFO{}, Clock: &stubClock{}, Executor: x,
		Registry: reg, Net: net, Availability: engine.AvailDefer,
	})
	cloud := resources.Constraints{Class: resources.Cloud}
	if _, err := engine.AddOne(e, &engine.Task{ID: 1, Class: "p", Constraints: cloud,
		InputKeys: []deps.Version{ext}, OutputKeys: []deps.Version{k}}, nil, 0); err != nil {
		t.Fatal(err)
	}
	e.Schedule()
	first, _ := x.pop()
	if _, ok := e.Complete(1, first.Epoch, false); !ok {
		t.Fatal("the producer's first run did not complete")
	}
	consumers := []*engine.Task{
		{ID: 2, Class: "c", Constraints: cloud, InputKeys: []deps.Version{k}},
		{ID: 3, Class: "c", Constraints: cloud, InputKeys: []deps.Version{k}},
	}
	if _, err := e.Add(consumers, make([][]deps.TaskID, 2), []int{1, 1}); err != nil {
		t.Fatal(err)
	}
	// Cut the producer's input off from the cloud tier, then lose k with
	// the node that made it.
	if err := e.Partition("hpc", "cloud"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailNode(first.Node.Name(), nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{2, 3} {
		e.ReleaseHold(id)
		e.Schedule()
		if got, want := e.ParkedCount(), int(id); got != want {
			t.Fatalf("after consumer %d: %d tasks parked, want %d (the producer and the consumers so far)", id, got, want)
		}
	}
	if err := e.Heal("hpc", "cloud"); err != nil {
		t.Fatal(err)
	}
	for p, ok := x.pop(); ok; p, ok = x.pop() {
		if _, done := e.CompleteSchedule(p.Task.ID, p.Epoch, false); !done {
			t.Fatalf("task %d: completion refused", p.Task.ID)
		}
	}
	for _, tm := range e.Timings() {
		if tm.Done < 0 {
			t.Errorf("task %d never completed", tm.ID)
		}
	}
	if st := e.Stats(); st.Reexecuted != 1 || st.RanMissing != 0 || e.ParkedCount() != 0 {
		t.Errorf("re-executed %d, ran missing %d, %d left parked; want 1, 0, 0", st.Reexecuted, st.RanMissing, e.ParkedCount())
	}
}
