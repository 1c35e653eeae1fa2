package infra

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine/faults"
	"repro/internal/mlpredict"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func onePool(n int, desc resources.Description) *resources.Pool {
	p := resources.NewPool()
	for i := 0; i < n; i++ {
		_ = p.Add(resources.NewNode(nodeName(i), desc))
	}
	return p
}

func nodeName(i int) string { return "node" + string(rune('A'+i)) }

func flatNet() *simnet.Network {
	return simnet.New(simnet.Link{BandwidthMBps: 1000, Latency: 0})
}

func baseCfg(nodes int) Config {
	return Config{
		Pool:   onePool(nodes, resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}),
		Net:    flatNet(),
		Policy: sched.FIFO{},
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	specs := []TaskSpec{{ID: 1, Duration: time.Second}, {ID: 1, Duration: time.Second}}
	if _, err := New(baseCfg(1), specs); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	// 8 independent 1s tasks on 2 nodes × 4 cores = 8 slots ⇒ makespan 1s.
	var specs []TaskSpec
	for i := int64(0); i < 8; i++ {
		specs = append(specs, TaskSpec{ID: i, Class: "unit", Duration: time.Second})
	}
	sim, err := New(baseCfg(2), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != time.Second {
		t.Fatalf("makespan = %v, want 1s", res.Makespan)
	}
	if res.TasksCompleted != 8 {
		t.Fatalf("completed = %d, want 8", res.TasksCompleted)
	}
}

func TestDependencyChainSerialises(t *testing.T) {
	// t0 -> t1 -> t2, 1s each ⇒ makespan 3s regardless of 8 free slots.
	specs := []TaskSpec{
		{ID: 0, Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.Out}}},
		{ID: 1, Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.InOut}}},
		{ID: 2, Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.In}}},
	}
	sim, err := New(baseCfg(2), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", res.Makespan)
	}
}

func TestMoreTasksThanSlotsQueue(t *testing.T) {
	// 10 × 1s tasks on 1 node × 4 cores ⇒ ceil(10/4) = 3 waves ⇒ 3s.
	var specs []TaskSpec
	for i := int64(0); i < 10; i++ {
		specs = append(specs, TaskSpec{ID: i, Duration: time.Second})
	}
	sim, err := New(baseCfg(1), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", res.Makespan)
	}
}

func TestMemoryConstraintLimitsConcurrency(t *testing.T) {
	// Node has 8000 MB; tasks demand 4000 MB each ⇒ only 2 concurrent
	// even though 4 cores are free.
	var specs []TaskSpec
	for i := int64(0); i < 4; i++ {
		specs = append(specs, TaskSpec{
			ID: i, Duration: time.Second,
			Constraints: resources.Constraints{MemoryMB: 4000},
		})
	}
	sim, err := New(baseCfg(1), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s (memory-bound)", res.Makespan)
	}
}

func TestUnsatisfiableConstraintErrors(t *testing.T) {
	specs := []TaskSpec{{ID: 0, Duration: time.Second, Constraints: resources.Constraints{Cores: 64}}}
	sim, err := New(baseCfg(1), specs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "no node can run the 1 ready tasks") || strings.Contains(msg, "declined") {
		t.Fatalf("err = %q, want it to say no node can run the task", msg)
	}
}

// A run a policy stalls says so: WaitFast declines, at every wave, an 8 s
// reader pinned to a fog node 3.3× slower than the reference, though the
// node is free — the constraints and the pool are not at fault, and the
// error names the policy instead.
func TestStuckNamesTheDecliningPolicy(t *testing.T) {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("fog0", resources.Description{Cores: 2, MemoryMB: 8000, SpeedFactor: 0.3, Class: resources.Fog}))
	_ = pool.Add(resources.NewNode("hpc0", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC}))
	specs := []TaskSpec{{ID: 1, Class: "read", Duration: 8 * time.Second, Constraints: resources.Constraints{Class: resources.Fog}}}
	sim, err := New(Config{Pool: pool, Net: flatNet(), Policy: sched.WaitFast{MinWait: 5 * time.Second}}, specs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "policy wait-fast declined 1 ready tasks a node could run") {
		t.Fatalf("err = %q, want it to name the declining policy", msg)
	}
}

func TestTransfersCountedAndLocalityAvoidsThem(t *testing.T) {
	// The producer is pinned (class constraint) to the cloud node; the
	// consumer is free. FIFO sends it to the first pool node (HPC) and
	// pays the transfer; Locality follows the data.
	specs := []TaskSpec{
		{ID: 0, Class: "produce", Duration: time.Second,
			Constraints: resources.Constraints{Class: resources.Cloud},
			Accesses:    []deps.Access{{Data: 1, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{1: 1e9}},
		{ID: 1, Class: "consume", Duration: time.Second,
			Accesses: []deps.Access{{Data: 1, Dir: deps.In}}},
	}
	run := func(policy sched.Policy) Result {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("hpc1", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1, Class: resources.HPC}))
		_ = pool.Add(resources.NewNode("cloud1", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1, Class: resources.Cloud}))
		sim, err := New(Config{Pool: pool, Net: flatNet(), Policy: policy}, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Locality keeps the consumer with the data: zero bytes moved.
	if res := run(sched.Locality{}); res.BytesMoved != 0 {
		t.Fatalf("locality moved %d bytes, want 0", res.BytesMoved)
	}
	// FIFO places the consumer on the first node ⇒ 1 GB moves.
	if res := run(sched.FIFO{}); res.BytesMoved != 1e9 {
		t.Fatalf("fifo moved %d bytes, want 1e9", res.BytesMoved)
	}
}

func TestStageInDataIsLocatedAndMoved(t *testing.T) {
	cfg := baseCfg(2)
	cfg.StageIn = map[deps.DataID]int64{7: 5e8}
	cfg.StageInNodes = map[deps.DataID][]string{7: {"nodeA"}}
	// Force the reader onto nodeB so the staged data must move.
	nodeA, _ := cfg.Pool.Get("nodeA")
	_ = nodeA.Reserve(resources.Constraints{Cores: 4})
	specs := []TaskSpec{{ID: 0, Duration: time.Second,
		Accesses: []deps.Access{{Data: 7, Dir: deps.In}}}}
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesMoved != 5e8 {
		t.Fatalf("bytes moved = %d, want 5e8", res.BytesMoved)
	}
}

func TestMultiNodeTaskReservesGroup(t *testing.T) {
	// MPI task wanting 2 nodes × 4 cores on a 2-node pool: nothing else
	// can run concurrently.
	specs := []TaskSpec{
		{ID: 0, Class: "mpi", Duration: 2 * time.Second,
			Constraints: resources.Constraints{Cores: 4, Nodes: 2}},
		{ID: 1, Class: "serial", Duration: time.Second},
	}
	sim, err := New(baseCfg(2), specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The MPI task occupies both nodes for 2s; the serial task runs after
	// (or could not start before) ⇒ makespan 3s.
	if res.Makespan != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", res.Makespan)
	}
}

func TestSpeedFactorScalesDuration(t *testing.T) {
	cfg := Config{
		Pool:   onePool(1, resources.Description{Cores: 1, MemoryMB: 1000, SpeedFactor: 0.5}),
		Net:    flatNet(),
		Policy: sched.FIFO{},
	}
	specs := []TaskSpec{{ID: 0, Duration: time.Second}}
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s on half-speed node", res.Makespan)
	}
}

func TestEnergyAccounted(t *testing.T) {
	cfg := Config{
		Pool: onePool(1, resources.Description{
			Cores: 2, MemoryMB: 1000, SpeedFactor: 1, IdleWatts: 10, ActiveWattsPerCore: 5,
		}),
		Net:    flatNet(),
		Policy: sched.FIFO{},
	}
	specs := []TaskSpec{{ID: 0, Duration: 10 * time.Second}}
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Active: 1 core × 5 W × 10 s = 50 J. Idle: 10 W × 10 s = 100 J.
	if res.ActiveEnergy != 50 {
		t.Fatalf("active energy = %v, want 50", res.ActiveEnergy)
	}
	if res.TotalEnergy != 150 {
		t.Fatalf("total energy = %v, want 150", res.TotalEnergy)
	}
	if res.Utilization != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", res.Utilization)
	}
}

func TestFailureRecoveryWithPersistence(t *testing.T) {
	// Chain: t0 -> t1 -> t2. Fail the worker mid-t1. With persistence,
	// t0's output survives on the persist node, so only t1 re-runs.
	mk := func(persist string) (Result, int) {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("worker", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
		_ = pool.Add(resources.NewNode("spare", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
		if persist != "" {
			_ = pool.Add(resources.NewNode(persist, resources.Description{Cores: 0, MemoryMB: 0, SpeedFactor: 1}))
		}
		tr := trace.New(0)
		cfg := Config{
			Pool: pool, Net: flatNet(), Policy: sched.FIFO{}, Tracer: tr,
			PersistNode: persist,
			Faults:      faults.Scenario{{At: 1500 * time.Millisecond, Kind: faults.Crash, Node: "worker"}},
		}
		specs := []TaskSpec{
			{ID: 0, Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.Out}}, OutputBytes: map[deps.DataID]int64{1: 1e6}},
			{ID: 1, Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}}, OutputBytes: map[deps.DataID]int64{2: 1e6}},
			{ID: 2, Duration: time.Second, Accesses: []deps.Access{{Data: 2, Dir: deps.In}}},
		}
		sim, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Count(trace.TaskFailed)
	}

	withP, failed := mk("vault")
	if failed != 1 || withP.TasksFailed != 1 {
		t.Fatalf("with persistence: %d failures, want 1", failed)
	}
	if withP.TasksReExecuted != 0 {
		t.Fatalf("with persistence re-executed %d completed tasks, want 0", withP.TasksReExecuted)
	}

	withoutP, _ := mk("")
	if withoutP.TasksReExecuted == 0 {
		t.Fatal("without persistence, lost outputs must force re-execution of completed tasks")
	}
	if withoutP.Makespan <= withP.Makespan {
		t.Fatalf("no-persistence makespan %v should exceed persistence %v",
			withoutP.Makespan, withP.Makespan)
	}
}

// wantPinned holds an elastic run to the figures the pre-host elastic
// loop produced for the same config: the threshold planner behind the
// shared autoscale step must reproduce them exactly.
func wantPinned(t *testing.T, res Result, makespan time.Duration, nodeSeconds float64, peak int) {
	t.Helper()
	if res.Makespan != makespan || res.NodeSeconds != nodeSeconds || res.PeakNodes != peak {
		t.Fatalf("makespan/node-seconds/peak = %v/%v/%d, want %v/%v/%d",
			res.Makespan, res.NodeSeconds, res.PeakNodes, makespan, nodeSeconds, peak)
	}
}

func TestElasticityGrowsAndShrinks(t *testing.T) {
	scaler, err := autoscale.NewThreshold(autoscale.Tier{
		Name: "cloud", Desc: resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1},
		Delay: 5 * time.Second, Max: 8,
	}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool() // starts empty: fully elastic
	var specs []TaskSpec
	for i := int64(0); i < 64; i++ {
		specs = append(specs, TaskSpec{ID: i, Duration: 30 * time.Second})
	}
	cfg := Config{
		Pool: pool, Net: flatNet(), Policy: sched.FIFO{},
		Autoscale: scaler, ElasticEvery: 2 * time.Second,
	}
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 64 {
		t.Fatalf("completed %d, want 64", res.TasksCompleted)
	}
	if res.PeakNodes < 2 {
		t.Fatalf("peak nodes = %d, want elastic growth", res.PeakNodes)
	}
	wantPinned(t, res, 81*time.Second, 527, 8)
}

func TestPredictorTrainedBySim(t *testing.T) {
	pred := mlpredict.NewPredictor(time.Second)
	cfg := baseCfg(1)
	cfg.Predictor = pred
	var specs []TaskSpec
	for i := int64(0); i < 6; i++ {
		specs = append(specs, TaskSpec{ID: i, Class: "k", Duration: 7 * time.Second})
	}
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := pred.Predict("k", 0)
	if got < 6*time.Second || got > 8*time.Second {
		t.Fatalf("predictor learned %v, want ~7s", got)
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	tr := trace.New(0)
	cfg := baseCfg(1)
	cfg.Tracer = tr
	specs := []TaskSpec{{ID: 0, Duration: time.Second}}
	sim, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Count(trace.TaskStarted) != 1 || tr.Count(trace.TaskCompleted) != 1 {
		t.Fatalf("trace counts: started=%d completed=%d",
			tr.Count(trace.TaskStarted), tr.Count(trace.TaskCompleted))
	}
}

func TestPersistNodeFailureFallsBackToRecompute(t *testing.T) {
	// The persistence tier itself dies: recovery degrades to lineage
	// recompute but the workflow still completes.
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("w1", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
	_ = pool.Add(resources.NewNode("w2", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
	_ = pool.Add(resources.NewNode("vault", resources.Description{Cores: 0, MemoryMB: 0, SpeedFactor: 1}))
	specs := []TaskSpec{
		{ID: 0, Duration: time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.Out}}, OutputBytes: map[deps.DataID]int64{1: 1e6}},
		{ID: 1, Duration: 10 * time.Second, Accesses: []deps.Access{{Data: 1, Dir: deps.In}, {Data: 2, Dir: deps.Out}}, OutputBytes: map[deps.DataID]int64{2: 1e6}},
		{ID: 2, Duration: time.Second, Accesses: []deps.Access{{Data: 2, Dir: deps.In}}},
	}
	sim, err := New(Config{
		Pool: pool, Net: flatNet(), Policy: sched.FIFO{},
		PersistNode: "vault",
		Faults: faults.Scenario{
			{At: 2 * time.Second, Kind: faults.Crash, Node: "vault"}, // persistence tier dies
			{At: 5 * time.Second, Kind: faults.Crash, Node: "w1"},    // then the worker running t1
		},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted < 3 {
		t.Fatalf("completed %d, want all 3", res.TasksCompleted)
	}
}

// Downscaling must never kill running work: a shrink decision taken while
// the only elastic node is mid-task cordons the node (engine DrainNode)
// and removes it only after the task finishes — no kills, no recovery
// re-executions.
func TestShrinkNeverKillsRunningWork(t *testing.T) {
	scaler, err := autoscale.NewThreshold(autoscale.Tier{
		Name: "vm", Desc: resources.Description{Cores: 8, MemoryMB: 8000, SpeedFactor: 1},
		Delay: 2 * time.Second, Max: 1,
	}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	// One long task on a fully elastic pool: while it runs, pending drops
	// to zero and 7 of 8 cores idle, so every elastic tick decides Shrink.
	sim, err := New(Config{
		Pool:      resources.NewPool(),
		Net:       flatNet(),
		Policy:    sched.FIFO{},
		Tracer:    tr,
		Autoscale: scaler, ElasticEvery: 5 * time.Second,
	}, []TaskSpec{{ID: 1, Class: "long", Duration: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 1 || res.TasksFailed != 0 || res.TasksReExecuted != 0 {
		t.Fatalf("completed/failed/re-executed = %d/%d/%d, want 1/0/0",
			res.TasksCompleted, res.TasksFailed, res.TasksReExecuted)
	}
	wantPinned(t, res, 67*time.Second, 62, 1)
	if got := tr.Count(trace.NodeDrained); got == 0 {
		t.Fatal("shrink decision never cordoned the busy node")
	}
	if got := tr.Count(trace.NodeRemoved); got != 0 {
		t.Fatalf("node removed mid-run %d times; drain-then-remove must wait for idle", got)
	}
	// After the run the node has bled dry: the next step reaps it.
	if act := sim.AutoscaleStep(); act.Kind != autoscale.Removed {
		t.Fatalf("step after the run = %+v, want the drained node reaped", act)
	}
	if n := sim.cfg.Pool.Len(); n != 0 {
		t.Fatalf("pool still holds %d elastic nodes", n)
	}
}

// A burst arriving while a node drains reclaims it (no fresh node is
// provisioned) and the run completes.
func TestReclaimDuringDrainServesNewLoad(t *testing.T) {
	scaler, err := autoscale.NewThreshold(autoscale.Tier{
		Name: "vm", Desc: resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1},
		Delay: 2 * time.Second, Max: 1,
	}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	specs := []TaskSpec{
		{ID: 1, Class: "long", Duration: 30 * time.Second},
		// The second task lands while the node is mid-drain (the shrink
		// decision fires at the 5s/10s ticks, the long task holds the node
		// busy until 37s): the manager must reclaim, not wedge.
		{ID: 2, Class: "late", Duration: 10 * time.Second, Release: 12 * time.Second},
	}
	sim, err := New(Config{
		Pool:      resources.NewPool(),
		Net:       flatNet(),
		Policy:    sched.FIFO{},
		Tracer:    tr,
		Autoscale: scaler, ElasticEvery: 5 * time.Second,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != 2 || res.TasksFailed != 0 {
		t.Fatalf("completed/failed = %d/%d, want 2/0", res.TasksCompleted, res.TasksFailed)
	}
	wantPinned(t, res, 37*time.Second, 32, 1)
	if got := tr.Count(trace.NodeUndrained); got == 0 {
		t.Fatal("draining node was never reclaimed for the late burst")
	}
}

// An elastic run whose only task no tier can ever host must end in
// ErrStuck, not spin: before the ticks were liveness-gated the autoscale
// tick re-armed itself as long as a task remained, so the virtual clock
// never drained. Both planners, under a wall-clock timeout.
func TestElasticStuckReturnsErrStuck(t *testing.T) {
	cpuOnly := resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}
	vm := autoscale.Tier{Name: "vm", Desc: cpuOnly, Cost: 1, Delay: 5 * time.Second, Max: 2}
	costAware, err := autoscale.New([]autoscale.Tier{vm})
	if err != nil {
		t.Fatal(err)
	}
	threshold, err := autoscale.NewThreshold(vm, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, scaler := range map[string]*autoscale.Autoscaler{
		"threshold":  threshold,
		"cost-aware": costAware,
	} {
		t.Run(name, func(t *testing.T) {
			sim, err := New(Config{
				Pool: resources.NewPool(), Net: flatNet(), Policy: sched.FIFO{},
				Autoscale: scaler, ElasticEvery: 5 * time.Second,
				// An observer tick rides along: it must not keep the
				// wedged run alive either.
				Metrics: obsv.NewRegistry(), SampleEvery: 3 * time.Second,
			}, []TaskSpec{{ID: 1, Duration: time.Second, Constraints: resources.Constraints{GPUs: 1}}})
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
				if !errors.Is(err, ErrStuck) {
					t.Fatalf("Run = %v, want ErrStuck", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run still spinning after 10s: the elastic tick masks ErrStuck")
			}
		})
	}
}

// TestSpecsEditedAfterNewMoveNoPlacement edits every spec's constraints
// once New has returned: the run must place each task as the unedited run
// does, because New keeps no spec's memory — each task points at its
// signature's own record. The edited specs, run from the start, place
// differently, so the comparison can fail.
func TestSpecsEditedAfterNewMoveNoPlacement(t *testing.T) {
	sigs := []resources.Constraints{
		{Class: resources.Cloud, Cores: 4},
		{Cores: 2, MemoryMB: 12_000},
		{Cores: 2, GPUs: 1},
		{Cores: 4, Software: []string{"blast"}},
	}
	specs := func() []TaskSpec {
		var out []TaskSpec
		for i := int64(0); i < 16; i++ {
			out = append(out, TaskSpec{ID: i, Class: "t", Duration: time.Duration(1+i%3) * time.Second, Constraints: sigs[i%4]})
		}
		return out
	}
	edit := func(specs []TaskSpec) {
		for i := range specs {
			specs[i].Constraints = resources.Constraints{Class: resources.HPC, Software: []string{"blast"}}
		}
	}
	run := func(specs []TaskSpec, editAfterNew bool) (starts []string) {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("cloud0", resources.Description{Cores: 4, MemoryMB: 4_000, Class: resources.Cloud, SpeedFactor: 1}))
		_ = pool.Add(resources.NewNode("hpc0", resources.Description{Cores: 8, MemoryMB: 16_000, Class: resources.HPC, SpeedFactor: 1, Software: []string{"blast"}}))
		_ = pool.Add(resources.NewNode("gpu0", resources.Description{Cores: 4, MemoryMB: 8_000, GPUs: 1, Class: resources.HPC, SpeedFactor: 1}))
		tr := trace.New(0)
		sim, err := New(Config{Pool: pool, Net: flatNet(), Policy: sched.MinLoad{}, Tracer: tr}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if editAfterNew {
			edit(specs)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events() {
			if e.Kind == trace.TaskStarted {
				starts = append(starts, fmt.Sprintf("%d@%s:%v", e.Task, e.Node, e.At))
			}
		}
		return starts
	}
	want := run(specs(), false)
	if got := run(specs(), true); !slices.Equal(got, want) {
		t.Fatalf("specs edited after New placed\n%v\nthe unedited run placed\n%v", got, want)
	}
	edited := specs()
	edit(edited)
	if slices.Equal(run(edited, false), want) {
		t.Fatal("the edited specs place as the unedited ones do: the comparison cannot fail")
	}
}
