// Package experiments reproduces the paper's quantitative claims: one
// runner per experiment of the README's Experiments table, each returning
// the table cmd/experiments prints. All lists them at their published
// sizes; this package's tests pin each claim by reading cells of those
// tables, and testdata/tables.golden pins every behaviour cell.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/lineage"
	"repro/internal/mlpredict"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workloads"
)

// Experiment is one printed table: its -only ID, its title, and its run
// at the published size.
type Experiment struct {
	ID, Title string
	Run       func() (*Table, error)
}

// All is every experiment in print order. E7b and E15b share their
// parent's ID, so -only e7 prints the simulated and the live drill.
var All = []Experiment{
	{"e1", "E1 — GUIDANCE scalability (paper: good scalability to 100 nodes / 4800 cores)", func() (*Table, error) {
		return e1Guidance([]int{1, 2, 4, 8, 16, 32, 64, 100}, workloads.DefaultGWAS())
	}},
	{"e2", "E2 — variable memory constraints (paper: reduced execution time by 50%)", func() (*Table, error) {
		return e2MemoryConstraints(2, workloads.DefaultGWAS())
	}},
	{"e3", "E3 — NMMB-Monarch init parallelisation (paper: better speed-up from parallelising init scripts)", func() (*Table, error) {
		return e3NMMBInit(4, workloads.DefaultNMMB())
	}},
	{"e4", "E4 — storage locality via getLocations (paper: schedule tasks where the data resides)", func() (*Table, error) {
		return e4StorageLocality(4, 16, 200, []sched.Policy{sched.Locality{}, sched.EFT{}, sched.FIFO{}})
	}},
	{"e5", "E5 — dataClay in-store execution (paper: minimizes the number of data transfers)", func() (*Table, error) {
		return e5MethodShipping(64, 20)
	}},
	{"e6", "E6 — fog-to-cloud offloading over REST agents (Fig. 5/6)", func() (*Table, error) {
		return e6FogOffload(24, 3, 20*time.Millisecond)
	}},
	{"e7", "E7 — fog node failure recovery (paper: retrieve persisted data, resubmit on another node)", func() (*Table, error) {
		return e7FailureRecovery(6, 8)
	}},
	{"e7", "E7b — live recovery drill (same fault script on the live runtime)", func() (*Table, error) {
		return e7LiveRecoveryDrill(6, 8)
	}},
	{"e8", "E8 — intelligent runtime learning from previous executions (Sec. VI-C)", func() (*Table, error) {
		return e8MLScheduler(5, 48)
	}},
	{"e9", "E9 — store vs recompute trade-off (Sec. VI-C data-computing metrics)", func() (*Table, error) {
		return e9StoreRecompute([]float64{1, 10, 100, 1000, 10000}, 6, 1000, 5, 3)
	}},
	{"e10", "E10 — energy-aware scheduling (Sec. IV: efficient in performance and energy)", func() (*Table, error) {
		return e10EnergyAware(64)
	}},
	{"e11", "E11 — cloud elasticity (Sec. VI-A: elasticity in clouds and SLURM clusters)", func() (*Table, error) {
		return e11Elasticity(128)
	}},
	{"e12", "E12 — the same computation at four abstraction levels (Sec. V, Fig. 2)", func() (*Table, error) {
		return e12AbstractionLevels(400, 100, 50)
	}},
	{"e13", "E13 — engine-level work stealing on a skewed continuum workload", func() (*Table, error) {
		return e13WorkSteal(5, 400)
	}},
	{"e14", "E14 — crash-restart durability: engine dies mid-run, resumes from the latest checkpoint", func() (*Table, error) {
		return e14CrashRestart(8, 50, 5, 25, 100)
	}},
	{"e15", "E15a — availability policies under a heal-bounded partition (cut@5s, heal@40s)", func() (*Table, error) {
		return e15PartitionRecovery(16, 4, 40*time.Second)
	}},
	{"e15", "E15b — placement-aware restore onto a shrunk pool (persist tier re-staging)", func() (*Table, error) {
		return e15ShrunkPoolRestore(18, 4)
	}},
	{"e16", "E16 — cost-aware vs threshold autoscaling, cost units per 1k tasks (seed 1, same trace both arms)", func() (*Table, error) {
		return e16AutoscaleCost(250, 1)
	}},
	{"a1", "A1 — ablation: data-version renaming", func() (*Table, error) {
		return a1Renaming(6, 12)
	}},
	{"a2", "A2 — ablation: learned LPT ordering in the ML policy", func() (*Table, error) {
		return a2Priority(48)
	}},
}

// group is n identical nodes, named by a printf format of their index.
type group struct {
	name string
	n    int
	desc resources.Description
}

// rig is a simulator config over a fresh pool of the groups, on the
// continuum network with each node zoned by its class. Two groups that
// name a node alike panic: the pool would silently run one node short.
func rig(policy sched.Policy, groups ...group) infra.Config {
	pool := resources.NewPool()
	net := simnet.Continuum()
	for _, g := range groups {
		for i := 0; i < g.n; i++ {
			name := fmt.Sprintf(g.name, i)
			if err := pool.Add(resources.NewNode(name, g.desc)); err != nil {
				panic("experiments: rig: " + err.Error())
			}
			net.SetZone(name, g.desc.Class.String())
		}
	}
	return infra.Config{Pool: pool, Net: net, Policy: policy}
}

// mareNostrum is n MareNostrum-class nodes named mn000….
func mareNostrum(n int) group { return group{"mn%03d", n, resources.MareNostrumNode} }

// mlRig is the 3 fast HPC + 6 slow cloud pool E8 and A2 learn on: a bad
// placement of a large task on a slow node is costly, and the fast tier
// is wide enough to hold the expected number of large tasks.
func mlRig(policy sched.Policy, pred *mlpredict.Predictor) infra.Config {
	cfg := rig(policy,
		group{"fast%d", 3, resources.Description{
			Cores: 8, MemoryMB: 64000, Class: resources.HPC, SpeedFactor: 1.0,
			IdleWatts: 150, ActiveWattsPerCore: 6,
		}},
		group{"slow%d", 6, resources.Description{
			Cores: 8, MemoryMB: 32000, Class: resources.Cloud, SpeedFactor: 0.25,
			IdleWatts: 40, ActiveWattsPerCore: 8,
		}})
	cfg.Predictor = pred
	return cfg
}

func mustRun(cfg infra.Config, specs []infra.TaskSpec) (infra.Result, error) {
	sim, err := infra.New(cfg, specs)
	if err != nil {
		return infra.Result{}, err
	}
	return sim.Run()
}

// --- E1: GUIDANCE scalability -------------------------------------------

// e1Guidance sweeps the GWAS workflow over node counts (paper: "executed
// with up to 100 nodes of the Marenostrum supercomputer (4800 cores),
// showing good scalability"). Speedup is against the first count's run.
func e1Guidance(nodeCounts []int, cfg workloads.GWASConfig) (*Table, error) {
	specs, stageIn := workloads.GWAS(cfg)
	t := newTable("nodes", "cores", "makespan", "speedup", "efficiency")
	var base time.Duration
	for _, n := range nodeCounts {
		c := rig(sched.MinLoad{}, mareNostrum(n))
		c.StageIn = stageIn
		res, err := mustRun(c, specs)
		if err != nil {
			return nil, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		if base == 0 {
			base = res.Makespan
		}
		speedup := float64(base) / float64(res.Makespan)
		t.add(num("%d", n), num("%d", n*resources.MareNostrumNode.Cores), dur(time.Second, res.Makespan),
			num("%.2f", speedup), num("%.2f", speedup/(float64(n)/float64(nodeCounts[0]))))
	}
	return t, nil
}

// --- E2: variable memory constraints -------------------------------------

// e2MemoryConstraints runs the GWAS workflow on the same pool with static
// worst-case memory reservation and with dynamic per-task constraints;
// the reduction is 1 − variable/static (the paper reports ≈ 50 %).
func e2MemoryConstraints(nodes int, cfg workloads.GWASConfig) (*Table, error) {
	run := func(static bool) (time.Duration, error) {
		cfg.StaticWorstCase = static
		specs, stageIn := workloads.GWAS(cfg)
		c := rig(sched.MinLoad{}, mareNostrum(nodes))
		c.StageIn = stageIn
		res, err := mustRun(c, specs)
		return res.Makespan, err
	}
	sm, err := run(true)
	if err != nil {
		return nil, err
	}
	vm, err := run(false)
	if err != nil {
		return nil, err
	}
	t := newTable("mode", "makespan", "reduction")
	t.add(text("static worst-case"), dur(time.Second, sm), text(""))
	t.add(text("variable + async"), dur(time.Second, vm), num("%.0f%%", 100*(1-float64(vm)/float64(sm))))
	return t, nil
}

// --- E3: NMMB-Monarch init parallelisation -------------------------------

// e3NMMBInit runs the weather workflow with the original serial init
// driver and with the PyCOMPSs task-parallel port.
func e3NMMBInit(nodes int, cfg workloads.NMMBConfig) (*Table, error) {
	run := func(parallel bool) (time.Duration, error) {
		cfg.ParallelInit = parallel
		res, err := mustRun(rig(sched.MinLoad{}, mareNostrum(nodes)), workloads.NMMB(cfg))
		return res.Makespan, err
	}
	serial, err := run(false)
	if err != nil {
		return nil, err
	}
	parallel, err := run(true)
	if err != nil {
		return nil, err
	}
	t := newTable("driver", "makespan", "speedup")
	t.add(text("serial init"), dur(time.Second, serial), num("%.2f", 1.0))
	t.add(text("task-parallel init"), dur(time.Second, parallel), num("%.2f", float64(serial)/float64(parallel)))
	return t, nil
}

// --- E4: storage locality through getLocations ---------------------------

// e4StorageLocality partitions a Hecuba-style dataset across the compute
// nodes (one shard per node, like Cassandra collocated with workers),
// runs one analysis task per shard, and compares the data each policy
// moves.
func e4StorageLocality(nodes, shardsPerNode int, shardMB int64, policies []sched.Policy) (*Table, error) {
	mn := mareNostrum(nodes)
	stageIn := make(map[deps.DataID]int64)
	stageNodes := make(map[deps.DataID][]string)
	var specs []infra.TaskSpec
	var d deps.DataID = 1
	var tid int64
	for ni := 0; ni < nodes; ni++ {
		for s := 0; s < shardsPerNode; s++ {
			stageIn[d] = shardMB * 1e6
			stageNodes[d] = []string{fmt.Sprintf(mn.name, ni)}
			out := d + 100000
			specs = append(specs, infra.TaskSpec{
				ID: tid, Class: "shard.scan", Duration: 20 * time.Second,
				Accesses: []deps.Access{
					{Data: d, Dir: deps.In},
					{Data: out, Dir: deps.Out},
				},
				OutputBytes: map[deps.DataID]int64{out: 1e6},
			})
			d++
			tid++
		}
	}

	t := newTable("policy", "data moved", "makespan")
	for _, p := range policies {
		c := rig(p, mn)
		c.StageIn, c.StageInNodes = stageIn, stageNodes
		res, err := mustRun(c, specs)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", p.Name(), err)
		}
		t.add(text(p.Name()), num("%.1f GB", float64(res.BytesMoved)/1e9), dur(time.Second, res.Makespan))
	}
	return t, nil
}

// --- E7: failure recovery with persisted outputs -------------------------

// e7FailureRecovery runs a pipeline workload on fog nodes, kills one node
// mid-run, and measures the recovery cost with and without a
// dataClay-style persist node.
func e7FailureRecovery(stages, width int) (*Table, error) {
	var specs []infra.TaskSpec
	var d deps.DataID = 1
	var tid int64
	prev := make([]deps.DataID, width)
	for s := 0; s < stages; s++ {
		cur := make([]deps.DataID, width)
		for w := 0; w < width; w++ {
			cur[w] = d
			d++
			acc := []deps.Access{{Data: cur[w], Dir: deps.Out}}
			if s > 0 {
				acc = append(acc, deps.Access{Data: prev[w], Dir: deps.In})
			}
			specs = append(specs, infra.TaskSpec{
				ID: tid, Class: "fog.stage", Duration: 30 * time.Second,
				Accesses:    acc,
				OutputBytes: map[deps.DataID]int64{cur[w]: 5e6},
			})
			tid++
		}
		prev = cur
	}

	t := newTable("mode", "makespan", "tasks killed", "completed tasks recomputed")
	for _, persist := range []bool{true, false} {
		c := rig(sched.MinLoad{}, group{"fog%d", 4, resources.FogDevice})
		mode := "without persistence"
		if persist {
			mode, c.PersistNode = "with dataClay persistence", "vault"
			if err := c.Pool.Add(resources.NewNode("vault", resources.Description{Class: resources.Cloud, SpeedFactor: 1})); err != nil {
				return nil, err
			}
			c.Net.SetZone("vault", resources.Cloud.String())
		}
		c.Faults = faults.Scenario{{At: 3 * time.Minute, Kind: faults.Crash, Node: "fog1"}}
		res, err := mustRun(c, specs)
		if err != nil {
			return nil, err
		}
		t.add(text(mode), dur(time.Second, res.Makespan), num("%d", res.TasksFailed), num("%d", res.TasksReExecuted))
	}
	return t, nil
}

// --- E8: ML-guided scheduling --------------------------------------------

// e8MLScheduler repeats a heterogeneous workload on a heterogeneous pool;
// the ML policy shares a predictor across runs, learning from previous
// executions (paper Sec. VI-C). The pool is under-subscribed (tasks
// should be below total cores) so placement and ordering decisions are
// visible: the trained policy runs long tasks first on fast nodes (LPT),
// while FIFO scatters them blindly.
func e8MLScheduler(runs, tasks int) (*Table, error) {
	pred := mlpredict.NewPredictor(10 * time.Second)
	t := newTable("execution #", "fifo makespan", "ml makespan")
	for r := 1; r <= runs; r++ {
		specs := workloads.HeterogeneousMix(tasks, int64(99+r))
		fifo, err := mustRun(mlRig(sched.FIFO{}, nil), specs)
		if err != nil {
			return nil, err
		}
		ml, err := mustRun(mlRig(sched.ML{}, pred), specs)
		if err != nil {
			return nil, err
		}
		t.add(num("%d", r), dur(time.Second, fifo.Makespan), dur(time.Second, ml.Makespan))
	}
	return t, nil
}

// --- E9: store vs recompute ----------------------------------------------

// e9StoreRecompute sweeps storage bandwidth over a pipeline lineage and
// prices the three policies (paper Sec. VI-C).
func e9StoreRecompute(bandwidths []float64, depth int, sizeMB int64, computeSec float64, reuse int) (*Table, error) {
	g := lineage.NewGraph()
	var id lineage.ItemID = 1
	// Source.
	if err := g.Add(lineage.Item{ID: id, SizeBytes: sizeMB * 1e6}); err != nil {
		return nil, err
	}
	for d := 0; d < depth; d++ {
		id++
		if err := g.Add(lineage.Item{
			ID: id, SizeBytes: sizeMB * 1e6,
			ComputeCost: time.Duration(computeSec * float64(time.Second)),
			Inputs:      []lineage.ItemID{id - 1},
		}); err != nil {
			return nil, err
		}
	}
	accesses := make([]lineage.ItemID, reuse)
	for i := range accesses {
		accesses[i] = id
	}
	t := newTable("storage MB/s", "store-all", "recompute-all", "adaptive")
	for _, bw := range bandwidths {
		m := lineage.CostModel{StorageMBps: bw}
		cost := func(p lineage.Policy) time.Duration {
			return g.Evaluate(p, accesses, float64(reuse), m).TotalTime
		}
		t.add(num("%.0f", bw), dur(time.Second, cost(lineage.StoreAll)),
			dur(time.Second, cost(lineage.RecomputeAll)), dur(time.Second, cost(lineage.Adaptive)))
	}
	return t, nil
}

// --- E10: energy-aware scheduling ----------------------------------------

// e10EnergyAware runs many small tasks on an HPC+fog pool under
// performance-first and energy-aware placement. Task energy is the
// task-attributable (dynamic) energy, the figure placement controls; the
// total adds the pool's idle power over the makespan, which charges long
// makespans for keeping idle HPC nodes powered.
func e10EnergyAware(tasks int) (*Table, error) {
	specs := workloads.EmbarrassinglyParallel(tasks, 10*time.Second, 500)
	t := newTable("policy", "makespan", "task energy", "total energy (incl. idle)")
	for _, p := range []sched.Policy{sched.EFT{}, sched.EnergyAware{MaxSlowdown: 5}} {
		res, err := mustRun(rig(p,
			group{"mn%d", 2, resources.MareNostrumNode},
			group{"fog%d", 8, resources.FogDevice}), specs)
		if err != nil {
			return nil, err
		}
		t.add(text(p.Name()), dur(time.Second, res.Makespan),
			num("%.0f J", float64(res.ActiveEnergy)), num("%.0f J", float64(res.TotalEnergy)))
	}
	return t, nil
}

// --- E11: elasticity -------------------------------------------------------

// e11Elasticity submits task bursts at t=0, t=10min and t=20min to a
// fixed pool of 8 VMs and to an elastic one that starts empty, grows to
// at most 8 and shrinks when idle.
func e11Elasticity(burst int) (*Table, error) {
	mkSpecs := func() []infra.TaskSpec {
		var specs []infra.TaskSpec
		id := int64(0)
		for b := 0; b < 3; b++ {
			release := time.Duration(b) * 10 * time.Minute
			for i := 0; i < burst; i++ {
				specs = append(specs, infra.TaskSpec{
					ID: id, Class: "burst", Duration: 30 * time.Second, Release: release,
				})
				id++
			}
		}
		return specs
	}
	desc := resources.CloudVM
	fixed, err := mustRun(rig(sched.MinLoad{}, group{"vm%d", 8, desc}), mkSpecs())
	if err != nil {
		return nil, err
	}
	scaler, err := autoscale.NewThreshold(autoscale.Tier{Name: "vm", Desc: desc, Delay: 30 * time.Second, Max: 8}, 0.5, 0)
	if err != nil {
		return nil, err
	}
	elastic, err := mustRun(infra.Config{
		Pool: resources.NewPool(), Net: simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.MinLoad{}, Autoscale: scaler, ElasticEvery: 15 * time.Second,
	}, mkSpecs())
	if err != nil {
		return nil, err
	}
	t := newTable("mode", "makespan", "node-seconds", "peak nodes")
	row := func(mode string, r infra.Result) {
		t.add(text(mode), dur(time.Second, r.Makespan), num("%.0f", r.NodeSeconds), num("%d", r.PeakNodes))
	}
	row("fixed-8", fixed)
	row("elastic", elastic)
	return t, nil
}
