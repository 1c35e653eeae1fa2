// Package experiments contains the runners that regenerate every
// figure/claim of the paper's evaluation narrative (DESIGN.md §3,
// EXPERIMENTS.md). Each runner returns typed results; cmd/experiments
// formats them as tables and this package's tests pin the claims.
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

// hpcPool builds n MareNostrum-class nodes named mn000….
func hpcPool(n int) *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < n; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("mn%03d", i), resources.MareNostrumNode))
	}
	return pool
}

func hpcNet(pool *resources.Pool) *simnet.Network {
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return net
}

func mustRun(cfg infra.Config, specs []infra.TaskSpec) (infra.Result, error) {
	sim, err := infra.New(cfg, specs)
	if err != nil {
		return infra.Result{}, err
	}
	return sim.Run()
}

// --- E1: GUIDANCE scalability -------------------------------------------

// E1Point is one row of the scalability table.
type E1Point struct {
	Nodes    int
	Cores    int
	Makespan time.Duration
	Speedup  float64 // vs the 1-node run
	Eff      float64 // Speedup / Nodes
}

// E1Guidance sweeps the GWAS workflow over node counts (paper: "executed
// with up to 100 nodes of the Marenostrum supercomputer (4800 cores),
// showing good scalability").
func E1Guidance(nodeCounts []int, cfg workloads.GWASConfig) ([]E1Point, error) {
	specs, stageIn := workloads.GWAS(cfg)
	var base time.Duration
	out := make([]E1Point, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		pool := hpcPool(n)
		res, err := mustRun(infra.Config{
			Pool:    pool,
			Net:     hpcNet(pool),
			Policy:  sched.MinLoad{},
			StageIn: stageIn,
		}, specs)
		if err != nil {
			return nil, fmt.Errorf("E1 n=%d: %w", n, err)
		}
		if base == 0 {
			base = res.Makespan
		}
		p := E1Point{
			Nodes:    n,
			Cores:    n * resources.MareNostrumNode.Cores,
			Makespan: res.Makespan,
			Speedup:  float64(base) / float64(res.Makespan),
		}
		p.Eff = p.Speedup / (float64(n) / float64(nodeCounts[0]))
		out = append(out, p)
	}
	return out, nil
}

// --- E2: variable memory constraints -------------------------------------

// E2Result compares static worst-case memory reservation against dynamic
// per-task constraints.
type E2Result struct {
	StaticMakespan   time.Duration
	VariableMakespan time.Duration
	// Reduction is 1 − variable/static; the paper reports ≈ 0.5.
	Reduction float64
}

// E2MemoryConstraints runs the GWAS workflow both ways on the same pool.
func E2MemoryConstraints(nodes int, cfg workloads.GWASConfig) (E2Result, error) {
	variable := cfg
	variable.StaticWorstCase = false
	static := cfg
	static.StaticWorstCase = true

	run := func(c workloads.GWASConfig) (time.Duration, error) {
		specs, stageIn := workloads.GWAS(c)
		pool := hpcPool(nodes)
		res, err := mustRun(infra.Config{
			Pool: pool, Net: hpcNet(pool), Policy: sched.MinLoad{}, StageIn: stageIn,
		}, specs)
		return res.Makespan, err
	}
	sm, err := run(static)
	if err != nil {
		return E2Result{}, err
	}
	vm, err := run(variable)
	if err != nil {
		return E2Result{}, err
	}
	return E2Result{
		StaticMakespan:   sm,
		VariableMakespan: vm,
		Reduction:        1 - float64(vm)/float64(sm),
	}, nil
}

// --- E3: NMMB-Monarch init parallelisation -------------------------------

// E3Result compares the original serial init driver with the PyCOMPSs
// task-parallel port.
type E3Result struct {
	SerialMakespan   time.Duration
	ParallelMakespan time.Duration
	Speedup          float64
}

// E3NMMBInit runs the weather workflow both ways.
func E3NMMBInit(nodes int, cfg workloads.NMMBConfig) (E3Result, error) {
	run := func(parallel bool) (time.Duration, error) {
		c := cfg
		c.ParallelInit = parallel
		pool := hpcPool(nodes)
		res, err := mustRun(infra.Config{
			Pool: pool, Net: hpcNet(pool), Policy: sched.MinLoad{},
		}, workloads.NMMB(c))
		return res.Makespan, err
	}
	serial, err := run(false)
	if err != nil {
		return E3Result{}, err
	}
	parallel, err := run(true)
	if err != nil {
		return E3Result{}, err
	}
	return E3Result{
		SerialMakespan:   serial,
		ParallelMakespan: parallel,
		Speedup:          float64(serial) / float64(parallel),
	}, nil
}

// --- E4: storage locality through getLocations ---------------------------

// E4Result compares locality-aware placement against locality-blind.
type E4Result struct {
	Policy     string
	BytesMoved int64
	Makespan   time.Duration
}

// E4StorageLocality partitions a Hecuba-style dataset across the compute
// nodes (one shard per node, like Cassandra collocated with workers) and
// runs one analysis task per shard.
func E4StorageLocality(nodes, shardsPerNode int, shardMB int64, policies []sched.Policy) ([]E4Result, error) {
	pool := hpcPool(nodes)
	names := make([]string, 0, nodes)
	for _, n := range pool.Nodes() {
		names = append(names, n.Name())
	}

	stageIn := make(map[deps.DataID]int64)
	stageNodes := make(map[deps.DataID][]string)
	var specs []infra.TaskSpec
	var d deps.DataID = 1
	var tid int64
	for ni := 0; ni < nodes; ni++ {
		for s := 0; s < shardsPerNode; s++ {
			stageIn[d] = shardMB * 1e6
			stageNodes[d] = []string{names[ni]}
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

	out := make([]E4Result, 0, len(policies))
	for _, p := range policies {
		pool := hpcPool(nodes)
		res, err := mustRun(infra.Config{
			Pool: pool, Net: hpcNet(pool), Policy: p,
			StageIn: stageIn, StageInNodes: stageNodes,
		}, specs)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", p.Name(), err)
		}
		out = append(out, E4Result{Policy: p.Name(), BytesMoved: res.BytesMoved, Makespan: res.Makespan})
	}
	return out, nil
}

// --- E7: failure recovery with persisted outputs -------------------------

// E7Result compares recovery with and without dataClay-style persistence.
type E7Result struct {
	Persistence     bool
	Makespan        time.Duration
	TasksFailed     int
	TasksReExecuted int
}

// E7FailureRecovery runs a pipeline workload on fog nodes, kills one node
// mid-run, and measures the recovery cost both ways.
func E7FailureRecovery(stages, width int) ([]E7Result, error) {
	mkSpecs := func() []infra.TaskSpec {
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
		return specs
	}

	run := func(persist bool) (E7Result, error) {
		pool := resources.NewPool()
		for i := 0; i < 4; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("fog%d", i), resources.FogDevice))
		}
		persistNode := ""
		if persist {
			persistNode = "vault"
			_ = pool.Add(resources.NewNode("vault", resources.Description{
				Cores: 0, MemoryMB: 0, Class: resources.Cloud, SpeedFactor: 1,
			}))
		}
		net := simnet.Continuum()
		for _, n := range pool.Nodes() {
			net.SetZone(n.Name(), n.Desc().Class.String())
		}
		res, err := mustRun(infra.Config{
			Pool: pool, Net: net, Policy: sched.MinLoad{},
			PersistNode: persistNode,
			Faults:      faults.Scenario{{At: 3 * time.Minute, Kind: faults.Crash, Node: "fog1"}},
		}, mkSpecs())
		if err != nil {
			return E7Result{}, err
		}
		return E7Result{
			Persistence:     persist,
			Makespan:        res.Makespan,
			TasksFailed:     res.TasksFailed,
			TasksReExecuted: res.TasksReExecuted,
		}, nil
	}
	with, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	return []E7Result{with, without}, nil
}

// --- E8: ML-guided scheduling --------------------------------------------

// E8Point is one repeated-execution measurement.
type E8Point struct {
	Run          int
	FIFOMakespan time.Duration
	MLMakespan   time.Duration
}

// E8MLScheduler repeats a heterogeneous workload on a heterogeneous pool;
// the ML policy shares a predictor across runs, learning from previous
// executions (paper Sec. VI-C). The pool is under-subscribed (tasks should
// be below total cores) so placement and ordering decisions are visible:
// the trained policy runs long tasks first on fast nodes (LPT), while FIFO
// scatters them blindly.
func E8MLScheduler(runs, tasks int) ([]E8Point, error) {
	mkPool := func() *resources.Pool {
		pool := resources.NewPool()
		// 3 fast HPC nodes, 6 slow cloud nodes: a bad placement of a
		// large task on a slow node is costly, and the fast tier is wide
		// enough to hold the expected number of large tasks.
		for i := 0; i < 3; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("fast%d", i), resources.Description{
				Cores: 8, MemoryMB: 64000, Class: resources.HPC, SpeedFactor: 1.0,
				IdleWatts: 150, ActiveWattsPerCore: 6,
			}))
		}
		for i := 0; i < 6; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("slow%d", i), resources.Description{
				Cores: 8, MemoryMB: 32000, Class: resources.Cloud, SpeedFactor: 0.25,
				IdleWatts: 40, ActiveWattsPerCore: 8,
			}))
		}
		return pool
	}
	pred := mlpredict.NewPredictor(10 * time.Second)
	out := make([]E8Point, 0, runs)
	for r := 0; r < runs; r++ {
		specs := workloads.HeterogeneousMix(tasks, int64(100+r))
		fifoPool := mkPool()
		fifoRes, err := mustRun(infra.Config{
			Pool: fifoPool, Net: hpcNet(fifoPool), Policy: sched.FIFO{},
		}, specs)
		if err != nil {
			return nil, err
		}
		mlPool := mkPool()
		mlRes, err := mustRun(infra.Config{
			Pool: mlPool, Net: hpcNet(mlPool), Policy: sched.ML{}, Predictor: pred,
		}, specs)
		if err != nil {
			return nil, err
		}
		out = append(out, E8Point{Run: r + 1, FIFOMakespan: fifoRes.Makespan, MLMakespan: mlRes.Makespan})
	}
	return out, nil
}

// --- E9: store vs recompute ----------------------------------------------

// E9Point is one storage-bandwidth setting.
type E9Point struct {
	StorageMBps  float64
	StoreAll     time.Duration
	RecomputeAll time.Duration
	Adaptive     time.Duration
}

// E9StoreRecompute sweeps storage bandwidth over a pipeline lineage and
// prices the three policies (paper Sec. VI-C).
func E9StoreRecompute(bandwidths []float64, depth int, sizeMB int64, computeSec float64, reuse int) ([]E9Point, error) {
	g := lineage.NewGraph()
	var prev []lineage.ItemID
	var id lineage.ItemID = 1
	// Source.
	if err := g.Add(lineage.Item{ID: id, SizeBytes: sizeMB * 1e6}); err != nil {
		return nil, err
	}
	prev = []lineage.ItemID{id}
	id++
	for d := 0; d < depth; d++ {
		if err := g.Add(lineage.Item{
			ID: id, SizeBytes: sizeMB * 1e6,
			ComputeCost: time.Duration(computeSec * float64(time.Second)),
			Inputs:      prev,
		}); err != nil {
			return nil, err
		}
		prev = []lineage.ItemID{id}
		id++
	}
	sink := id - 1
	accesses := make([]lineage.ItemID, reuse)
	for i := range accesses {
		accesses[i] = sink
	}
	out := make([]E9Point, 0, len(bandwidths))
	for _, bw := range bandwidths {
		m := lineage.CostModel{StorageMBps: bw}
		out = append(out, E9Point{
			StorageMBps:  bw,
			StoreAll:     g.Evaluate(lineage.StoreAll, accesses, float64(reuse), m).TotalTime,
			RecomputeAll: g.Evaluate(lineage.RecomputeAll, accesses, float64(reuse), m).TotalTime,
			Adaptive:     g.Evaluate(lineage.Adaptive, accesses, float64(reuse), m).TotalTime,
		})
	}
	return out, nil
}

// --- E10: energy-aware scheduling ----------------------------------------

// E10Result compares performance-first and energy-aware placement.
// ActiveJ is the task-attributable (dynamic) energy — the figure the
// placement controls; TotalJ adds the pool's idle power over the makespan,
// which charges long makespans for keeping idle HPC nodes powered.
type E10Result struct {
	Policy   string
	Makespan time.Duration
	ActiveJ  float64
	TotalJ   float64
}

// E10EnergyAware runs many small tasks on an HPC+fog pool under both
// policies.
func E10EnergyAware(tasks int) ([]E10Result, error) {
	mkPool := func() *resources.Pool {
		pool := resources.NewPool()
		for i := 0; i < 2; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("mn%d", i), resources.MareNostrumNode))
		}
		for i := 0; i < 8; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("fog%d", i), resources.FogDevice))
		}
		return pool
	}
	specs := workloads.EmbarrassinglyParallel(tasks, 10*time.Second, 500)
	var out []E10Result
	for _, p := range []sched.Policy{sched.EFT{}, sched.EnergyAware{MaxSlowdown: 5}} {
		pool := mkPool()
		res, err := mustRun(infra.Config{Pool: pool, Net: hpcNet(pool), Policy: p}, specs)
		if err != nil {
			return nil, err
		}
		out = append(out, E10Result{
			Policy:   p.Name(),
			Makespan: res.Makespan,
			ActiveJ:  float64(res.ActiveEnergy),
			TotalJ:   float64(res.TotalEnergy),
		})
	}
	return out, nil
}

// --- E11: elasticity -------------------------------------------------------

// E11Result compares a fixed pool with an elastic one on a bursty load.
type E11Result struct {
	Mode        string
	Makespan    time.Duration
	NodeSeconds float64
	PeakNodes   int
}

// E11Elasticity submits task bursts at t=0, t=10min, t=20min.
func E11Elasticity(burst int) ([]E11Result, error) {
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

	// Fixed: 8 VMs for the whole run.
	fixedPool := resources.NewPool()
	for i := 0; i < 8; i++ {
		_ = fixedPool.Add(resources.NewNode(fmt.Sprintf("vm%d", i), desc))
	}
	fixedRes, err := mustRun(infra.Config{
		Pool: fixedPool, Net: hpcNet(fixedPool), Policy: sched.MinLoad{},
	}, mkSpecs())
	if err != nil {
		return nil, err
	}

	// Elastic: start empty, grow to ≤ 8, shrink when idle.
	prov := resources.NewSimProvider("vm", desc, 8, 30*time.Second)
	mgr := resources.NewElasticManager(prov, resources.ScalePolicy{
		MaxNodes: 8, TasksPerCore: 0.5, IdleCoresToShrink: 0,
	})
	elRes, err := mustRun(infra.Config{
		Pool: resources.NewPool(), Net: simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.MinLoad{}, Autoscale: autoscale.NewThreshold(mgr), ElasticEvery: 15 * time.Second,
	}, mkSpecs())
	if err != nil {
		return nil, err
	}
	return []E11Result{
		{Mode: "fixed-8", Makespan: fixedRes.Makespan, NodeSeconds: fixedRes.NodeSeconds, PeakNodes: fixedRes.PeakNodes},
		{Mode: "elastic", Makespan: elRes.Makespan, NodeSeconds: elRes.NodeSeconds, PeakNodes: elRes.PeakNodes},
	}, nil
}
