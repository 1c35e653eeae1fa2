// Package workloads generates the synthetic equivalents of the paper's
// application workflows: GUIDANCE-style GWAS (Sec. VI-A),
// the NMMB-Monarch weather workflow (Sec. VI-A), and parameterised
// synthetic DAGs for the scheduler experiments. Generators emit
// infra.TaskSpec slices whose data accesses reproduce the published
// workflow shapes; absolute durations are representative.
package workloads

import (
	"math/rand"
	"time"

	"repro/internal/deps"
	"repro/internal/infra"
	"repro/internal/resources"
	wtrace "repro/internal/workloads/trace"
)

// GWASConfig parameterises the GUIDANCE-like genomics workflow. The paper:
// "a whole genome exploration involves 120,000 files, more than 200 GB of
// storage and generates between 1-3 million COMPSs tasks. One of the
// characteristics of the binaries involved in this workflow is the
// requirement of a variable amount of memory".
type GWASConfig struct {
	// Chromosomes is the fan-out width (human genome: 23).
	Chromosomes int
	// ImputationsPerChrom is the per-chromosome task count.
	ImputationsPerChrom int
	// MeanTaskSeconds is the average imputation duration.
	MeanTaskSeconds float64
	// LowMemMB / HighMemMB are the two memory footprints of the mix.
	LowMemMB, HighMemMB int64
	// HighMemFrac is the fraction of tasks needing HighMemMB.
	HighMemFrac float64
	// StaticWorstCase reserves HighMemMB for every task — the baseline
	// the paper's variable memory constraints improved on by 50% (E2).
	StaticWorstCase bool
	// InputFileMB sizes each chromosome's staged input.
	InputFileMB int64
	// Seed drives the duration/memory mix.
	Seed int64
}

// DefaultGWAS sizes a laptop-scale rendition of the GUIDANCE run.
func DefaultGWAS() GWASConfig {
	return GWASConfig{
		Chromosomes:         23,
		ImputationsPerChrom: 100,
		MeanTaskSeconds:     120,
		LowMemMB:            2_000,
		HighMemMB:           16_000,
		HighMemFrac:         0.2,
		InputFileMB:         500,
		Seed:                1,
	}
}

// GWAS builds the workflow: per chromosome a split task fans out to
// imputation tasks that converge into a merge, and all merges feed one
// association-analysis task.
func GWAS(cfg GWASConfig) ([]infra.TaskSpec, map[deps.DataID]int64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var specs []infra.TaskSpec
	stageIn := make(map[deps.DataID]int64, cfg.Chromosomes)

	var nextData deps.DataID = 1
	newData := func() deps.DataID { d := nextData; nextData++; return d }
	var nextTask int64
	newTask := func() int64 { t := nextTask; nextTask++; return t }

	memOf := func() int64 {
		if cfg.StaticWorstCase {
			return cfg.HighMemMB
		}
		if rng.Float64() < cfg.HighMemFrac {
			return cfg.HighMemMB
		}
		return cfg.LowMemMB
	}
	durOf := func(mean float64) time.Duration {
		// Log-ish spread around the mean, bounded to [0.25, 4]×mean.
		f := 0.25 + rng.Float64()*3.75
		return time.Duration(mean * f / 2 * float64(time.Second))
	}

	var mergeOutputs []deps.DataID
	for chrom := 0; chrom < cfg.Chromosomes; chrom++ {
		input := newData()
		stageIn[input] = cfg.InputFileMB * 1e6

		splitOut := newData()
		specs = append(specs, infra.TaskSpec{
			ID: newTask(), Class: "gwas.split",
			Duration:    30 * time.Second,
			Constraints: resources.Constraints{MemoryMB: cfg.LowMemMB},
			Accesses: []deps.Access{
				{Data: input, Dir: deps.In},
				{Data: splitOut, Dir: deps.Out},
			},
			OutputBytes: map[deps.DataID]int64{splitOut: cfg.InputFileMB * 1e6},
		})

		var chunkOutputs []deps.Access
		for i := 0; i < cfg.ImputationsPerChrom; i++ {
			out := newData()
			mem := memOf()
			specs = append(specs, infra.TaskSpec{
				ID: newTask(), Class: "gwas.impute",
				Duration:    durOf(cfg.MeanTaskSeconds),
				Constraints: resources.Constraints{MemoryMB: mem},
				Accesses: []deps.Access{
					{Data: splitOut, Dir: deps.In},
					{Data: out, Dir: deps.Out},
				},
				OutputBytes: map[deps.DataID]int64{out: 10e6},
			})
			chunkOutputs = append(chunkOutputs, deps.Access{Data: out, Dir: deps.In})
		}

		mergeOut := newData()
		mergeOutputs = append(mergeOutputs, mergeOut)
		accesses := append(chunkOutputs, deps.Access{Data: mergeOut, Dir: deps.Out})
		specs = append(specs, infra.TaskSpec{
			ID: newTask(), Class: "gwas.merge",
			Duration:    60 * time.Second,
			Constraints: resources.Constraints{MemoryMB: cfg.LowMemMB},
			Accesses:    accesses,
			OutputBytes: map[deps.DataID]int64{mergeOut: 50e6},
		})
	}

	// Final association analysis over all chromosomes.
	finalAcc := make([]deps.Access, 0, len(mergeOutputs)+1)
	for _, d := range mergeOutputs {
		finalAcc = append(finalAcc, deps.Access{Data: d, Dir: deps.In})
	}
	result := newData()
	finalAcc = append(finalAcc, deps.Access{Data: result, Dir: deps.Out})
	specs = append(specs, infra.TaskSpec{
		ID: newTask(), Class: "gwas.assoc",
		Duration:    5 * time.Minute,
		Constraints: resources.Constraints{MemoryMB: cfg.LowMemMB},
		Accesses:    finalAcc,
		OutputBytes: map[deps.DataID]int64{result: 100e6},
	})
	return specs, stageIn
}

// NMMBConfig parameterises the NMMB-Monarch-like weather workflow: "the
// NMMB-Monarch workflow is composed of five steps, that involve the
// invocation of multiple scripts and external binaries, including a
// Fortran 90 application parallelized with MPI … the code with PyCOMPSs
// was able to achieve better speed-up thanks to the parallelization of the
// sequential part of the application, composed of the initialization
// scripts" (Sec. VI-A).
type NMMBConfig struct {
	// Cycles is the number of forecast cycles (days).
	Cycles int
	// InitScripts is the per-cycle count of initialisation scripts.
	InitScripts int
	// InitSeconds is each script's duration.
	InitSeconds float64
	// ParallelInit runs the scripts as independent tasks (the PyCOMPSs
	// port); false chains them (the original sequential driver).
	ParallelInit bool
	// MPINodes × MPICores size the simulation stage.
	MPINodes, MPICores int
	// MPIMinutes is the simulation duration.
	MPIMinutes float64
	// PostSeconds is the post-processing duration.
	PostSeconds float64
}

// DefaultNMMB sizes a laptop-scale rendition of the dust-forecast run.
func DefaultNMMB() NMMBConfig {
	return NMMBConfig{
		Cycles:      4,
		InitScripts: 12,
		InitSeconds: 60,
		MPINodes:    4,
		MPICores:    8,
		MPIMinutes:  20,
		PostSeconds: 120,
	}
}

// NMMB builds the five-stage workflow per cycle: fixed preprocessing →
// init scripts (vars+dust) → MPI simulation → post-process → archive.
// Cycles chain through the model state (restart files).
func NMMB(cfg NMMBConfig) []infra.TaskSpec {
	var specs []infra.TaskSpec
	var nextData deps.DataID = 1
	newData := func() deps.DataID { d := nextData; nextData++; return d }
	var nextTask int64
	newTask := func() int64 { t := nextTask; nextTask++; return t }

	modelState := newData() // restart chain across cycles
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		// Step 1: fixed preprocessing.
		fixed := newData()
		specs = append(specs, infra.TaskSpec{
			ID: newTask(), Class: "nmmb.fixed",
			Duration:    90 * time.Second,
			Accesses:    []deps.Access{{Data: fixed, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{fixed: 200e6},
		})

		// Step 2: initialisation scripts.
		var initOuts []deps.Access
		if cfg.ParallelInit {
			for i := 0; i < cfg.InitScripts; i++ {
				out := newData()
				specs = append(specs, infra.TaskSpec{
					ID: newTask(), Class: "nmmb.init",
					Duration: time.Duration(cfg.InitSeconds * float64(time.Second)),
					Accesses: []deps.Access{
						{Data: fixed, Dir: deps.In},
						{Data: out, Dir: deps.Out},
					},
					OutputBytes: map[deps.DataID]int64{out: 20e6},
				})
				initOuts = append(initOuts, deps.Access{Data: out, Dir: deps.In})
			}
		} else {
			// The original driver runs the scripts one after another:
			// model them as a chain through a shared scratch datum.
			scratch := newData()
			for i := 0; i < cfg.InitScripts; i++ {
				acc := []deps.Access{{Data: fixed, Dir: deps.In}}
				if i == 0 {
					acc = append(acc, deps.Access{Data: scratch, Dir: deps.Out})
				} else {
					acc = append(acc, deps.Access{Data: scratch, Dir: deps.InOut})
				}
				specs = append(specs, infra.TaskSpec{
					ID: newTask(), Class: "nmmb.init",
					Duration:    time.Duration(cfg.InitSeconds * float64(time.Second)),
					Accesses:    acc,
					OutputBytes: map[deps.DataID]int64{scratch: 20e6},
				})
			}
			initOuts = []deps.Access{{Data: scratch, Dir: deps.In}}
		}

		// Step 3: the MPI simulation consumes init outputs and the
		// previous cycle's model state.
		simOut := newData()
		acc := append(append([]deps.Access{}, initOuts...),
			deps.Access{Data: modelState, Dir: deps.InOut},
			deps.Access{Data: simOut, Dir: deps.Out},
		)
		specs = append(specs, infra.TaskSpec{
			ID: newTask(), Class: "nmmb.mpi",
			Duration: time.Duration(cfg.MPIMinutes * float64(time.Minute)),
			Constraints: resources.Constraints{
				Cores: cfg.MPICores, Nodes: cfg.MPINodes, Class: resources.HPC,
			},
			Accesses:    acc,
			OutputBytes: map[deps.DataID]int64{simOut: 2e9, modelState: 500e6},
		})

		// Step 4: post-processing.
		postOut := newData()
		specs = append(specs, infra.TaskSpec{
			ID: newTask(), Class: "nmmb.post",
			Duration: time.Duration(cfg.PostSeconds * float64(time.Second)),
			Accesses: []deps.Access{
				{Data: simOut, Dir: deps.In},
				{Data: postOut, Dir: deps.Out},
			},
			OutputBytes: map[deps.DataID]int64{postOut: 100e6},
		})

		// Step 5: archive.
		arch := newData()
		specs = append(specs, infra.TaskSpec{
			ID: newTask(), Class: "nmmb.archive",
			Duration: 30 * time.Second,
			Accesses: []deps.Access{
				{Data: postOut, Dir: deps.In},
				{Data: arch, Dir: deps.Out},
			},
			OutputBytes: map[deps.DataID]int64{arch: 100e6},
		})
	}
	return specs
}

// HeterogeneousMix builds independent tasks from classes with very
// different durations — the workload where learned duration predictions
// pay off (E8).
func HeterogeneousMix(n int, seed int64) []infra.TaskSpec {
	classes := []struct {
		name string
		mean time.Duration
	}{
		{"mix.tiny", 2 * time.Second},
		{"mix.small", 10 * time.Second},
		{"mix.medium", time.Minute},
		{"mix.large", 5 * time.Minute},
	}
	rng := rand.New(rand.NewSource(seed))
	specs := make([]infra.TaskSpec, n)
	for i := range specs {
		c := classes[rng.Intn(len(classes))]
		jitter := 0.9 + 0.2*rng.Float64()
		specs[i] = infra.TaskSpec{
			ID:       int64(i),
			Class:    c.name,
			Duration: time.Duration(float64(c.mean) * jitter),
		}
	}
	return specs
}

// SkewedTiers builds the head-of-line-blocking workload that motivates
// engine-level work stealing: nLong long tasks submitted first, then
// nShort short tasks, all independent and all sharing one unconstrained
// signature — so every task queues in the same ready bucket in
// submission order. On a heterogeneous pool under a tier-guarding policy
// (sched.WaitFast) the long tasks saturate the fast tier and the next
// long head parks the bucket, leaving the slow tier idle while the short
// tail waits behind it; engine.StealOnIdle steals that tail onto the
// idle slow nodes. The same specs run on both backends, so the skew is
// usable in parity suites, benchmarks and experiments alike.
func SkewedTiers(nLong, nShort int, longDur, shortDur time.Duration) []infra.TaskSpec {
	specs := make([]infra.TaskSpec, 0, nLong+nShort)
	for i := 0; i < nLong; i++ {
		specs = append(specs, infra.TaskSpec{
			ID: int64(i), Class: "skew.long", Duration: longDur,
		})
	}
	for i := 0; i < nShort; i++ {
		specs = append(specs, infra.TaskSpec{
			ID: int64(nLong + i), Class: "skew.short", Duration: shortDur,
		})
	}
	return specs
}

// EmbarrassinglyParallel builds n identical independent tasks.
func EmbarrassinglyParallel(n int, dur time.Duration, memMB int64) []infra.TaskSpec {
	specs := make([]infra.TaskSpec, n)
	for i := range specs {
		specs[i] = infra.TaskSpec{
			ID: int64(i), Class: "ep",
			Duration:    dur,
			Constraints: resources.Constraints{MemoryMB: memMB},
		}
	}
	return specs
}

// IterativeStencil builds a double-buffer update loop: at each iteration,
// one task per cell reads the cell and its neighbours (previous versions)
// and overwrites the cell. With version renaming, iteration k+1 writers
// need not wait for all iteration-k readers of the same cell (no WAR
// serialisation); without renaming the graph gains WAR/WAW edges — the
// ablation workload for version renaming (A1 in the README's Experiments).
func IterativeStencil(iters, width int, taskDur time.Duration) []infra.TaskSpec {
	var specs []infra.TaskSpec
	var tid int64
	cell := func(i int) deps.DataID { return deps.DataID(i + 1) }
	for it := 0; it < iters; it++ {
		for i := 0; i < width; i++ {
			acc := []deps.Access{{Data: cell(i), Dir: deps.InOut}}
			if i > 0 {
				acc = append(acc, deps.Access{Data: cell(i - 1), Dir: deps.In})
			}
			if i < width-1 {
				acc = append(acc, deps.Access{Data: cell(i + 1), Dir: deps.In})
			}
			specs = append(specs, infra.TaskSpec{
				ID: tid, Class: "stencil.update", Duration: taskDur,
				Accesses:    acc,
				OutputBytes: map[deps.DataID]int64{cell(i): 1e6},
			})
			tid++
		}
	}
	return specs
}

// ProducerConsumerLoop builds the workload where version renaming pays:
// each iteration one producer *overwrites* a shared dataset (Out) and many
// long-running readers consume it. With renaming, iteration k+1's producer
// ignores iteration k's still-running readers (their input version is
// immutable); without renaming, WAR edges serialise the iterations. This
// is the access pattern of workflows that reuse file names across steps
// (like the GUIDANCE binaries' scratch files).
func ProducerConsumerLoop(iters, readers int, readDur time.Duration) []infra.TaskSpec {
	var specs []infra.TaskSpec
	var tid int64
	const dataset deps.DataID = 1
	var sinkBase deps.DataID = 2
	for it := 0; it < iters; it++ {
		specs = append(specs, infra.TaskSpec{
			ID: tid, Class: "pc.produce", Duration: 5 * time.Second,
			Accesses:    []deps.Access{{Data: dataset, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{dataset: 100e6},
		})
		tid++
		for r := 0; r < readers; r++ {
			sink := sinkBase
			sinkBase++
			specs = append(specs, infra.TaskSpec{
				ID: tid, Class: "pc.consume", Duration: readDur,
				Accesses: []deps.Access{
					{Data: dataset, Dir: deps.In},
					{Data: sink, Dir: deps.Out},
				},
				OutputBytes: map[deps.DataID]int64{sink: 1e6},
			})
			tid++
		}
	}
	return specs
}

// CommutativeReduce builds the reduction pattern whose member order is
// irrelevant: one seed task writes the accumulator, n updater tasks
// merge into it commutatively (no member-member dependency edges — the
// scheduler may run them in any order), and one reader consumes the
// merged result. This is the workload behind the live backend's
// commutative value-binding path: both backends must keep the members
// unordered while later accesses wait for the whole group.
func CommutativeReduce(n int, updDur time.Duration) []infra.TaskSpec {
	const acc deps.DataID = 1
	var specs []infra.TaskSpec
	specs = append(specs, infra.TaskSpec{
		ID: 0, Class: "reduce.seed", Duration: 2 * time.Second,
		Accesses:    []deps.Access{{Data: acc, Dir: deps.Out}},
		OutputBytes: map[deps.DataID]int64{acc: 1e6},
	})
	for i := 0; i < n; i++ {
		specs = append(specs, infra.TaskSpec{
			ID: int64(i + 1), Class: "reduce.update", Duration: updDur,
			Accesses:    []deps.Access{{Data: acc, Dir: deps.Commutative}},
			OutputBytes: map[deps.DataID]int64{acc: 1e6},
		})
	}
	specs = append(specs, infra.TaskSpec{
		ID: int64(n + 1), Class: "reduce.read", Duration: time.Second,
		Accesses: []deps.Access{
			{Data: acc, Dir: deps.In},
			{Data: 2, Dir: deps.Out},
		},
		OutputBytes: map[deps.DataID]int64{2: 1e3},
	})
	return specs
}

// PartitionPipeline builds the partition-recovery drill workload (E15):
// one unpinned producer writes a shared datum, then `consumers` readers —
// pinned to the cloud tier, released at `release` so a scripted cut can
// land between production and consumption — each derive a sink from it,
// and one collector (also cloud-pinned) joins the sinks. When a cut
// isolates the producer's side before the readers become visible, every
// replica of the shared datum is unreachable from the tier the readers
// must run on: exactly the placement decision the engine's availability
// policies (run-anyway / defer / recompute) disagree about.
func PartitionPipeline(consumers int, produceDur, consumeDur time.Duration, bytes int64, release time.Duration) []infra.TaskSpec {
	const shared deps.DataID = 1
	cloud := resources.Constraints{Class: resources.Cloud}
	specs := []infra.TaskSpec{{
		ID: 0, Class: "part.produce", Duration: produceDur,
		Accesses:    []deps.Access{{Data: shared, Dir: deps.Out}},
		OutputBytes: map[deps.DataID]int64{shared: bytes},
	}}
	var sink deps.DataID = 2
	collect := infra.TaskSpec{
		ID: int64(consumers + 1), Class: "part.collect", Duration: time.Second,
		Constraints: cloud,
	}
	for i := 0; i < consumers; i++ {
		specs = append(specs, infra.TaskSpec{
			ID: int64(i + 1), Class: "part.consume", Duration: consumeDur,
			Constraints: cloud, Release: release,
			Accesses: []deps.Access{
				{Data: shared, Dir: deps.In},
				{Data: sink, Dir: deps.Out},
			},
			OutputBytes: map[deps.DataID]int64{sink: 1e3},
		})
		collect.Accesses = append(collect.Accesses, deps.Access{Data: sink, Dir: deps.In})
		sink++
	}
	collect.Accesses = append(collect.Accesses, deps.Access{Data: sink, Dir: deps.Out})
	collect.OutputBytes = map[deps.DataID]int64{sink: 1e3}
	return append(specs, collect)
}

// ConformanceCase is one generator instance of the backend-conformance
// suite: a named spec set, its staged-in data, and the single node able to
// serialise it (one core, every required capability), so schedules are
// fully determined by the engine's head selection and comparable
// one-to-one between the live runtime and the simulator.
type ConformanceCase struct {
	// Name labels the generator.
	Name string
	// Specs is the workflow, laptop-scale.
	Specs []infra.TaskSpec
	// StageIn sizes externally provided data (version 0).
	StageIn map[deps.DataID]int64
	// Node describes the one pool node; single-core so both backends
	// serialise identically.
	Node resources.Description
}

// ConformanceSuite instantiates every generator in this package at a tiny,
// deterministic scale for backend-parity sweeps. Multi-node stages are
// scaled to one node: conformance compares scheduling decisions, not
// parallel speedups.
func ConformanceSuite() []ConformanceCase {
	gwas := GWASConfig{
		Chromosomes:         2,
		ImputationsPerChrom: 3,
		MeanTaskSeconds:     10,
		LowMemMB:            1_000,
		HighMemMB:           4_000,
		HighMemFrac:         0.3,
		InputFileMB:         5,
		Seed:                7,
	}
	gwasSpecs, gwasStage := GWAS(gwas)
	nmmb := NMMBConfig{
		Cycles: 2, InitScripts: 3, InitSeconds: 5, ParallelInit: true,
		MPINodes: 1, MPICores: 1, MPIMinutes: 1, PostSeconds: 5,
	}
	hpc1 := resources.Description{
		Cores: 1, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
	}
	cloud1 := resources.Description{
		Cores: 1, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.Cloud,
	}
	return []ConformanceCase{
		{Name: "gwas", Specs: gwasSpecs, StageIn: gwasStage, Node: hpc1},
		{Name: "nmmb", Specs: NMMB(nmmb), Node: hpc1},
		{Name: "heterogeneous-mix", Specs: HeterogeneousMix(12, 3), Node: hpc1},
		{Name: "embarrassingly-parallel", Specs: EmbarrassinglyParallel(10, 5*time.Second, 500), Node: hpc1},
		{Name: "iterative-stencil", Specs: IterativeStencil(3, 4, 2*time.Second), Node: hpc1},
		{Name: "producer-consumer", Specs: ProducerConsumerLoop(3, 3, 4*time.Second), Node: hpc1},
		{Name: "map-reduce", Specs: MapReduce(4, 2, 3*time.Second, 5*time.Second, 2e6), Node: hpc1},
		{Name: "commutative-reduce", Specs: CommutativeReduce(5, 3*time.Second), Node: hpc1},
		// Cloud-class node: the partition pipeline pins its consumers to
		// the cloud tier, so the single conformance node must satisfy it.
		// Wide enough that a mid-run halt in the checkpoint round-trip
		// sweep lands after at least one every-3 snapshot.
		{Name: "partition-pipeline", Specs: PartitionPipeline(6, 2*time.Second, 3*time.Second, 2e6, 0), Node: cloud1},
		// Replayed traffic: the committed trace releases cohorts at their
		// recorded offsets (all inside the conformance gate's 1s, so both
		// backends still start from the same fully-queued state).
		{Name: "trace-replay", Specs: wtrace.Conformance().Specs(), Node: hpc1},
	}
}

// MapReduce builds nMap mappers feeding nReduce reducers (each reducer
// reads every mapper output), then one final collector.
func MapReduce(nMap, nReduce int, mapDur, reduceDur time.Duration, shuffleBytes int64) []infra.TaskSpec {
	var specs []infra.TaskSpec
	var nextData deps.DataID = 1
	var nextTask int64

	mapOuts := make([]deps.DataID, nMap)
	for i := 0; i < nMap; i++ {
		mapOuts[i] = nextData
		nextData++
		specs = append(specs, infra.TaskSpec{
			ID: nextTask, Class: "mr.map", Duration: mapDur,
			Accesses:    []deps.Access{{Data: mapOuts[i], Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{mapOuts[i]: shuffleBytes},
		})
		nextTask++
	}
	redOuts := make([]deps.DataID, nReduce)
	for r := 0; r < nReduce; r++ {
		acc := make([]deps.Access, 0, nMap+1)
		for _, d := range mapOuts {
			acc = append(acc, deps.Access{Data: d, Dir: deps.In})
		}
		redOuts[r] = nextData
		nextData++
		acc = append(acc, deps.Access{Data: redOuts[r], Dir: deps.Out})
		specs = append(specs, infra.TaskSpec{
			ID: nextTask, Class: "mr.reduce", Duration: reduceDur,
			Accesses:    acc,
			OutputBytes: map[deps.DataID]int64{redOuts[r]: shuffleBytes / 4},
		})
		nextTask++
	}
	finalAcc := make([]deps.Access, 0, nReduce+1)
	for _, d := range redOuts {
		finalAcc = append(finalAcc, deps.Access{Data: d, Dir: deps.In})
	}
	finalAcc = append(finalAcc, deps.Access{Data: nextData, Dir: deps.Out})
	specs = append(specs, infra.TaskSpec{
		ID: nextTask, Class: "mr.collect", Duration: reduceDur / 2,
		Accesses: finalAcc,
	})
	return specs
}
