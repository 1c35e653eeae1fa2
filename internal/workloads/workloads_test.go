package workloads

import (
	"testing"
	"time"

	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// runSim executes the specs on a uniform pool, which exercises the same
// registration path as the experiments (unique IDs, forward deps, no
// cycles — infra.New would fail otherwise).
func runSim(t *testing.T, specs []infra.TaskSpec, nodes int, desc resources.Description) infra.Result {
	t.Helper()
	pool := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = pool.Add(resources.NewNode(nodeName(i), desc))
	}
	sim, err := infra.New(infra.Config{
		Pool:   pool,
		Net:    simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.MinLoad{},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func nodeName(i int) string {
	return "n" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestGWASTaskCount(t *testing.T) {
	cfg := GWASConfig{Chromosomes: 3, ImputationsPerChrom: 5, MeanTaskSeconds: 1,
		LowMemMB: 100, HighMemMB: 200, InputFileMB: 1, Seed: 1}
	specs, stageIn := GWAS(cfg)
	// split + imputations + merge per chromosome, plus final association.
	if want := cfg.Chromosomes*(cfg.ImputationsPerChrom+2) + 1; len(specs) != want {
		t.Fatalf("generated %d tasks, want %d", len(specs), want)
	}
	if len(stageIn) != 3 {
		t.Fatalf("stage-in files = %d, want 3", len(stageIn))
	}
}

func TestGWASRunsToCompletion(t *testing.T) {
	cfg := GWASConfig{Chromosomes: 4, ImputationsPerChrom: 8, MeanTaskSeconds: 10,
		LowMemMB: 1000, HighMemMB: 4000, HighMemFrac: 0.25, InputFileMB: 10, Seed: 2}
	specs, _ := GWAS(cfg)
	res := runSim(t, specs, 4, resources.Description{Cores: 8, MemoryMB: 32000, SpeedFactor: 1})
	if res.TasksCompleted != len(specs) {
		t.Fatalf("completed %d/%d", res.TasksCompleted, len(specs))
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestGWASStaticVsVariableMemory(t *testing.T) {
	base := GWASConfig{Chromosomes: 4, ImputationsPerChrom: 20, MeanTaskSeconds: 30,
		LowMemMB: 2000, HighMemMB: 16000, HighMemFrac: 0.2, InputFileMB: 10, Seed: 3}
	variable := base
	static := base
	static.StaticWorstCase = true

	desc := resources.Description{Cores: 16, MemoryMB: 64000, SpeedFactor: 1}
	vSpecs, _ := GWAS(variable)
	sSpecs, _ := GWAS(static)
	vRes := runSim(t, vSpecs, 2, desc)
	sRes := runSim(t, sSpecs, 2, desc)
	// Static worst-case memory admits only 4 tasks per node (64/16 GB)
	// even though 16 cores exist; variable admits far more. The paper
	// reports a ~50% improvement; require at least 25% here.
	if float64(vRes.Makespan) > 0.75*float64(sRes.Makespan) {
		t.Fatalf("variable-memory makespan %v not clearly better than static %v",
			vRes.Makespan, sRes.Makespan)
	}
}

func TestNMMBSerialVsParallelInit(t *testing.T) {
	cfg := DefaultNMMB()
	cfg.Cycles = 2
	serial := cfg
	serial.ParallelInit = false
	parallel := cfg
	parallel.ParallelInit = true

	desc := resources.MareNostrumNode
	sRes := runSim(t, NMMB(serial), 4, desc)
	pRes := runSim(t, NMMB(parallel), 4, desc)
	if pRes.Makespan >= sRes.Makespan {
		t.Fatalf("parallel init %v should beat serial %v", pRes.Makespan, sRes.Makespan)
	}
	// The win is bounded by the init stage share.
	saved := sRes.Makespan - pRes.Makespan
	expect := time.Duration(float64(cfg.InitScripts-1) * cfg.InitSeconds * float64(time.Second) * float64(cfg.Cycles))
	if saved > expect {
		t.Fatalf("saved %v exceeds the theoretical init win %v", saved, expect)
	}
}

func TestNMMBStructure(t *testing.T) {
	cfg := DefaultNMMB()
	cfg.Cycles = 1
	specs := NMMB(cfg)
	// 1 fixed + InitScripts + 1 mpi + 1 post + 1 archive
	want := 1 + cfg.InitScripts + 3
	if len(specs) != want {
		t.Fatalf("tasks = %d, want %d", len(specs), want)
	}
	classes := make(map[string]int)
	var mpi infra.TaskSpec
	for _, s := range specs {
		classes[s.Class]++
		if s.Class == "nmmb.mpi" {
			mpi = s
		}
	}
	if classes["nmmb.init"] != cfg.InitScripts {
		t.Fatalf("init tasks = %d", classes["nmmb.init"])
	}
	if mpi.Constraints.Nodes != cfg.MPINodes || mpi.Constraints.Class != resources.HPC {
		t.Fatalf("mpi constraints = %+v", mpi.Constraints)
	}
}

func TestNMMBCyclesChainThroughModelState(t *testing.T) {
	cfg := DefaultNMMB()
	cfg.Cycles = 3
	cfg.InitScripts = 2
	specs := NMMB(cfg)
	// With 3 cycles the MPI tasks must serialise (InOut on model state):
	// even with abundant resources, makespan ≥ 3 × MPI duration.
	desc := resources.MareNostrumNode
	res := runSim(t, specs, 16, desc)
	minMakespan := time.Duration(3 * cfg.MPIMinutes * float64(time.Minute))
	if res.Makespan < minMakespan {
		t.Fatalf("makespan %v < 3 MPI runs %v: cycles did not serialise", res.Makespan, minMakespan)
	}
}

func TestHeterogeneousMixDeterministic(t *testing.T) {
	a := HeterogeneousMix(50, 9)
	b := HeterogeneousMix(50, 9)
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Duration != b[i].Duration {
			t.Fatal("same seed produced different mixes")
		}
	}
	classes := make(map[string]bool)
	for _, s := range a {
		classes[s.Class] = true
	}
	if len(classes) < 3 {
		t.Fatalf("mix uses only %d classes", len(classes))
	}
}

func TestEmbarrassinglyParallel(t *testing.T) {
	specs := EmbarrassinglyParallel(16, time.Second, 100)
	res := runSim(t, specs, 2, resources.Description{Cores: 8, MemoryMB: 8000, SpeedFactor: 1})
	if res.Makespan != time.Second {
		t.Fatalf("EP makespan = %v, want 1s on 16 slots", res.Makespan)
	}
}

func TestMapReduceShape(t *testing.T) {
	specs := MapReduce(8, 2, time.Second, 2*time.Second, 1e6)
	if len(specs) != 11 {
		t.Fatalf("tasks = %d, want 11", len(specs))
	}
	res := runSim(t, specs, 4, resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1})
	if res.TasksCompleted != 11 {
		t.Fatalf("completed = %d", res.TasksCompleted)
	}
	// Critical path: map (1s) -> reduce (2s) -> collect (1s) = 4s.
	if res.Makespan < 4*time.Second {
		t.Fatalf("makespan %v below critical path", res.Makespan)
	}
}

func TestIterativeStencilShape(t *testing.T) {
	specs := IterativeStencil(3, 8, time.Second)
	if len(specs) != 24 {
		t.Fatalf("tasks = %d, want 24", len(specs))
	}
	// Iterations chain per cell: with 8 cores per node and 4 nodes, the
	// wavefront still forces ≥ iters sequential steps.
	res := runSim(t, specs, 4, resources.Description{Cores: 8, MemoryMB: 8000, SpeedFactor: 1})
	if res.Makespan < 3*time.Second {
		t.Fatalf("makespan %v below iteration chain", res.Makespan)
	}
}

func TestProducerConsumerLoopRenamingEffect(t *testing.T) {
	specs := ProducerConsumerLoop(4, 6, 30*time.Second)
	if len(specs) != 4*7 {
		t.Fatalf("tasks = %d, want 28", len(specs))
	}
	res := runSim(t, specs, 2, resources.Description{Cores: 16, MemoryMB: 8000, SpeedFactor: 1})
	// With renaming, producers are independent; iterations overlap:
	// makespan ≈ producer chain? No chain at all: all producers run at
	// t=0; readers of iteration k start after producer k (5s). So the
	// whole thing is ~35s, far below the serialised 4*(5+30).
	if res.Makespan > 60*time.Second {
		t.Fatalf("renamed producer-consumer loop did not overlap: %v", res.Makespan)
	}
}
