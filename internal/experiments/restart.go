// E14 — crash-restart durability. Lineage recovery (E7) survives losing
// a node; E14 measures surviving the loss of the whole engine: a
// workload runs with periodic checkpoints, the process "dies" mid-run
// (the simulator's HaltAt), and a fresh engine restores the latest
// valid snapshot and finishes the workload. The claim under test is the
// durability contract of internal/engine/checkpoint: zero tasks the
// snapshot records as completed execute again, so the work lost to a
// crash is bounded by one checkpoint period plus the in-flight tasks.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// E14Result is one crash-restart run.
type E14Result struct {
	// Workload names the generator; Tasks is its size.
	Workload string
	Tasks    int
	// EveryN is the checkpoint policy (snapshot per N completions).
	EveryN int
	// CrashAt is the simulated process death instant.
	CrashAt time.Duration
	// CompletedBeforeCrash counts completions in the first incarnation.
	CompletedBeforeCrash int
	// SnapshotTasks counts completed tasks in the restored snapshot
	// (≤ CompletedBeforeCrash: work since the last snapshot is lost).
	SnapshotTasks int
	// Restored counts tasks the second incarnation resolved from the
	// snapshot instead of executing.
	Restored int
	// RecomputedRestored counts restored tasks that executed again in
	// the resumed run — the durability contract demands zero.
	RecomputedRestored int
	// ResumedLaunches counts task launches in the resumed run.
	ResumedLaunches int
	// ColdMakespan / ResumedMakespan compare a from-scratch run with the
	// resumed run's remaining virtual time.
	ColdMakespan, ResumedMakespan time.Duration
}

// e14Pool builds the experiment's rig: an 8-node HPC pool.
func e14Pool() *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < 8; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("hpc%03d", i), resources.MareNostrumNode))
	}
	return pool
}

func e14Config() infra.Config {
	net := simnet.Continuum()
	pool := e14Pool()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return infra.Config{Pool: pool, Net: net, Policy: sched.MinLoad{}}
}

// E14CrashRestart runs the drill on a GWAS-shaped workload: checkpoint
// every everyN completions, kill the engine at half the cold makespan,
// restore from the latest valid snapshot, and account what re-ran.
func E14CrashRestart(chromosomes, imputations, everyN int) (E14Result, error) {
	g := workloads.DefaultGWAS()
	g.Chromosomes = chromosomes
	g.ImputationsPerChrom = imputations
	specs, stageIn := workloads.GWAS(g)

	newCfg := func() infra.Config {
		cfg := e14Config()
		cfg.StageIn = stageIn
		return cfg
	}

	// Cold run: the baseline makespan, and the crash instant.
	cold, err := infra.New(newCfg(), specs)
	if err != nil {
		return E14Result{}, err
	}
	coldRes, err := cold.Run()
	if err != nil {
		return E14Result{}, err
	}
	res := E14Result{
		Workload: "gwas", Tasks: len(specs), EveryN: everyN,
		CrashAt: coldRes.Makespan / 2, ColdMakespan: coldRes.Makespan,
	}

	// Incarnation 1: checkpoints on, crash mid-run. Incarnation 2:
	// restore and finish.
	cfg1 := newCfg()
	cfg1.HaltAt = res.CrashAt
	d, err := crashRestore("E14", cfg1, newCfg(), everyN, specs)
	if err != nil {
		return res, err
	}
	res.CompletedBeforeCrash = d.first.TasksCompleted
	res.SnapshotTasks = len(d.snap.Completed)
	res.Restored = d.resumed.TasksRestored
	res.RecomputedRestored = d.startedAgain
	res.ResumedMakespan = d.resumed.Makespan
	res.ResumedLaunches = d.launches
	return res, nil
}

// crashRestored is what a crash-restart drill leaves behind.
type crashRestored struct {
	first, resumed infra.Result
	snap           *checkpoint.Snapshot
	launches       int // the resumed run's
	// startedAgain counts the tasks the snapshot records as completed that
	// started in the resumed run — the durability contract demands none.
	startedAgain int
}

// crashRestore is the drill E14 and E15b share: first runs with a
// checkpoint every everyN completions and must die at its HaltAt; second
// restores the latest snapshot that survived, traced, and must finish.
func crashRestore(name string, first, second infra.Config, everyN int, specs []infra.TaskSpec) (d crashRestored, err error) {
	dir, err := os.MkdirTemp("", "ckpt-*")
	if err != nil {
		return d, err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		return d, err
	}
	first.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(everyN)}
	sim1, err := infra.New(first, specs)
	if err != nil {
		return d, err
	}
	if d.first, err = sim1.Run(); !errors.Is(err, infra.ErrHalted) {
		return d, fmt.Errorf("%s: first incarnation: got %v, want ErrHalted", name, err)
	}
	if d.snap, err = store.Latest(); err != nil {
		return d, fmt.Errorf("%s: no snapshot survived the crash: %w", name, err)
	}
	tr := trace.New(0)
	second.Restore, second.Tracer = d.snap, tr
	sim2, err := infra.New(second, specs)
	if err != nil {
		return d, err
	}
	if d.resumed, err = sim2.Run(); err != nil {
		return d, fmt.Errorf("%s: resumed run: %w", name, err)
	}
	d.launches = sim2.EngineStats().Launched
	recorded := make(map[int64]bool, len(d.snap.Completed))
	for _, id := range d.snap.CompletedIDs() {
		recorded[id] = true
	}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.TaskStarted && recorded[ev.Task] {
			d.startedAgain++
		}
	}
	return d, nil
}
