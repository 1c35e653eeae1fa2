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
	"repro/internal/trace"
	"repro/internal/workloads"
)

// e14CrashRestart runs the drill on a GWAS-shaped workload once per
// checkpoint period: checkpoint every everyN completions, kill the engine
// at half the cold makespan, restore from the latest valid snapshot, and
// account what re-ran. "recomputed" counts snapshotted tasks that
// started again (the durability contract demands zero); "launched"
// counts the resumed run's task launches.
func e14CrashRestart(chromosomes, imputations int, everyNs ...int) (*Table, error) {
	g := workloads.DefaultGWAS()
	g.Chromosomes = chromosomes
	g.ImputationsPerChrom = imputations
	specs, stageIn := workloads.GWAS(g)
	newCfg := func() infra.Config {
		cfg := rig(sched.MinLoad{}, group{"hpc%03d", 8, resources.MareNostrumNode})
		cfg.StageIn = stageIn
		return cfg
	}

	// Cold run: the baseline makespan, and the crash instant.
	cold, err := mustRun(newCfg(), specs)
	if err != nil {
		return nil, err
	}
	crashAt := cold.Makespan / 2
	t := newTable("checkpoint", "tasks", "crash at", "done pre-crash", "restored", "recomputed",
		"cold makespan", "resumed makespan", "launched")
	for _, everyN := range everyNs {
		// Incarnation 1: checkpoints on, crash mid-run. Incarnation 2:
		// restore and finish.
		cfg1 := newCfg()
		cfg1.HaltAt = crashAt
		d, err := crashRestore("E14", cfg1, newCfg(), everyN, specs)
		if err != nil {
			return nil, err
		}
		t.add(text(fmt.Sprintf("every:%d", everyN)), num("%d", len(specs)), dur(time.Second, crashAt),
			num("%d (%d snapshotted)", d.first.TasksCompleted, d.snapshotted),
			num("%d", d.resumed.TasksRestored), num("%d", d.startedAgain),
			dur(time.Second, cold.Makespan), dur(time.Second, d.resumed.Makespan), num("%d", d.launches))
	}
	return t, nil
}

// crashRestored is what a crash-restart drill leaves behind.
type crashRestored struct {
	first, resumed infra.Result
	snapshotted    int // the tasks the restored snapshot records as completed
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
	snap, err := store.Latest()
	if err != nil {
		return d, fmt.Errorf("%s: no snapshot survived the crash: %w", name, err)
	}
	tr := trace.New(0)
	second.Restore, second.Tracer = snap, tr
	sim2, err := infra.New(second, specs)
	if err != nil {
		return d, err
	}
	if d.resumed, err = sim2.Run(); err != nil {
		return d, fmt.Errorf("%s: resumed run: %w", name, err)
	}
	d.launches = sim2.EngineStats().Launched
	recorded := make(map[int64]bool)
	for _, t := range snap.Tasks {
		if t.Restorable() {
			recorded[t.ID] = true
		}
	}
	d.snapshotted = len(recorded)
	for _, ev := range tr.Events() {
		if ev.Kind == trace.TaskStarted && recorded[ev.Task] {
			d.startedAgain++
		}
	}
	return d, nil
}
