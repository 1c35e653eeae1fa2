package engine_test

// Work-stealing macro benchmark: the SkewedTiers workload on a
// heterogeneous pool, run through the virtual-time simulator with the
// steal knob off and on. The committed regression test asserts the
// makespan improvement is real; the benchmark reports the same numbers
// as metrics, an inner loop for working on the steal phase
// (go test -bench=Steal -run '^$' ./internal/engine/).

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workloads"
)

// skewedTierPool builds 1 fast HPC node and 8 slow fog nodes, 4 cores
// each: enough long tasks saturate the fast node and park the bucket
// while the fog tier idles.
func skewedTierPool() *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("hpc0", resources.Description{
		Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
	}))
	for i := 0; i < 8; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("fog%d", i), resources.Description{
			Cores: 4, MemoryMB: 8_000, SpeedFactor: 0.25, Class: resources.Fog,
		}))
	}
	return pool
}

// runSkewed executes the canonical skewed workload (5 long tasks that
// only the fast tier may run, then 400 short tasks) under the given
// steal configuration and returns the simulation result.
func runSkewed(steal engine.StealConfig) (infra.Result, engine.Stats, error) {
	sim, err := infra.New(infra.Config{
		Pool:   skewedTierPool(),
		Net:    simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.WaitFast{Inner: sched.MinLoad{}, MaxSlowdown: 2, MinWait: 10 * time.Second},
		Steal:  steal,
	}, workloads.SkewedTiers(5, 400, 100*time.Second, 5*time.Second))
	if err != nil {
		return infra.Result{}, engine.Stats{}, err
	}
	res, err := sim.Run()
	if err != nil {
		return infra.Result{}, engine.Stats{}, err
	}
	return res, sim.EngineStats(), nil
}

// TestStealImprovesSkewedMakespan is the committed claim behind the
// work-stealing feature: on the skewed workload, stealing-on beats
// stealing-off by a measurable margin (≥ 15% here) because the short
// tail runs on the idle fog tier instead of waiting out the long head.
func TestStealImprovesSkewedMakespan(t *testing.T) {
	off, offStats, err := runSkewed(engine.StealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	on, onStats, err := runSkewed(engine.StealConfig{Mode: engine.StealOnIdle})
	if err != nil {
		t.Fatal(err)
	}
	if offStats.Steals != 0 {
		t.Fatalf("stealing-off stole %d tasks", offStats.Steals)
	}
	if onStats.Steals == 0 {
		t.Fatal("stealing-on never stole")
	}
	if on.TasksCompleted != off.TasksCompleted {
		t.Fatalf("completions diverge: on %d vs off %d", on.TasksCompleted, off.TasksCompleted)
	}
	if float64(on.Makespan) > 0.85*float64(off.Makespan) {
		t.Fatalf("stealing-on makespan %v is not ≥15%% better than off %v", on.Makespan, off.Makespan)
	}
	// Threshold mode steals too once the backlog is deep (400 shorts).
	thr, thrStats, err := runSkewed(engine.StealConfig{Mode: engine.StealThreshold, Threshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	if thrStats.Steals == 0 {
		t.Fatal("threshold mode never stole despite a deep backlog")
	}
	if float64(thr.Makespan) > float64(off.Makespan) {
		t.Fatalf("threshold makespan %v worse than off %v", thr.Makespan, off.Makespan)
	}
}

// BenchmarkStealSkewedMakespan reports simulated makespan and wall-clock
// scheduling throughput for each steal mode on the skewed workload.
func BenchmarkStealSkewedMakespan(b *testing.B) {
	modes := []struct {
		name  string
		steal engine.StealConfig
	}{
		{"off", engine.StealConfig{}},
		{"on-idle", engine.StealConfig{Mode: engine.StealOnIdle}},
		{"threshold-50", engine.StealConfig{Mode: engine.StealThreshold, Threshold: 50}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var last infra.Result
			tasks := 0
			for i := 0; i < b.N; i++ {
				res, st, err := runSkewed(m.steal)
				if err != nil {
					b.Fatal(err)
				}
				last = res
				tasks += res.TasksCompleted
				_ = st
			}
			b.ReportMetric(last.Makespan.Seconds(), "sim-makespan-s")
			b.ReportMetric(float64(tasks)/b.Elapsed().Seconds(), "sim-tasks/s")
		})
	}
}
