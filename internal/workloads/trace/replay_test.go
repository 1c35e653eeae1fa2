package trace_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	wtrace "repro/internal/workloads/trace"
	latreport "repro/internal/workloads/trace/report"
)

// replayOn replays tr on n 8-core nodes under MinLoad and returns the
// latency report, failing the test on any shortfall.
func replayOn(t *testing.T, tr *wtrace.Trace, n int) latreport.Summary {
	t.Helper()
	pool := resources.NewPool()
	for i := 0; i < n; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("bn%d", i), resources.Description{
			Cores: 8, MemoryMB: 64_000, SpeedFactor: 1, Class: resources.HPC,
		}))
	}
	sim, err := infra.New(infra.Config{
		Pool:   pool,
		Net:    simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.MinLoad{},
	}, tr.Specs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != len(tr.Tasks) {
		t.Fatalf("%d nodes: completed %d of %d tasks", n, res.TasksCompleted, len(tr.Tasks))
	}
	return latreport.Build(sim.Timings(), latreport.MetaOf(tr))
}

// TestBurstyReplaySmoke10k replays a generated 10k-task Poisson-burst
// trace end to end on the simulator and checks the latency report is
// complete and self-consistent. This is the ordinary-suite scale smoke
// for the replay path; -short (the race job) trims it to 2k tasks.
//
// It is also the queue-wait gate. The replay runs on the virtual clock,
// so the percentiles track scheduling decisions, not host speed, and are
// pinned exactly: zero on the roomy pool (capacity is never the limit, so
// any wait is the engine leaving runnable work queued), and the recorded
// p99 on a pool the bursts saturate.
func TestBurstyReplaySmoke10k(t *testing.T) {
	cfg := wtrace.DefaultGen(wtrace.ShapePoissonBurst)
	cfg.Tasks = 10_000
	tightNodes, tightP99 := 12, "138841.506"
	if testing.Short() {
		cfg.Tasks = 2_000
		tightNodes, tightP99 = 4, "37637.806"
	}
	cfg.Seed = 42
	tr, err := wtrace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sum := replayOn(t, tr, 32)
	if sum.Completed != len(tr.Tasks) {
		t.Fatalf("latency report covers %d tasks, want %d", sum.Completed, len(tr.Tasks))
	}
	if sum.QueueWait.Count != len(tr.Tasks) || sum.QueueWait.P50 < 0 || sum.QueueWait.P99 < sum.QueueWait.P50 {
		t.Fatalf("queue wait distribution malformed: %+v", sum.QueueWait)
	}
	// End-to-end includes execution, so it dominates queue wait, and the
	// makespan covers at least the trace's arrival span.
	if sum.EndToEnd.P50 < float64(cfg.MeanDur)/float64(time.Millisecond)/10 {
		t.Fatalf("end-to-end p50 %.1fms implausibly small for mean duration %v", sum.EndToEnd.P50, cfg.MeanDur)
	}
	if span := float64(tr.Span()) / float64(time.Millisecond); sum.MakespanMS < span {
		t.Fatalf("makespan %.1fms below the trace arrival span %.1fms", sum.MakespanMS, span)
	}
	if len(sum.Tenants) != cfg.Tenants {
		t.Fatalf("report has %d tenants, want %d", len(sum.Tenants), cfg.Tenants)
	}
	var tenantTasks int
	for _, ts := range sum.Tenants {
		tenantTasks += ts.Tasks
	}
	if tenantTasks != len(tr.Tasks) {
		t.Fatalf("tenant sections cover %d tasks, want %d", tenantTasks, len(tr.Tasks))
	}
	if sum.QueueWait.Max != 0 {
		t.Fatalf("runnable work waited with idle capacity: queue wait %+v", sum.QueueWait)
	}
	tight := replayOn(t, tr, tightNodes)
	if got := fmt.Sprintf("%.3f", tight.QueueWait.P99); got != tightP99 {
		t.Fatalf("queue wait p99 on %d nodes = %sms, want %sms (distribution %+v)",
			tightNodes, got, tightP99, tight.QueueWait)
	}
	t.Logf("replayed %d tasks: makespan %.1fs; queue wait p99 on %d nodes %sms",
		len(tr.Tasks), sum.MakespanMS/1000, tightNodes, tightP99)
}
