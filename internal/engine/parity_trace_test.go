package engine_test

// Trace-replay parity: replaying a workload trace must be byte-for-byte
// deterministic on the simulator (same trace + pool + policy = the
// identical event stream, run after run), and the live replayer must
// drive the runtime to the same completions, dependency wiring and
// transfer books as the simulator replaying the same file.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
	wtrace "repro/internal/workloads/trace"
	latreport "repro/internal/workloads/trace/report"
)

// replayPool builds a small heterogeneous pool for replay runs.
func replayPool() *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < 4; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("rn%d", i), resources.Description{
			Cores: 2, MemoryMB: 16_000, SpeedFactor: 1, Class: resources.HPC,
		}))
	}
	return pool
}

// TestTraceReplayDeterministic: five sim replays of the same generated
// trace produce byte-identical event traces — the property that makes
// trace-driven experiments diffable.
func TestTraceReplayDeterministic(t *testing.T) {
	cfg := wtrace.DefaultGen(wtrace.ShapeDiurnal)
	cfg.Tasks = 400
	cfg.Seed = 11
	cfg.CohortSize = 2
	cfg.CohortDeps = true
	gen, err := wtrace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var baseline []byte
	for run := 0; run < 5; run++ {
		tr := trace.New(0)
		sim, err := infra.New(infra.Config{
			Pool:   replayPool(),
			Net:    simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy: sched.MinLoad{},
			Tracer: tr,
		}, gen.Specs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksCompleted != len(gen.Tasks) {
			t.Fatalf("run %d completed %d/%d", run, res.TasksCompleted, len(gen.Tasks))
		}
		data, err := json.Marshal(tr.Events())
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			baseline = data
			continue
		}
		if !bytes.Equal(baseline, data) {
			t.Fatalf("run %d event trace diverges from run 0", run)
		}
	}
}

// TestTraceReplayLiveParity: the live replayer (cohorts released on a
// wall timer through the batch-submit path) must match the simulator
// replaying the same committed trace — completions, launches, steals,
// transfer books, dependency edges — and stamp a complete set of
// latency milestones.
func TestTraceReplayLiveParity(t *testing.T) {
	ctrace := wtrace.Conformance()
	node := resources.Description{
		Cores: 1, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
	}

	// Sim side: native replay on one single-core node.
	simPool := resources.NewPool()
	_ = simPool.Add(resources.NewNode("pn0", node))
	sim, err := infra.New(infra.Config{
		Pool:   simPool,
		Net:    simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.FIFO{},
	}, ctrace.Specs())
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	simStats := sim.EngineStats()

	// Live side: ReplayLive with time compression on a wall timer.
	livePool := resources.NewPool()
	_ = livePool.Add(resources.NewNode("pn0", node))
	rt := core.New(core.Config{
		Pool:      livePool,
		Policy:    sched.FIFO{},
		Locations: transfer.NewRegistry(),
		Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
	})
	defer rt.Shutdown()
	timer := faults.NewWallTimer()
	defer timer.Stop()
	futs, err := wtrace.ReplayLive(rt, ctrace, wtrace.LiveOptions{Timer: timer, Speedup: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(futs) != len(ctrace.Tasks) {
		t.Fatalf("live replay returned %d futures, want %d", len(futs), len(ctrace.Tasks))
	}
	rt.Barrier()
	liveStats := rt.EngineStats()

	if simRes.TasksCompleted != len(ctrace.Tasks) || liveStats.Completed != simStats.Completed {
		t.Fatalf("completions diverge: sim %d vs live %d (want %d)",
			simStats.Completed, liveStats.Completed, len(ctrace.Tasks))
	}
	if liveStats.Launched != simStats.Launched {
		t.Fatalf("launches diverge: sim %d vs live %d", simStats.Launched, liveStats.Launched)
	}
	if liveStats.Steals != simStats.Steals {
		t.Fatalf("steals diverge: sim %d vs live %d", simStats.Steals, liveStats.Steals)
	}
	if liveStats.Transfers != simStats.Transfers || liveStats.BytesMoved != simStats.BytesMoved {
		t.Fatalf("transfer books diverge: sim %d/%dB vs live %d/%dB",
			simStats.Transfers, simStats.BytesMoved, liveStats.Transfers, liveStats.BytesMoved)
	}
	if simRes.DepEdges != rt.Stats().DepsEdges {
		t.Fatalf("dependency stats diverge: sim %+v vs live %+v", simRes.DepEdges, rt.Stats().DepsEdges)
	}

	// Both backends must have stamped full milestone chains, and the
	// joined per-tenant report must cover every tenant in the trace.
	checkTimings := func(name string, sum latreport.Summary) {
		t.Helper()
		if sum.Completed != len(ctrace.Tasks) {
			t.Fatalf("%s summary covers %d tasks, want %d", name, sum.Completed, len(ctrace.Tasks))
		}
		if want := len(ctrace.Tenants()); len(sum.Tenants) != want {
			t.Fatalf("%s summary has %d tenants, want %d", name, len(sum.Tenants), want)
		}
	}
	checkTimings("sim", latreport.Build(sim.Timings(), latreport.MetaOf(ctrace)))
	checkTimings("live", latreport.Build(rt.Timings(), latreport.MetaOf(ctrace)))
}
