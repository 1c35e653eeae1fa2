package main

// metricDef describes one metric of the ledger. BENCHMARK.json carries the
// same names, units and directions (bench_test.go keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves names the end-to-end metric a per-layer metric is expected to
	// move (written down before measuring; see README).
	Moves string `json:"-"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*bench)
}

// workloads in the order the full ledger runs them.
var workloads = []workloadDef{
	{"sim-wide", "500k independent tasks, 6 signatures, 512 nodes, MinLoad: engine ready queue, placement index and simclock do the work; deps, transfer, trace idle", runSimWide},
	{"sim-dataflow", "Jacobi stencil 1024x200 with reduces, sized data, Locality, tracer on: deps, transfer, trace and the scan placement path carry the run; the index does little", runSimDataflow},
	{"sim-restart", "stencil 1024x100 with delta checkpoints to disk, halted at 60% then restored and finished: the checkpoint layer used both ways in one campaign", runSimRestart},
	{"live-dag", "core.Runtime on the wall clock: 1024 chains x 400 layers via SubmitAll then 20k Submit-Wait round trips: goroutines and lock contention; simclock idle", runLiveDag},
	{"agent-http", "closed-loop callers doing POST /task + poll against one agent: HTTP, JSON and the agent queue; no engine, so the no-change control for engine work", runAgentHTTP},
}

// End-to-end metrics: what a user of each path pays. Every one is measured on
// every workload, with tracing off. The bound is the relative worsening that
// counts as a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tasks_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_task", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "bytes_per_task", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// Per-layer metrics: the -trace pass. A metric that does not apply to a
// workload reads 0 there (the predicted zeros of ISSUE 12). The driver gives
// them no bound; the few that carry one here are judged by -compare.
var perLayer = []metricDef{
	// User-visible figures that exist on some workloads only, so they cannot
	// be gated end to end on all five (see README, "What is gated"). Both
	// passes measure them, and -compare judges them from the untraced runs
	// against ISSUE 12's bounds, which BENCHMARK.json has no place for.
	{Name: "infra.sim_makespan_s", Unit: "s", Better: "lower", Bound: 0.001, Moves: "-"},
	{Name: "infra.sim_moved_gb", Unit: "GB", Better: "lower", Bound: 0.001, Moves: "-"},
	{Name: "checkpoint.restore_s", Unit: "s", Better: "lower", Bound: 0.10, Moves: "tasks_per_s"},
	{Name: "core.submit_wait_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Moves: "op_p50_us"},
	{Name: "core.submit_wait_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Moves: "op_p50_us"},
	{Name: "agent.http_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Moves: "op_p50_us"},
	{Name: "agent.http_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Moves: "op_p50_us"},
	{Name: "agent.http_p999_us", Unit: "us", Better: "lower", Moves: "op_p50_us"},

	{Name: "infra.new_s", Unit: "s", Better: "lower", Moves: "tasks_per_s"},
	{Name: "infra.run_s", Unit: "s", Better: "lower", Moves: "tasks_per_s"},
	{Name: "infra.new_allocs_per_task", Unit: "count", Better: "lower", Moves: "allocs_per_task"},
	{Name: "infra.run_allocs_per_task", Unit: "count", Better: "lower", Moves: "allocs_per_task"},

	{Name: "deps.batch_ns_per_task", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "deps.batch_allocs_per_task", Unit: "count", Better: "lower", Moves: "allocs_per_task"},
	{Name: "deps.batch_bytes_per_task", Unit: "B", Better: "lower", Moves: "bytes_per_task"},
	{Name: "deps.single_ns_per_task", Unit: "ns", Better: "lower", Moves: "op_p50_us"},
	{Name: "deps.edges_per_task", Unit: "count", Better: "lower", Moves: "-"},

	{Name: "engine.add_ns_per_task", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "engine.drain_ns_per_task", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "engine.allocs_per_task", Unit: "count", Better: "lower", Moves: "allocs_per_task"},
	{Name: "engine.bytes_per_task", Unit: "B", Better: "lower", Moves: "bytes_per_task"},
	{Name: "engine.wave_p50_us", Unit: "us", Better: "lower", Moves: "tasks_per_s"},
	{Name: "engine.wave_max_us", Unit: "us", Better: "lower", Moves: "op_p50_us"},
	{Name: "engine.waves_per_task", Unit: "count", Better: "lower", Moves: "tasks_per_s"},
	{Name: "engine.declines_per_task", Unit: "count", Better: "lower", Moves: "tasks_per_s"},

	{Name: "resources.index_pick_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "resources.scan_fitting_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "resources.reserve_release_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "resources.pick_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_task"},

	{Name: "sched.minload_pick_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "sched.locality_pick_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},

	{Name: "transfer.plan_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "transfer.plan_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_task"},
	{Name: "transfer.apply_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "transfer.add_replica_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "transfer.moves_per_task", Unit: "count", Better: "lower", Moves: "-"},

	{Name: "simclock.event_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "simclock.event_allocs", Unit: "count", Better: "lower", Moves: "allocs_per_task"},

	{Name: "trace.record_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "trace.record_bytes", Unit: "B", Better: "lower", Moves: "bytes_per_task"},
	{Name: "trace.events_per_task", Unit: "count", Better: "lower", Moves: "peak_mem_mb"},

	{Name: "checkpoint.capture_base_ns_per_task", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "checkpoint.capture_delta_ns_per_record", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "checkpoint.save_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "tasks_per_s"},
	{Name: "checkpoint.bytes_per_record", Unit: "B", Better: "lower", Moves: "tasks_per_s"},
	{Name: "checkpoint.latest_s", Unit: "s", Better: "lower", Moves: "tasks_per_s"},
	{Name: "checkpoint.restore_apply_s", Unit: "s", Better: "lower", Moves: "tasks_per_s"},
	{Name: "checkpoint.saves", Unit: "count", Better: "lower", Moves: "-"},
	{Name: "checkpoint.run_overhead_frac", Unit: "ratio", Better: "lower", Moves: "tasks_per_s"},

	{Name: "obsv.counter_add_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "obsv.hist_observe_ns", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "obsv.visit_ns", Unit: "ns", Better: "lower", Moves: "-"},
	{Name: "obsv.run_overhead_frac", Unit: "ratio", Better: "lower", Moves: "tasks_per_s"},

	{Name: "core.submitall_ns_per_task", Unit: "ns", Better: "lower", Moves: "tasks_per_s"},
	{Name: "core.submit_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us"},
	{Name: "core.wait_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us"},
	{Name: "core.barrier_s", Unit: "s", Better: "lower", Moves: "tasks_per_s"},
	{Name: "core.queue_wait_p50_us", Unit: "us", Better: "lower", Moves: "tasks_per_s"},
	{Name: "core.queue_wait_p99_us", Unit: "us", Better: "lower", Moves: "op_p50_us"},

	{Name: "agent.submit_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us"},
	{Name: "agent.wait_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us"},
	{Name: "agent.polls_per_req", Unit: "count", Better: "lower", Moves: "op_p50_us"},
	{Name: "agent.runlocal_p50_us", Unit: "us", Better: "lower", Moves: "op_p50_us"},

	{Name: "attrib.share", Unit: "ratio", Better: "higher", Moves: "-"},
	{Name: "attrib.unexplained_s", Unit: "s", Better: "lower", Moves: "-"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "-"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
