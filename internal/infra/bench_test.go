package infra_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// wideKinds and wideSigs give the package-local inner loop of the
// scheduling hot path the shape the ledger's sim-wide workload has: four
// node flavours, a quarter of the pool each (only the first has GPUs), and
// six constraint signatures in a fixed mix — so every Reserve/Release
// notifies several signature sets and a wave has several buckets to
// choose between.
var wideKinds = [4]resources.Description{
	{Cores: 48, MemoryMB: 96_000, GPUs: 2, Class: resources.HPC, SpeedFactor: 1.0},
	{Cores: 32, MemoryMB: 64_000, Class: resources.HPC, SpeedFactor: 0.9},
	{Cores: 16, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 0.8},
	{Cores: 8, MemoryMB: 16_000, Class: resources.Cloud, SpeedFactor: 0.6},
}

var wideSigs = [6]resources.Constraints{
	{}, {Cores: 2}, {Cores: 1, MemoryMB: 2_000}, {Cores: 4, MemoryMB: 8_000},
	{Cores: 8, MemoryMB: 16_000}, {Cores: 2, GPUs: 1},
}

// wideSpecs generates n independent tasks, 30–90 s each, over wideSigs
// (the GPU signature a twentieth of them, the rest spread evenly).
func wideSpecs(n int) []infra.TaskSpec {
	rng := rand.New(rand.NewSource(1))
	specs := make([]infra.TaskSpec, n)
	for i := range specs {
		k := rng.Intn(100) / 19 // 0..4 at 19 % each, 5 (GPU) at 5 %
		specs[i] = infra.TaskSpec{
			ID:          int64(i + 1),
			Class:       fmt.Sprintf("wide.%d", k),
			Duration:    time.Duration(30+rng.Intn(60)) * time.Second,
			Constraints: wideSigs[k],
		}
	}
	return specs
}

// runWide simulates specs on a fresh heterogeneous pool of the given size
// under indexed MinLoad, optionally with the observability layer on.
func runWide(tb testing.TB, specs []infra.TaskSpec, nodes int, metrics bool) {
	pool := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("w%04d", i), wideKinds[i%len(wideKinds)]))
	}
	cfg := infra.Config{Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Policy: sched.MinLoad{}}
	if metrics {
		cfg.Metrics, cfg.SampleEvery = obsv.NewRegistry(), 10*time.Second
	}
	sim, err := infra.New(cfg, specs)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if res.TasksCompleted != len(specs) {
		tb.Fatalf("completed %d of %d", res.TasksCompleted, len(specs))
	}
}

func benchWide(b *testing.B, metrics bool) {
	specs := wideSpecs(50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWide(b, specs, 256, metrics)
	}
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "sim-tasks/s")
}

// BenchmarkSimThroughput measures how many simulated tasks per second the
// discrete-event engine processes — the figure that makes 100-node sweeps
// affordable — on the wide shape above: 50 000 independent tasks, six
// signatures, 256 heterogeneous nodes. `-cpuprofile` on it shows the
// engine ready queue, the index notification path and simclock, the same
// table a profile of the ledger's sim-wide shows.
func BenchmarkSimThroughput(b *testing.B) { benchWide(b, false) }

// BenchmarkSimThroughputMetrics is BenchmarkSimThroughput with the full
// observability layer on: registry-backed engine metrics plus virtual
// sampling at the CLI's default 10s interval. The acceptance bar is < 5%
// regression against the metrics-off figure — instrumentation must stay
// off the hot path (atomic adds on pre-resolved instruments, sampling on
// clock events).
func BenchmarkSimThroughputMetrics(b *testing.B) { benchWide(b, true) }

// TestWideCampaignAllocBudget is the deterministic cost gate on the
// scheduling hot path: a whole campaign — New and Run — of 20 000
// independent tasks over six signatures on 64 nodes may allocate at most
// four objects and wideBytesBudget bytes per task. Per-task records,
// ready queues, placements, completions and clock events are all slab- or
// scratch-backed; what is left is amortised growth. The bytes are the
// task record and the window scratch New registers through: a field
// added to engine.Task, or a whole-graph side array in New, fails here.
func TestWideCampaignAllocBudget(t *testing.T) {
	const wideBytesBudget = 390 // this tree reads 374, the tree before it 545
	specs := wideSpecs(20_000)
	runWide(t, specs[:2_000], 64, false) // warm lazily initialised runtime state
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	runWide(t, specs, 64, false)
	runtime.ReadMemStats(&after)
	perTask := float64(after.Mallocs-before.Mallocs) / float64(len(specs))
	bytesPerTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(specs))
	t.Logf("wide campaign: %.2f allocations and %.0f bytes per task (budgets 4.0 and %d)", perTask, bytesPerTask, wideBytesBudget)
	if perTask > 4.0 {
		t.Fatalf("%.2f allocations per task, budget 4.0", perTask)
	}
	if bytesPerTask > wideBytesBudget {
		t.Fatalf("%.0f bytes per task, budget %d", bytesPerTask, wideBytesBudget)
	}
}

// stencilSpecs generates the ledger's sim-dataflow shape at package-test
// size: a double-buffered periodic stencil — cell i of iteration t reads
// cells i-1, i, i+1 of one buffer and overwrites cell i of the other —
// with sized outputs and the first buffer staged in round-robin, so
// every task carries three reads and a write through deps, the engine,
// the registry and the transfer planner.
func stencilSpecs(cells, iters, nodes int) ([]infra.TaskSpec, map[deps.DataID]int64, map[deps.DataID][]string) {
	buf := func(b, i int) deps.DataID { return deps.DataID(1 + b*cells + (i+cells)%cells) }
	stageIn := make(map[deps.DataID]int64, cells)
	holders := make(map[deps.DataID][]string, cells)
	for i := 0; i < cells; i++ {
		stageIn[buf(0, i)] = int64(1+i%8) * 1_000_000
		holders[buf(0, i)] = []string{fmt.Sprintf("s%03d", i%nodes)}
	}
	specs := make([]infra.TaskSpec, 0, cells*iters)
	for t := 0; t < iters; t++ {
		src, dst := t%2, (t+1)%2
		for i := 0; i < cells; i++ {
			out := buf(dst, i)
			specs = append(specs, infra.TaskSpec{
				ID:       int64(len(specs) + 1),
				Class:    "stencil.cell",
				Duration: time.Duration(80+(i*7+t*13)%80) * time.Second,
				Accesses: []deps.Access{
					{Data: buf(src, i-1), Dir: deps.In},
					{Data: buf(src, i), Dir: deps.In},
					{Data: buf(src, i+1), Dir: deps.In},
					{Data: out, Dir: deps.Out},
				},
				OutputBytes: map[deps.DataID]int64{out: int64(1+i%8) * 1_000_000},
			})
		}
	}
	return specs, stageIn, holders
}

// runStencil simulates a stencilSpecs campaign on nodes fresh nodes under
// Locality, each with a core per resident cell, tracing into tr (nil for
// none).
func runStencil(tb testing.TB, specs []infra.TaskSpec, stageIn map[deps.DataID]int64, holders map[deps.DataID][]string, cells, nodes int, tr *trace.Tracer) {
	pool := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("s%03d", i), resources.Description{
			Cores: cells / nodes, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 1,
		}))
	}
	sim, err := infra.New(infra.Config{
		Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000, Latency: time.Millisecond}),
		Policy: sched.Locality{}, StageIn: stageIn, StageInNodes: holders, Tracer: tr,
	}, specs)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if res.TasksCompleted != len(specs) {
		tb.Fatalf("completed %d of %d", res.TasksCompleted, len(specs))
	}
}

// campaignCost runs run once and returns what it allocated per task:
// objects and bytes.
func campaignCost(tasks int, run func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(tasks), float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks)
}

// TestStencilCampaignAllocBudget is the deterministic cost gate on the
// data path: New and Run of a 128-cell × 80-iteration stencil on 16
// nodes under Locality. Registration builds the graph in slabs — a
// window's Reads, Writes, Deps and dependents lists are carved from a few
// arrays, a version's first holder list is its node's shared one — and
// the run reads one catalog row per input and keeps its ready queue's
// array, so what is left is under one allocation per task. A list per
// task, per edge or per version coming back anywhere between deps and the
// registry fails here.
func TestStencilCampaignAllocBudget(t *testing.T) {
	const cells, iters, nodes = 128, 80, 16
	const budget = 1.5 // this tree reads 0.63, the tree before it 14.7
	specs, stageIn, holders := stencilSpecs(cells, iters, nodes)
	runStencil(t, specs[:4*cells], stageIn, holders, cells, nodes, nil) // warm lazily initialised runtime state
	perTask, _ := campaignCost(len(specs), func() { runStencil(t, specs, stageIn, holders, cells, nodes, nil) })
	t.Logf("%.2f allocations per task", perTask)
	if perTask > budget {
		t.Fatalf("%.2f allocations per task, budget %.1f", perTask, budget)
	}
}

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// TestTracedStencilAllocBudget is the same campaign with a tracer on, the
// shape of the ledger's sim-dataflow: what tracing adds per task is its
// events' share of the tracer's fixed pages. A tracer that grows one
// array by copying, or an event that formats a string when it is
// recorded, fails here.
func TestTracedStencilAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const cells, iters, nodes = 128, 80, 16
	// This tree reads 0.61 and 834, the tree before it 0.87 and 1473.
	const allocsBudget, bytesBudget = 0.64, 876
	specs, stageIn, holders := stencilSpecs(cells, iters, nodes)
	runStencil(t, specs[:4*cells], stageIn, holders, cells, nodes, trace.New(0)) // warm lazily initialised runtime state
	perTask, bytesPerTask := campaignCost(len(specs), func() {
		runStencil(t, specs, stageIn, holders, cells, nodes, trace.New(0))
	})
	t.Logf("traced stencil campaign: %.2f allocations and %.0f bytes per task (budgets %.2f and %d)", perTask, bytesPerTask, allocsBudget, bytesBudget)
	if perTask > allocsBudget {
		t.Fatalf("%.2f allocations per task, budget %.2f", perTask, allocsBudget)
	}
	if bytesPerTask > bytesBudget {
		t.Fatalf("%.0f bytes per task, budget %d", bytesPerTask, bytesBudget)
	}
}

// TestCheckpointWriteBudget is the deterministic cost gate on what a
// checkpointed campaign writes, the restart shape of the ledger's
// sim-restart: a 128-cell × 40-iteration stencil on 16 nodes under
// Locality with a save every 200 virtual seconds and nothing pruned. Per
// task it may write at most the records and bytes the tree before the
// checkpoint log wrote (bases plus one coalesced record per changed task
// or catalog row per save), and each save commits with one sync. A group
// written as logged, uncoalesced, writes several records per task and
// fails here.
func TestCheckpointWriteBudget(t *testing.T) {
	const cells, iters, nodes = 128, 40, 16
	// The tree before the log read 8.40 records and 97.47 bytes per task.
	const recordsBudget, bytesBudget = 8.40, 97.5
	specs, stageIn, holders := stencilSpecs(cells, iters, nodes)
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("s%03d", i), resources.Description{
			Cores: cells / nodes, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 1,
		}))
	}
	met := obsv.NewCkptMetrics(obsv.NewRegistry())
	sim, err := infra.New(infra.Config{
		Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000, Latency: time.Millisecond}),
		Policy: sched.Locality{}, StageIn: stageIn, StageInNodes: holders,
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.Interval(200 * time.Second), Metrics: met},
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	n, saves := float64(len(specs)), float64(met.Saves.Value())
	records, bytes := float64(met.RecordsWritten.Value())/n, float64(met.BytesWritten.Value())/n
	syncs := float64(met.Syncs.Value()) / saves
	t.Logf("checkpointed campaign: %.0f saves, %.2f records and %.2f bytes written per task, %.2f syncs per save (budgets %.2f, %.1f and 1)",
		saves, records, bytes, syncs, recordsBudget, bytesBudget)
	if saves < 20 {
		t.Fatalf("%.0f saves, want 20 or more: the interval no longer checkpoints the campaign", saves)
	}
	if records > recordsBudget || bytes > bytesBudget || syncs != 1 {
		t.Fatalf("%.2f records, %.2f bytes per task, %.2f syncs per save: over budget", records, bytes, syncs)
	}
}
