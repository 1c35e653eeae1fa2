// Command flowgo-sim runs a workload on the computing-continuum simulator
// from the command line: pick a workload, a pool shape and a scheduling
// policy, get makespan / transfers / energy / utilisation and latency
// percentiles back. This is the exploration tool behind the experiment
// tables.
//
// Examples:
//
//	flowgo-sim -workload gwas -nodes 16 -policy locality
//	flowgo-sim -workload nmmb -nodes 8 -policy eft
//	flowgo-sim -workload mix -tasks 200 -nodes 4 -node-type fog -policy energy
//	flowgo-sim -workload gwas -nodes 8 -faults "crash@2m:hpc001,slow@3m:hpc002x2"
//	flowgo-sim -workload skew -nodes 8 -node-type fog -policy wait-fast -steal on-idle
//
// Trace replay: a generated temporal shape (poisson-burst | diurnal |
// heavy-tail), or a trace file named as trace:<path>, released at its
// recorded arrival offsets:
//
//	flowgo-sim -workload diurnal -tasks 2000 -nodes 16 -trace-out /tmp/diurnal.trace
//	flowgo-sim -workload trace:/tmp/diurnal.trace -nodes 16
//
// Partition-recovery drill (E15): cut the producer tier away from the
// consumer tier, pick how placement handles the unreachable data, heal:
//
//	flowgo-sim -workload partition -tasks 8 -nodes 4 -node-type cloud \
//	  -faults "cut@5s:hpc-cloud,heal@40s:hpc-cloud" -availability defer
//
// Crash-restart drill (E14): checkpoint periodically, simulate the whole
// process dying mid-run, then resume from the latest valid snapshot:
//
//	flowgo-sim -workload gwas -nodes 8 -checkpoint every:25 -checkpoint-dir /tmp/ckpt -halt-at 5m
//	flowgo-sim -workload gwas -nodes 8 -restore /tmp/ckpt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/mlpredict"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workloads"
	wtrace "repro/internal/workloads/trace"
	latreport "repro/internal/workloads/trace/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "flowgo-sim:", err)
		os.Exit(1)
	}
}

// tiers are the node shapes -node-type and -autoscale name, keyed by
// that name, with the price, provisioning delay and size cap -autoscale
// gives an elastic tier of that shape (HPC expensive and slow to
// provision, fog cheap and nearly instant).
var tiers = map[string]autoscale.Tier{
	"hpc":   {Desc: resources.MareNostrumNode, Cost: 6.0, Delay: 2 * time.Minute, Max: 4},
	"cloud": {Desc: resources.CloudVM, Cost: 1.0, Delay: 30 * time.Second, Max: 8},
	"fog":   {Desc: resources.FogDevice, Cost: 0.25, Delay: 5 * time.Second, Max: 16},
}

// sampleEvery is the virtual-clock interval -metrics-out samples at.
const sampleEvery = 10 * time.Second

// run parses args, runs one workload on the simulator and prints its
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flowgo-sim", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "gwas", "gwas | nmmb | mix | mapreduce | stencil | skew | partition, a generated trace poisson-burst | diurnal | heavy-tail, or trace:<path>")
		nodes    = fs.Int("nodes", 4, "pool size")
		nodeType = fs.String("node-type", "hpc", "hpc | cloud | fog")
		policy   = fs.String("policy", "min-load", sched.Names)
		tasks    = fs.Int("tasks", 100, "task count (mix/skew/mapreduce/stencil/partition; a generated trace defaults to 2000)")
		seed     = fs.Int64("seed", 1, "workload seed")
		faultStr = fs.String("faults", "", `fault script: "crash@2s:n0,slow@3s:n1x2,cut@4s:n0-n2,heal@8s:n0-n2,drain@10s:n1"`)
		stealStr = fs.String("steal", "off", "work stealing: off | on-idle | threshold:<n>")
		availStr = fs.String("availability", "run-anyway", "placement with unreachable inputs: run-anyway | defer | recompute")
		ckptStr  = fs.String("checkpoint", "off", "checkpoint policy (delta chains): off | interval:<d> | every:<n> | on-drain")
		ckptDir  = fs.String("checkpoint-dir", "checkpoints", "snapshot directory for -checkpoint")
		restore  = fs.String("restore", "", "resume from the latest valid snapshot in this directory")
		haltAt   = fs.Duration("halt-at", 0, "kill the engine at this virtual instant (simulated process death)")
		pprofDir = fs.String("pprof", "", "write cpu.pprof / heap.pprof / mutex.pprof into this directory")

		autoscaleStr = fs.String("autoscale", "off", `cost-aware autoscaling over elastic tiers: off | "tier[:max],..." with tiers hpc|cloud|fog (e.g. "cloud:4,fog:8")`)
		quota        = fs.Int("quota", 0, "per-tenant max in-flight tasks (admission control; 0 = off)")

		benchOut    = fs.String("bench-out", "", "write the run shape and latency report as JSON to this path")
		traceOut    = fs.String("trace-out", "", "with a generated trace workload: also write the trace to this file")
		timelineOut = fs.String("timeline-out", "", "write a Chrome trace-event JSON timeline (load at ui.perfetto.dev) to this file")
		metricsOut  = fs.String("metrics-out", "", "sample the metrics registry every 10s of virtual time and write the series (deterministic text) to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while the run lasts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *pprofDir != "" {
		stop, err := startProfiles(*pprofDir)
		if err != nil {
			return err
		}
		defer stop()
	}

	script, err := faults.Parse(*faultStr)
	if err != nil {
		return err
	}
	steal, err := parseSteal(*stealStr)
	if err != nil {
		return err
	}
	avail, err := engine.ParseAvailability(*availStr)
	if err != nil {
		return err
	}
	ckptPolicy, err := checkpoint.ParsePolicy(*ckptStr)
	if err != nil {
		return err
	}
	pol, err := sched.ByName(*policy)
	if err != nil {
		return err
	}
	tier, ok := tiers[*nodeType]
	if !ok {
		return fmt.Errorf("unknown node type %q", *nodeType)
	}

	// The workload: a built-in generator, or a trace whose arrival
	// offsets become spec Release instants and whose tenant tags the
	// latency report joins.
	cfg := infra.Config{
		Policy: pol, Faults: script, Steal: steal, Availability: avail, HaltAt: *haltAt,
	}
	var specs []infra.TaskSpec
	var tr *wtrace.Trace
	generated := false
	switch *workload {
	case "gwas":
		g := workloads.DefaultGWAS()
		g.Seed = *seed
		specs, cfg.StageIn = workloads.GWAS(g)
	case "nmmb":
		n := workloads.DefaultNMMB()
		n.ParallelInit = true
		specs = workloads.NMMB(n)
	case "mix":
		specs = workloads.HeterogeneousMix(*tasks, *seed)
	case "mapreduce":
		specs = workloads.MapReduce(*tasks, *tasks/8+1, 30*time.Second, time.Minute, 50e6)
	case "stencil":
		specs = workloads.IterativeStencil(10, *tasks/10+1, 20*time.Second)
	case "skew":
		// Long tasks first, shorts behind them in the same bucket: the
		// work-stealing demonstration workload (pair with a heterogeneous
		// pool, -policy wait-fast and -steal on-idle).
		specs = workloads.SkewedTiers(*tasks/20+1, *tasks, 100*time.Second, 5*time.Second)
	case "partition":
		// Producer on one tier, consumers pinned to another, released
		// after a scripted cut: the availability demonstration workload
		// (pair with -faults "cut@...:hpc-cloud,heal@...:hpc-cloud" and
		// -availability defer|recompute; the a-src0 producer node is
		// prepended below — set -node-type cloud for the consumer fleet).
		specs = workloads.PartitionPipeline(*tasks, 2*time.Second, 5*time.Second, 50e6, 10*time.Second)
	case wtrace.ShapePoissonBurst, wtrace.ShapeDiurnal, wtrace.ShapeHeavyTail:
		gen := wtrace.DefaultGen(*workload)
		gen.Seed = *seed
		if set["tasks"] {
			gen.Tasks = *tasks
		}
		if tr, err = wtrace.Generate(gen); err != nil {
			return err
		}
		generated = true
	default:
		path, ok := strings.CutPrefix(*workload, "trace:")
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		if tr, err = wtrace.Load(path); err != nil {
			return err
		}
	}
	var meta map[int64]latreport.TraceMeta
	if tr != nil {
		specs = tr.Specs()
		meta = latreport.MetaOf(tr)
	}
	if *traceOut != "" {
		if !generated {
			return fmt.Errorf("-trace-out needs a generated trace workload, not %q", *workload)
		}
		if err := tr.Save(*traceOut); err != nil {
			return err
		}
	}

	pool := resources.NewPool()
	poolDesc := fmt.Sprintf("%d × %s", *nodes, *nodeType)
	if *workload == "skew" && *nodeType != "hpc" {
		// The skew demo needs a fast tier for its long tasks: one
		// reference-speed node ahead of the slow fleet.
		if err := pool.Add(resources.NewNode("fast000", resources.Description{
			Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
		})); err != nil {
			return err
		}
		poolDesc = "1 × fast + " + poolDesc
	}
	if *workload == "partition" {
		// The partition demo needs a producer tier the consumers can be
		// cut away from: one HPC node named to win MinLoad's idle-pool
		// name tie-break, so the producer (and its output replica) lands
		// on it.
		if err := pool.Add(resources.NewNode("a-src0", resources.Description{
			Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
		})); err != nil {
			return err
		}
		poolDesc = "1 × a-src0 + " + poolDesc
	}
	for i := 0; i < *nodes; i++ {
		if err := pool.Add(resources.NewNode(fmt.Sprintf("%s%03d", *nodeType, i), tier.Desc)); err != nil {
			return err
		}
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	cfg.Pool, cfg.Net = pool, net

	var ckptStore *checkpoint.Store
	if ckptPolicy.Mode != checkpoint.ModeOff {
		if ckptStore, err = checkpoint.NewStore(*ckptDir); err != nil {
			return err
		}
		cfg.Checkpoint = &checkpoint.Config{Store: ckptStore, Policy: ckptPolicy}
	}
	if *restore != "" {
		store, err := checkpoint.NewStore(*restore)
		if err != nil {
			return err
		}
		if cfg.Restore, err = store.Latest(); err != nil {
			return err
		}
	}
	if *policy == "ml" {
		cfg.Predictor = mlpredict.NewPredictor(10 * time.Second)
	}
	var tracer *trace.Tracer
	if *timelineOut != "" {
		tracer = trace.New(0)
		cfg.Tracer = tracer
	}
	// One registry feeds both the live /metrics endpoint and the
	// virtual-clock sampler, whose series is deterministic run-to-run
	// (checkpoint capture wall time excepted).
	if *metricsAddr != "" || *metricsOut != "" {
		cfg.Metrics = obsv.NewRegistry()
	}
	if *metricsOut != "" {
		cfg.SampleEvery = sampleEvery
	}
	if *metricsAddr != "" {
		bound, shutdown, err := obsv.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
	}
	// Cost-aware autoscaling over elastic tiers, and per-tenant admission.
	if *autoscaleStr != "" && *autoscaleStr != "off" {
		scaler, err := parseAutoscale(*autoscaleStr)
		if err != nil {
			return err
		}
		cfg.Autoscale = scaler
	}
	if *quota > 0 {
		cfg.Admission = autoscale.NewAdmission(autoscale.Quota{MaxInFlight: *quota})
	}

	sim, err := infra.New(cfg, specs)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sim.Run()
	// A halt is the crash drill's planned end, unless a checkpoint write
	// failed too: then there is nothing sound to restore from.
	halted := errors.Is(err, infra.ErrHalted) && sim.FlushCheckpoints() == nil
	if err != nil && !halted {
		return err
	}

	if tr != nil {
		fmt.Fprintf(w, "workload:        %s (%d tasks, arrival span %v)\n", *workload, len(specs), tr.Span().Round(time.Second))
	} else {
		fmt.Fprintf(w, "workload:        %s (%d tasks)\n", *workload, len(specs))
	}
	fmt.Fprintf(w, "pool:            %s (%d cores)\n", poolDesc, pool.TotalCores())
	fmt.Fprintf(w, "policy:          %s\n", *policy)
	if steal.Mode != engine.StealOff {
		fmt.Fprintf(w, "work stealing:   %s (%d stolen)\n", *stealStr, sim.EngineStats().Steals)
	}
	if len(script) > 0 {
		fmt.Fprintf(w, "faults:          %d scripted, %d tasks killed, %d re-executions\n",
			len(script), res.TasksFailed, res.TasksReExecuted)
	}
	if avail != engine.AvailRunAnyway || res.TasksRanMissing > 0 {
		fmt.Fprintf(w, "availability:    %s (%d deferred, %d ran-missing)\n",
			avail, res.TasksDeferred, res.TasksRanMissing)
	}
	if ckptStore != nil {
		fmt.Fprintf(w, "checkpoints:     %s → %s (%d on disk)\n",
			ckptPolicy, ckptStore.Dir(), len(ckptStore.Snapshots()))
	}
	if cfg.Restore != nil {
		fmt.Fprintf(w, "restored:        %d tasks from snapshot %d (%s)\n",
			res.TasksRestored, cfg.Restore.Seq, *restore)
	}
	if halted {
		fmt.Fprintf(w, "HALTED:          simulated process death at %v — %d/%d tasks completed; resume with -restore\n",
			res.Makespan.Round(time.Second), res.TasksCompleted, len(specs))
	}
	fmt.Fprintf(w, "makespan:        %v (simulated)\n", res.Makespan.Round(time.Second))
	fmt.Fprintf(w, "tasks completed: %d\n", res.TasksCompleted)
	fmt.Fprintf(w, "data moved:      %.2f GB over %v\n", float64(res.BytesMoved)/1e9, res.TransferTime.Round(time.Second))
	fmt.Fprintf(w, "utilisation:     %.1f%%\n", res.Utilization*100)
	fmt.Fprintf(w, "energy:          %.0f J active, %.0f J total\n", float64(res.ActiveEnergy), float64(res.TotalEnergy))
	fmt.Fprintf(w, "dep edges:       %d RAW\n", res.DepEdges.RAW)
	fmt.Fprintf(w, "wall time:       %v\n", time.Since(start).Round(time.Millisecond))
	printScalingSummary(w, cfg)
	latency := latreport.Build(sim.Timings(), meta)
	latency.WriteText(w)

	if *benchOut != "" {
		doc := benchReport{
			Schema: 1, Tasks: len(specs), Nodes: pool.Len(), Policy: *policy,
			SimMakespanSec: res.Makespan.Seconds(), Latency: latency,
		}
		if tr != nil {
			doc.Trace, doc.Shape, doc.Seed = tr.Header.Name, tr.Header.Shape, tr.Header.Seed
		}
		if err := writeFile(*benchOut, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "report:          %s\n", *benchOut)
	}
	if tracer != nil {
		if err := writeFile(*timelineOut, tracer.ExportChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline:        %s (load at https://ui.perfetto.dev)\n", *timelineOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, sim.Sampler().WriteText); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics:         %s\n", *metricsOut)
	}
	return nil
}

// benchReport is the -bench-out JSON (schema 1; the field names are a
// contract): run shape plus the full latency summary (queue-wait
// percentiles, per-tenant makespans) from internal/workloads/trace/report.
// The trace identity fields are empty for a built-in workload.
type benchReport struct {
	Schema         int               `json:"schema"`
	Trace          string            `json:"trace"`
	Shape          string            `json:"shape,omitempty"`
	Seed           int64             `json:"seed,omitempty"`
	Tasks          int               `json:"tasks"`
	Nodes          int               `json:"nodes"`
	Policy         string            `json:"policy"`
	SimMakespanSec float64           `json:"sim_makespan_seconds"`
	Latency        latreport.Summary `json:"latency"`
}

// writeFile creates path, fills it through write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles turns on CPU and mutex profiling and returns the stop
// function that flushes cpu.pprof, mutex.pprof and heap.pprof into dir.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	prev := runtime.SetMutexProfileFraction(5)
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		runtime.SetMutexProfileFraction(prev)
		if f, err := os.Create(filepath.Join(dir, "mutex.pprof")); err == nil {
			pprof.Lookup("mutex").WriteTo(f, 0)
			f.Close()
		}
		runtime.GC()
		if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
			pprof.WriteHeapProfile(f)
			f.Close()
		}
	}, nil
}

// parseAutoscale reads the -autoscale flag: a comma-separated list of
// elastic tiers, each "tier" or "tier:max", and builds the cost-aware
// autoscaler over them with the tiers table's costs and delays.
func parseAutoscale(s string) (*autoscale.Autoscaler, error) {
	var elastic []autoscale.Tier
	for _, part := range strings.Split(s, ",") {
		name, maxStr, bounded := strings.Cut(strings.TrimSpace(part), ":")
		t, ok := tiers[name]
		if !ok {
			return nil, fmt.Errorf("unknown autoscale tier %q (want hpc | cloud | fog)", name)
		}
		if bounded {
			n, err := strconv.Atoi(maxStr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad autoscale tier limit %q", part)
			}
			t.Max = n
		}
		t.Name = name
		elastic = append(elastic, t)
	}
	return autoscale.New(elastic)
}

// printScalingSummary reports what the autoscaler and the admission
// controller did during the run.
func printScalingSummary(w io.Writer, cfg infra.Config) {
	if cfg.Autoscale != nil {
		grow, shrink, hold := 0, 0, 0
		for _, d := range cfg.Autoscale.Decisions() {
			switch {
			case d.Delta > 0:
				grow++
			case d.Delta < 0:
				shrink++
			default:
				hold++
			}
		}
		fmt.Fprintf(w, "autoscale:       %d grow, %d shrink, %d hold decisions\n", grow, shrink, hold)
	}
	if cfg.Admission != nil {
		st := cfg.Admission.Stats()
		fmt.Fprintf(w, "admission:       %d admitted, %d queued, %d released, %d rejected\n",
			st.Admitted, st.Queued, st.Released, st.Rejected)
	}
}

// parseSteal reads the -steal flag: off, on-idle, or threshold:<n>.
func parseSteal(s string) (engine.StealConfig, error) {
	switch {
	case s == "" || s == "off":
		return engine.StealConfig{}, nil
	case s == "on-idle":
		return engine.StealConfig{Mode: engine.StealOnIdle}, nil
	case strings.HasPrefix(s, "threshold:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "threshold:"))
		if err != nil || n < 0 {
			return engine.StealConfig{}, fmt.Errorf("bad steal threshold %q", s)
		}
		return engine.StealConfig{Mode: engine.StealOnIdle, Threshold: n}, nil
	default:
		return engine.StealConfig{}, fmt.Errorf("unknown steal mode %q (want off | on-idle | threshold:<n>)", s)
	}
}
