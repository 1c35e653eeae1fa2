// Package scalebench is the million-task scale harness: it drives the
// shared scheduling engine (internal/engine) directly over a virtual
// clock, with interval checkpointing on, and measures what the paper's
// continuum story needs to stay true at scale — scheduling throughput,
// per-completion wave latency, and the cost of a checkpoint capture as
// the graph grows. The workload is synthetic but shaped like the real
// campaigns the repo models: Width independent task chains over a large
// heterogeneous-free pool, a handful of constraint signatures (so the
// signature-bucketed ready set is exercised, not bypassed), and one
// modelled data transfer per dependency edge.
//
// The harness runs at the engine level rather than through internal/infra
// so every hot-path cost is attributable: each CompleteSchedule call is
// timed individually (wave latency quantiles), and at every virtual
// checkpoint interval BOTH a full Capture and a CaptureDelta are timed
// back to back against the same engine state — the full capture is
// side-effect-free, so the pair measures exactly the O(tasks) vs
// O(changes) gap the delta subsystem exists to close. The simulation
// loop is single-threaded by design (virtual time), so lock contention
// is measured separately by a concurrent probe (probe.go) hammering the
// sharded registry and dependency processor from GOMAXPROCS goroutines.
//
// Results marshal to BENCH_scale.json; see report.go for the schema and
// docs/ARCHITECTURE.md ("Scale and checkpoint deltas") for how the
// numbers tie back to the design.
package scalebench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

// Config parameterises one scale run. The zero value is not runnable;
// use Default() and override.
type Config struct {
	// Tasks is the total task count.
	Tasks int
	// Nodes is the pool size (8-core nodes).
	Nodes int
	// Width is the number of independent chains (the concurrency the DAG
	// offers; Tasks/Width is the chain length / critical path).
	Width int
	// TaskDuration is the mean virtual compute time per task; actual
	// durations are jittered ±50% (seeded) so completions stagger.
	TaskDuration time.Duration
	// OutputBytes is the size of each task's single output.
	OutputBytes int64
	// Interval is the virtual-time checkpoint interval.
	Interval time.Duration
	// Delta selects delta-chain persistence (base + deltas, compacted
	// every CompactEvery) over a full snapshot per interval. Capture
	// timing measures both regardless; this only chooses what is saved
	// when Dir is set.
	Delta bool
	// CompactEvery bounds the delta chain length (0 ⇒ checkpoint.DefaultCompactEvery).
	CompactEvery int
	// Dir, when non-empty, persists checkpoints to a real Store there and
	// verifies end-state reconstruction with Store.Latest.
	Dir string
	// Keep is the Store retention (0 ⇒ 3).
	Keep int
	// Seed seeds the duration jitter.
	Seed int64
	// MutexProbe, when true, runs the post-run concurrent contention
	// probe (see probe.go).
	MutexProbe bool
	// Metrics, when set, receives engine instruments, and the report
	// gains a sampled time-series section (see Report.Metrics). Sampling
	// runs on the virtual clock every SampleEvery (0 ⇒ Interval), so the
	// series is deterministic for a fixed config and seed.
	Metrics *obsv.Registry
	// SampleEvery is the virtual-time metrics sampling interval.
	SampleEvery time.Duration
	// Progress, when set, receives coarse progress lines.
	Progress func(string)
}

// Default returns the canonical million-task configuration: 1M tasks,
// 10k chains, 1000 nodes, 2-minute virtual checkpoint interval
// (frequent cheap checkpoints are what delta mode buys), delta
// persistence on.
func Default() Config {
	return Config{
		Tasks:        1_000_000,
		Nodes:        1000,
		Width:        10_000,
		TaskDuration: 30 * time.Second,
		OutputBytes:  1 << 20,
		Interval:     2 * time.Minute,
		Delta:        true,
		MutexProbe:   true,
	}
}

// harness is one run's mutable state.
type harness struct {
	cfg   Config
	clock *simclock.Clock
	eng   *engine.Engine
	reg   *transfer.Registry
	store *checkpoint.Store
	smp   *obsv.Sampler

	completed int
	waveNS    []int64 // per-CompleteSchedule wall nanoseconds

	captures    []captureSample
	skipped     int
	bases       int
	deltas      int
	chainLen    int
	haveBase    bool
	compact     int
	captureWall time.Duration
	saveWall    time.Duration
	// measureWall is the slice of captureWall spent on comparison-only
	// captures (the full capture at intervals where only a delta is the
	// real cost, or vice versa in full mode) — benchmarking overhead the
	// configured cadence would never pay.
	measureWall time.Duration
}

// captureSample is one checkpoint interval's timing: the same engine
// state captured fully and incrementally, back to back.
type captureSample struct {
	dirty   int
	full    time.Duration
	delta   time.Duration
	deltaSz int // task records in the delta
}

type executor struct{ h *harness }

// Launch implements engine.Executor: completion becomes a virtual-clock
// event after the modelled transfer and (speed-scaled) compute time.
func (x *executor) Launch(p engine.Placement) {
	d := p.TransferTime + time.Duration(float64(p.Task.EstDuration)*p.SlowFactor/p.Primary().Desc().SpeedFactor)
	id, epoch := p.Task.ID, p.Epoch
	x.h.clock.After(d, func() { x.h.complete(id, epoch) })
}

func (h *harness) complete(id int64, epoch int) {
	t0 := time.Now()
	h.eng.CompleteSchedule(id, epoch, false)
	h.waveNS = append(h.waveNS, time.Since(t0).Nanoseconds())
	h.completed++
}

// tick is the interval checkpoint event: skip when clean, otherwise time
// a full capture and a delta capture against the same state, then
// persist per the configured strategy.
func (h *harness) tick() {
	dirty := h.eng.DirtyCount() + h.reg.DirtyCount()
	if dirty == 0 {
		h.skipped++
	} else {
		t0 := time.Now()
		full := checkpoint.Capture(h.eng, h.reg) // side-effect-free
		fullD := time.Since(t0)
		t1 := time.Now()
		d := checkpoint.CaptureDelta(h.eng, h.reg) // drains the dirty sets
		deltaD := time.Since(t1)
		h.captureWall += fullD + deltaD
		if h.cfg.Delta {
			// The full capture is comparison-only unless this interval
			// persists it as a (new or compacting) base.
			if !(h.store != nil && (!h.haveBase || h.chainLen >= h.compact)) {
				h.measureWall += fullD
			}
		} else {
			h.measureWall += deltaD // full mode times the delta only to compare
		}
		h.captures = append(h.captures, captureSample{
			dirty: dirty, full: fullD, delta: deltaD, deltaSz: len(d.Tasks),
		})
		h.persist(full, d)
		if h.cfg.Progress != nil {
			h.cfg.Progress(fmt.Sprintf("checkpoint %d: %d/%d done, %d dirty, full %v, delta %v",
				len(h.captures), h.completed, h.cfg.Tasks, dirty, fullD.Round(time.Millisecond), deltaD.Round(time.Microsecond)))
		}
	}
	// Re-arm only while the run is alive: completions still pending in the
	// clock mean progress; a tick that finds itself the only event left
	// would re-arm forever over a stalled graph, so it lets the loop drain
	// and Run report the shortfall instead.
	if h.completed < h.cfg.Tasks && h.clock.Pending() > 0 {
		h.clock.After(h.cfg.Interval, h.tick)
	}
}

// persist writes the interval's checkpoint to the store: in delta mode a
// base starts or compacts the chain and deltas extend it; in full mode
// every interval saves the full snapshot. The full capture precedes the
// delta drain, so saving it as a base is always chain-consistent (it
// subsumes everything the drained delta carries).
func (h *harness) persist(full *checkpoint.Snapshot, d *checkpoint.Delta) {
	if h.store == nil {
		return
	}
	t0 := time.Now()
	defer func() { h.saveWall += time.Since(t0) }()
	if !h.cfg.Delta || !h.haveBase || h.chainLen >= h.compact {
		if _, err := h.store.Save(full); err == nil {
			h.haveBase = true
			h.chainLen = 0
			h.bases++
		}
		return
	}
	if _, err := h.store.SaveDelta(d); err == nil {
		h.chainLen++
		h.deltas++
	}
}

// buildWorkload registers the full DAG: Width chains submitted striped
// (task n is position n/Width of chain n%Width) so the ready frontier is
// Width tasks wide from the first wave. Chain c's position-j task reads
// key (c, j) and writes key (c, j+1); cores alternate 1/2/4 by chain so
// the ready set spreads over three signature buckets.
func buildWorkload(cfg Config, eng *engine.Engine, rng *rand.Rand) {
	const batch = 8192
	ts := make([]*engine.Task, 0, batch)
	producers := make([][]deps.TaskID, 0, batch)
	cores := [3]int{1, 2, 4}
	for n := 0; n < cfg.Tasks; n++ {
		chain := n % cfg.Width
		pos := n / cfg.Width
		t := &engine.Task{
			ID:          int64(n + 1),
			Class:       "scale",
			Constraints: resources.Constraints{Cores: cores[chain%3]},
			EstDuration: time.Duration(float64(cfg.TaskDuration) * (0.5 + rng.Float64())),
			OutputKeys:  []transfer.Key{{Data: deps.DataID(chain), Ver: pos + 1}},
		}
		var prod []deps.TaskID
		if pos > 0 {
			t.InputKeys = []transfer.Key{{Data: deps.DataID(chain), Ver: pos}}
			t.InputBytes = cfg.OutputBytes
			prod = []deps.TaskID{deps.TaskID(n + 1 - cfg.Width)}
		}
		ts = append(ts, t)
		producers = append(producers, prod)
		if len(ts) == batch {
			eng.AddBatch(ts, producers)
			ts, producers = ts[:0], producers[:0]
		}
	}
	if len(ts) > 0 {
		eng.AddBatch(ts, producers)
	}
}

// Run executes one scale benchmark and returns its report.
func Run(cfg Config) (*Report, error) {
	if cfg.Tasks <= 0 || cfg.Nodes <= 0 {
		return nil, fmt.Errorf("scalebench: Tasks and Nodes must be positive")
	}
	if cfg.Width <= 0 {
		cfg.Width = cfg.Tasks / 100
		if cfg.Width == 0 {
			cfg.Width = 1
		}
	}
	if cfg.Width > cfg.Tasks {
		cfg.Width = cfg.Tasks
	}
	if cfg.TaskDuration <= 0 {
		cfg.TaskDuration = 30 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	compact := cfg.CompactEvery
	if compact <= 0 {
		compact = checkpoint.DefaultCompactEvery
	}

	pool := resources.NewPool()
	for i := 0; i < cfg.Nodes; i++ {
		if err := pool.Add(resources.NewNode(fmt.Sprintf("node-%04d", i), resources.Description{
			Cores: 8, MemoryMB: 32 << 10, SpeedFactor: 1,
		})); err != nil {
			return nil, err
		}
	}

	h := &harness{
		cfg:     cfg,
		clock:   simclock.New(),
		reg:     transfer.NewRegistry(),
		compact: compact,
		waveNS:  make([]int64, 0, cfg.Tasks),
	}
	if cfg.Dir != "" {
		keep := cfg.Keep
		if keep <= 0 {
			keep = 3
		}
		st, err := checkpoint.NewStore(cfg.Dir, checkpoint.Keep(keep))
		if err != nil {
			return nil, err
		}
		h.store = st
	}
	h.eng = engine.New(engine.Config{
		Pool:     pool,
		Policy:   sched.MinLoad{},
		Clock:    h.clock,
		Executor: &executor{h: h},
		Registry: h.reg,
		Net:      simnet.New(simnet.Link{BandwidthMBps: 1000, Latency: 100 * time.Microsecond}),
		Metrics:  obsv.NewEngineMetrics(cfg.Metrics),
	})
	if cfg.Metrics != nil {
		h.smp = obsv.NewSampler(cfg.Metrics)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	buildStart := time.Now()
	buildWorkload(cfg, h.eng, rng)
	buildWall := time.Since(buildStart)
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("built %d-task DAG (%d chains) in %v", cfg.Tasks, cfg.Width, buildWall.Round(time.Millisecond)))
	}

	runStart := time.Now()
	// Checkpoint the submitted DAG before execution starts: the t=0 base
	// resets the build's dirty records (a million adds), so every interval
	// sample below measures execution churn against a clean graph rather
	// than submission noise, and the first persisted delta chains onto a
	// real base.
	t0 := time.Now()
	base := checkpoint.CaptureBase(h.eng, h.reg)
	h.captureWall += time.Since(t0)
	if h.store != nil {
		t0 = time.Now()
		if _, err := h.store.Save(base); err != nil {
			return nil, err
		}
		h.saveWall += time.Since(t0)
		h.haveBase = true
		h.bases++
	}
	h.clock.After(cfg.Interval, h.tick)
	if h.smp != nil {
		every := cfg.SampleEvery
		if every <= 0 {
			every = cfg.Interval
		}
		// Same re-arm guard as tick: a sampler that re-arms over a stalled
		// graph would keep the event loop alive forever.
		var sampleTick func()
		sampleTick = func() {
			h.smp.Sample(h.clock.Now())
			if h.completed < h.cfg.Tasks && h.clock.Pending() > 0 {
				h.clock.After(every, sampleTick)
			}
		}
		h.clock.After(every, sampleTick)
	}
	h.eng.Schedule()
	h.clock.Run()
	h.smp.Sample(h.clock.Now()) // closing sample at the makespan
	runWall := time.Since(runStart)
	if h.completed != cfg.Tasks {
		return nil, fmt.Errorf("scalebench: run drained with %d/%d tasks completed", h.completed, cfg.Tasks)
	}

	rep := newReport(cfg, h, buildWall, runWall)

	if h.store != nil {
		// Final save so the store's newest chain covers the end state,
		// then verify Latest reconstructs it — the restore half of the
		// scale story, timed.
		finalDelta := checkpoint.CaptureDelta(h.eng, h.reg)
		if h.cfg.Delta && h.haveBase && h.chainLen < h.compact {
			if !finalDelta.Empty() {
				if _, err := h.store.SaveDelta(finalDelta); err == nil {
					h.deltas++
				}
			}
		} else {
			if _, err := h.store.Save(checkpoint.Capture(h.eng, h.reg)); err == nil {
				h.bases++
			}
		}
		t0 := time.Now()
		snap, err := h.store.Latest()
		latestWall := time.Since(t0)
		r := &RestoreReport{LatestMS: msf(latestWall)}
		if err == nil && snap != nil {
			r.Completed = len(snap.Completed)
			r.OK = len(snap.Completed) == cfg.Tasks
		}
		rep.Restore = r
		rep.Checkpoint.Bases = h.bases
		rep.Checkpoint.Deltas = h.deltas
		rep.Checkpoint.DiskBytes = dirBytes(cfg.Dir)
	}

	// Price one placement decision at this pool size, indexed vs the
	// legacy scan, so the report (and the CI smoke diff) tracks the
	// placement-index speedup alongside campaign throughput.
	if cfg.Progress != nil {
		cfg.Progress("measuring placement rate (indexed vs scan)")
	}
	rep.Placement = MeasurePlacement(cfg.Nodes, 50_000)

	if cfg.MutexProbe {
		if cfg.Progress != nil {
			cfg.Progress("running concurrent contention probe")
		}
		rep.Contention = RunMutexProbe(0, 200_000)
	}
	return rep, nil
}

func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, en := range entries {
		if info, err := os.Lstat(filepath.Join(dir, en.Name())); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
