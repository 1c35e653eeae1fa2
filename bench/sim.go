package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// smallOpSeconds is how long a sim workload spends timing 1/100-size
// campaigns for op_p50_us, and smallOpMin the fewest it times.
const (
	smallOpSeconds = 2.5
	smallOpMin     = 15
)

// campaign is one infra.New + Sim.Run with its cost split by phase. The
// simulation itself is dropped when the run ends, so that finished campaigns
// do not sit in the heap of the next one.
type campaign struct {
	res       infra.Result
	err       error
	newWall   time.Duration
	runWall   time.Duration
	newAllocs uint64
	runAllocs uint64
	transfers int // engine.Stats.Transfers: planned input fetches
}

// runCampaign builds and runs one simulation. With a span recorder it also
// records the two calls as spans and splits the allocation count by phase.
func runCampaign(sp *spanRec, parent int, cfg infra.Config, specs []infra.TaskSpec) campaign {
	var c campaign
	var m0, m1, m2 runtime.MemStats
	if sp != nil {
		runtime.ReadMemStats(&m0)
	}
	id := sp.begin("infra.New", parent)
	t0 := time.Now()
	sim, err := infra.New(cfg, specs)
	c.newWall, c.err = time.Since(t0), err
	sp.end(id)
	if c.err != nil {
		return c
	}
	if sp != nil {
		runtime.ReadMemStats(&m1)
	}
	id = sp.begin("Sim.Run", parent)
	t0 = time.Now()
	c.res, c.err = sim.Run()
	c.runWall = time.Since(t0)
	sp.end(id)
	c.transfers = sim.EngineStats().Transfers
	if sp != nil {
		runtime.ReadMemStats(&m2)
		c.newAllocs = m1.Mallocs - m0.Mallocs
		c.runAllocs = m2.Mallocs - m1.Mallocs
	}
	return c
}

// simDigest is what must not move when a change only makes the simulator
// faster: the simulated outcome of one seed.
func simDigest(r infra.Result, traceEvents int) string {
	return fmt.Sprintf("makespan=%d moved=%d edges=%d events=%d", r.Makespan, r.BytesMoved, r.DepEdges.Total(), traceEvents)
}

// simRep is one timed repetition of a sim workload.
type simRep struct {
	sec    section
	digest string
	last   campaign // the (final) campaign of the repetition
}

// simResults turns the timed repetitions into the shared end-to-end metrics
// and checks that every repetition simulated the same outcome.
func (b *bench) simResults(reps []simRep, tasks int) {
	var perS, allocs, bytes, cost []float64
	for i, r := range reps {
		cost = append(cost, r.sec.wall.Seconds())
		if !b.endToEndSample(i) {
			continue
		}
		perS = append(perS, float64(tasks)/r.sec.wall.Seconds())
		allocs = append(allocs, float64(r.sec.mallocs)/float64(tasks))
		bytes = append(bytes, float64(r.sec.bytes)/float64(tasks))
	}
	b.setMedian("tasks_per_s", perS)
	b.setMedian("allocs_per_task", allocs)
	b.setMedian("bytes_per_task", bytes)
	for _, r := range reps[1:] {
		b.check(r.digest == reps[0].digest, "simulated outcome differs between repetitions: %q vs %q", r.digest, reps[0].digest)
	}
	last := reps[len(reps)-1].last.res
	b.set("infra.sim_makespan_s", last.Makespan.Seconds())
	b.set("infra.sim_moved_gb", float64(last.BytesMoved)/1e9)
	b.note("sim_utilization", last.Utilization)
	b.setTraceOverhead(cost, true)
	if b.trace {
		c := reps[tracedArm].last
		b.set("infra.new_s", c.newWall.Seconds())
		b.set("infra.run_s", c.runWall.Seconds())
		b.set("infra.new_allocs_per_task", float64(c.newAllocs)/float64(tasks))
		b.set("infra.run_allocs_per_task", float64(c.runAllocs)/float64(tasks))
	}
}

// smallOps times 1/100-size campaigns one by one: the latency of one point of
// a parameter sweep, where fixed costs weigh more than at full size. It runs
// before the full-size repetitions, on a heap that holds the generated specs
// and nothing else; after them the same campaigns read 20 or 60 ms depending
// on what the collector and the scavenger last did with a gigabyte of garbage.
func (b *bench) smallOps(run func() error) {
	var lat []time.Duration
	start := time.Now()
	for len(lat) < smallOpMin || time.Since(start).Seconds() < smallOpSeconds*b.scale {
		t0 := time.Now()
		err := run()
		lat = append(lat, time.Since(t0))
		b.check(err == nil, "small campaign: %v", err)
		if !b.full() && len(lat) >= 3 {
			break
		}
	}
	b.setMedian("op_p50_us", durationsUS(lat))
	b.note("op_samples", float64(len(lat)))
}

// checkCompleted asserts that a finished campaign ran every task exactly once.
func (b *bench) checkCompleted(c campaign, tasks int) {
	b.attempt(tasks)
	if c.err != nil {
		b.failf(tasks, "campaign failed: %v", c.err)
		return
	}
	b.failf(abs(tasks-c.res.TasksCompleted)+c.res.TasksFailed+c.res.TasksReExecuted,
		"completed %d of %d tasks (%d failed, %d re-executed)", c.res.TasksCompleted, tasks, c.res.TasksFailed, c.res.TasksReExecuted)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// --- sim-wide ---------------------------------------------------------------

func wideConfig(reg *obsv.Registry) infra.Config {
	return infra.Config{
		Pool:    widePool(wideNodes),
		Net:     simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:  sched.MinLoad{},
		Metrics: reg,
	}
}

func runSimWide(b *bench) {
	n := scaled(wideTasks, b.scale, 600)
	var specs, small []infra.TaskSpec
	b.setUp(func() {
		specs = wideSpecs(b.seed, n)
		small = specs[:scaled(n, 0.01, 60)]
		// Independent tasks: a prefix is a valid workload of its own.
		b.checkCompleted(runCampaign(nil, 0, wideConfig(nil), specs[:n/10]), n/10)
	})

	b.smallOps(func() error { return runCampaign(nil, 0, wideConfig(nil), small).err })

	var reps []simRep
	var reg *obsv.Registry
	b.repeat(func(rep int) {
		sp := b.armSpans(rep)
		reg = registryFor(sp)
		cfg := wideConfig(reg)
		var r simRep
		root := sp.begin("rep", 0)
		r.sec = timeSection(func() { r.last = runCampaign(sp, root, cfg, specs) })
		sp.end(root)
		b.checkCompleted(r.last, n)
		r.digest = simDigest(r.last.res, 0)
		reps = append(reps, r)
	})
	b.simResults(reps, n)

	if b.trace {
		l := newLayers(b, n)
		l.engine(engineReplay{specs: specs, pool: func() *resources.Pool { return widePool(wideNodes) }, policy: sched.MinLoad{}})
		l.resources(widePool(wideNodes), specs)
		l.schedMinLoad(widePool(wideNodes), specs)
		l.simclock(specs, n, widePool(wideNodes).TotalCores()/2)
		l.obsv()
		l.counts(reg, reps[tracedArm].last)
		l.attribute(reps[tracedArm].sec.wall)
	}
}

// --- sim-dataflow -----------------------------------------------------------

func stencilConfig(st stencil, policy sched.Policy, tr *trace.Tracer, reg *obsv.Registry) infra.Config {
	return infra.Config{
		Pool:         stencilPool(),
		Net:          stencilNet(),
		Policy:       policy,
		Tracer:       tr,
		StageIn:      st.stageIn,
		StageInNodes: st.stageInNodes,
		Metrics:      reg,
	}
}

// checkStencilShape asserts the preconditions that make the stencil worth
// timing: the obvious generators are degenerate (an in-place stencil is one
// chain; Locality over unsized, unstaged data piles everything on one node).
func (b *bench) checkStencilShape(st stencil, res infra.Result) {
	want := st.iters
	if st.iters%reduceEvery == 0 {
		want++ // the reduce that hangs off the last iteration
	}
	got := criticalPath(st.specs)
	b.check(got == want, "stencil critical path is %d tasks, want %d (iterations + trailing reduce): the DAG has serialised", got, want)
	b.check(res.BytesMoved > 0, "stencil moved no bytes: placement has collapsed onto the data's node")
	if b.full() {
		b.check(res.Utilization > 0.5, "stencil utilisation %.3f, want > 0.5", res.Utilization)
	}
}

func runSimDataflow(b *bench) {
	iters := scaled(dataflowIters, b.scale, 2)
	var st, small stencil
	b.setUp(func() {
		st = stencilSpecs(b.seed, stencilCells, iters)
		small = stencilSpecs(b.seed, stencilCells, scaled(iters, 0.01, 2))
		warm := stencilSpecs(b.seed, stencilCells, scaled(iters, 0.1, 2))
		c := runCampaign(nil, 0, stencilConfig(warm, sched.Locality{}, trace.New(0), nil), warm.specs)
		b.checkCompleted(c, len(warm.specs))
	})
	n := len(st.specs)
	b.smallOps(func() error {
		return runCampaign(nil, 0, stencilConfig(small, sched.Locality{}, trace.New(0), nil), small.specs).err
	})

	var reps []simRep
	var reg *obsv.Registry
	var tr *trace.Tracer
	b.repeat(func(rep int) {
		sp := b.armSpans(rep)
		reg = registryFor(sp)
		tr = trace.New(0)
		cfg := stencilConfig(st, sched.Locality{}, tr, reg)
		var r simRep
		root := sp.begin("rep", 0)
		r.sec = timeSection(func() { r.last = runCampaign(sp, root, cfg, st.specs) })
		sp.end(root)
		b.checkCompleted(r.last, n)
		r.digest = simDigest(r.last.res, tr.Count(""))
		if rep == 0 {
			b.checkStencilShape(st, r.last.res)
		}
		reps = append(reps, r)
	})
	b.simResults(reps, n)

	if b.trace {
		l := newLayers(b, n)
		results := l.deps(accessesOf(st.specs))
		l.engine(engineReplay{specs: st.specs, deps: results, st: &st, pool: stencilPool, policy: sched.Locality{}, tracer: true})
		l.resources(stencilPool(), st.specs)
		l.schedLocality(st, results)
		l.transfer(st, results)
		l.simclock(st.specs, n, stencilPool().TotalCores())
		l.trace(tr)
		l.counts(reg, reps[tracedArm].last)
		l.attribute(reps[tracedArm].sec.wall)
	}
}

// --- sim-restart ------------------------------------------------------------

const persistNode = "persist"

// restartRep is the cost split of one crash-restart campaign.
type restartRep struct {
	simRep
	first    campaign
	latest   time.Duration
	restore  time.Duration // Store.Latest + infra.New(Restore)
	restored int
	saves    int64
	mb       float64 // checkpoint bytes on disk after the first phase
}

// crashRestart runs one campaign: checkpointed first phase halted at haltAt,
// then Store.Latest, restore and the run to completion. The caller times it.
func (b *bench) crashRestart(sp *spanRec, st stencil, haltAt time.Duration, reg *obsv.Registry, name string) restartRep {
	var r restartRep
	n := len(st.specs)
	store, err := checkpoint.NewStore(b.scratch(name))
	if err != nil {
		b.failf(n, "checkpoint store: %v", err)
		return r
	}
	ckMet := obsv.NewCkptMetrics(obsv.NewRegistry())
	root := sp.begin("rep", 0)
	defer sp.end(root)

	cfg := stencilConfig(st, sched.MinLoad{}, nil, reg)
	cfg.PersistNode = persistNode
	cfg.HaltAt = haltAt
	cfg.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.Interval(ckptEvery), Delta: true, Metrics: ckMet}
	r.first = runCampaign(sp, root, cfg, st.specs)

	id := sp.begin("Store.Latest", root)
	t0 := time.Now()
	snap, err := store.Latest()
	r.latest = time.Since(t0)
	sp.end(id)
	if err == nil {
		cfg = stencilConfig(st, sched.MinLoad{}, nil, reg)
		cfg.PersistNode = persistNode
		cfg.Restore = snap
		r.last = runCampaign(sp, root, cfg, st.specs)
		r.restore = r.latest + r.last.newWall
	} else {
		r.last.err = fmt.Errorf("no snapshot survived the halt: %w", err)
	}
	r.saves = ckMet.Saves.Value()
	r.mb = float64(dirBytes(store.Dir())) / 1e6

	b.attempt(n)
	switch {
	case !errors.Is(r.first.err, infra.ErrHalted):
		b.failf(n, "first phase: got %v, want ErrHalted", r.first.err)
	case r.last.err != nil:
		b.failf(n, "resumed run: %v", r.last.err)
	default:
		res := r.last.res
		r.restored = res.TasksRestored
		// Restored and re-run tasks must cover the DAG exactly once.
		b.failf(abs(n-res.TasksRestored-res.TasksCompleted)+res.TasksFailed+res.TasksReExecuted,
			"restored %d + re-ran %d of %d tasks (%d failed, %d re-executed)", res.TasksRestored, res.TasksCompleted, n, res.TasksFailed, res.TasksReExecuted)
		b.check(res.TasksRestored > 0, "nothing was restored from the checkpoint")
	}
	r.digest = simDigest(r.last.res, 0) + fmt.Sprintf(" restored=%d saves=%d", r.restored, r.saves)
	return r
}

func runSimRestart(b *bench) {
	iters := scaled(restartIters, b.scale, 6) // enough virtual time for a checkpoint before the halt
	var st, small stencil
	var haltAt, smallHaltAt time.Duration
	probe := func(s stencil) time.Duration {
		cfg := stencilConfig(s, sched.MinLoad{}, nil, nil)
		cfg.PersistNode = persistNode
		c := runCampaign(nil, 0, cfg, s.specs)
		b.checkCompleted(c, len(s.specs))
		return time.Duration(float64(c.res.Makespan) * haltFraction)
	}
	b.setUp(func() {
		st = stencilSpecs(b.seed, stencilCells, iters)
		small = stencilSpecs(b.seed, stencilCells, scaled(iters, 0.04, 4))
		smallHaltAt = probe(small)
		warm := stencilSpecs(b.seed, stencilCells, scaled(iters, 0.1, 4))
		b.crashRestart(nil, warm, probe(warm), nil, "warm")
		// The halt instant is 60% of the uninterrupted makespan, which only
		// an untimed probe run of the full workload can tell.
		haltAt = probe(st)
	})
	n := len(st.specs)
	b.smallOps(func() error {
		r := b.crashRestart(nil, small, smallHaltAt, nil, "small")
		return r.last.err
	})

	var reps []restartRep
	var simReps []simRep
	var reg *obsv.Registry
	b.repeat(func(rep int) {
		sp := b.armSpans(rep)
		reg = registryFor(sp)
		var r restartRep
		sec := timeSection(func() { r = b.crashRestart(sp, st, haltAt, reg, "rep") })
		r.sec = sec
		if rep == 0 && b.full() {
			b.check(r.saves >= 20 && r.saves <= 60, "checkpoint interval gave %d saves before the halt, want 20-60", r.saves)
			b.check(r.last.res.BytesMoved > 0, "restart campaign moved no bytes")
		}
		reps = append(reps, r)
		simReps = append(simReps, r.simRep)
	})
	b.simResults(simReps, n)
	var restore []float64
	for _, r := range reps {
		restore = append(restore, r.restore.Seconds())
	}
	b.setMedian("checkpoint.restore_s", restore)
	b.note("tasks_restored", float64(reps[0].restored))
	b.note("checkpoint_saves", float64(reps[0].saves))
	b.note("checkpoint_mb", reps[0].mb)

	if b.trace {
		traced := reps[tracedArm]
		l := newLayers(b, n)
		results := l.deps(accessesOf(st.specs))
		l.engine(engineReplay{specs: st.specs, deps: results, st: &st, pool: stencilPool, policy: sched.MinLoad{}, checkpoint: true})
		l.resources(stencilPool(), st.specs)
		l.schedMinLoad(stencilPool(), st.specs)
		l.transfer(st, results)
		l.simclock(st.specs, n, stencilPool().TotalCores())
		b.set("checkpoint.latest_s", traced.latest.Seconds())
		b.set("checkpoint.restore_apply_s", traced.last.newWall.Seconds())
		b.set("checkpoint.saves", float64(traced.saves))
		// What the first phase pays for checkpointing: the same halted phase
		// without a store.
		cfg := stencilConfig(st, sched.MinLoad{}, nil, nil)
		cfg.PersistNode = persistNode
		cfg.HaltAt = haltAt
		var bare campaign
		sec := timeSection(func() { bare = runCampaign(nil, 0, cfg, st.specs) })
		b.check(errors.Is(bare.err, infra.ErrHalted), "checkpoint-free first phase: got %v, want ErrHalted", bare.err)
		with := reps[0].first.newWall + reps[0].first.runWall
		b.set("checkpoint.run_overhead_frac", with.Seconds()/sec.wall.Seconds()-1)
		both := traced.last
		both.transfers += traced.first.transfers
		l.counts(reg, both)
		l.registrations = 2
		l.completions = float64(traced.first.res.TasksCompleted + traced.last.res.TasksCompleted)
		// Checkpoint time is measured, not priced: what the first phase paid
		// for capturing and saving, Store.Latest, and what infra.New paid
		// beyond an ordinary registration to apply the snapshot.
		l.extra = with - sec.wall + traced.latest + traced.last.newWall - traced.first.newWall
		l.attribute(traced.sec.wall)
	}
}
