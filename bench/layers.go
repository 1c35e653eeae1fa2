package main

import (
	"container/heap"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Layer replays: the operation stream a workload implies, replayed against
// one layer's public API in isolation. They run warm and un-interleaved, so
// they price a layer's best case; attrib.share says how much of the
// end-to-end wall those prices explain.

// replayOps caps a micro-replay at full size: enough operations for a steady
// ns/op, few enough that the traced pass stays short.
const replayOps = 100_000

// ops scales an operation count with the run's input size.
func (l *layers) ops(n int) int { return scaled(n, l.b.scale, 100) }

// layers collects the replays of one workload and the per-task prices the
// attribution needs.
type layers struct {
	b     *bench
	tasks int

	depsNS  float64 // RegisterBatch, per task
	addNS   float64 // engine AddBatch, per task
	drainNS float64 // engine Schedule/CompleteSchedule, per task
	eventNS float64 // simclock, per event
	waves   float64 // placement waves of the traced end-to-end run

	// What the traced campaign did, for the attribution: how often it
	// registered the DAG, how many tasks it completed, and wall time
	// measured directly rather than as price x count.
	registrations float64
	completions   float64
	extra         time.Duration
}

func newLayers(b *bench, tasks int) *layers {
	return &layers{b: b, tasks: tasks, registrations: 1, completions: float64(tasks)}
}

func accessesOf(specs []infra.TaskSpec) []deps.TaskAccesses {
	batch := make([]deps.TaskAccesses, len(specs))
	for i, s := range specs {
		batch[i] = deps.TaskAccesses{Task: deps.TaskID(s.ID), Accesses: s.Accesses}
	}
	return batch
}

// deps replays the workload's accesses through the access processor: once as
// a batch (how infra.New and SubmitAll register) and once task by task (how
// Submit registers). It returns the batch results for the other replays.
func (l *layers) deps(batch []deps.TaskAccesses) []deps.Result {
	n := len(batch)
	id := l.b.spans.begin("replay.deps.RegisterBatch", 0)
	proc := deps.NewProcessor()
	var results []deps.Result
	c := timeOps(n, func() { results = proc.RegisterBatch(batch) })
	l.b.spans.end(id)
	l.depsNS = c.ns
	l.b.set("deps.batch_ns_per_task", c.ns)
	l.b.set("deps.batch_allocs_per_task", c.allocs)
	l.b.set("deps.batch_bytes_per_task", c.bytes)
	l.b.set("deps.edges_per_task", float64(proc.Stats().Total())/float64(n))

	if n > replayOps {
		batch = batch[:replayOps]
	}
	id = l.b.spans.begin("replay.deps.Register", 0)
	single := deps.NewProcessor()
	c = timeOps(len(batch), func() {
		for _, t := range batch {
			single.Register(t.Task, t.Accesses)
		}
	})
	l.b.spans.end(id)
	l.b.set("deps.single_ns_per_task", c.ns)
	return results
}

// --- engine -----------------------------------------------------------------

// engineReplay describes the stream the engine replay drives.
type engineReplay struct {
	specs      []infra.TaskSpec
	deps       []deps.Result // nil: independent tasks
	st         *stencil      // staged-in data (nil: no data layer)
	pool       func() *resources.Pool
	policy     sched.Policy
	tracer     bool
	checkpoint bool // also price capture and save on the half-drained engine
	instant    bool // complete launches in launch order, ignoring durations (live)
}

// pendingDone is a launched task waiting for its completion instant.
type pendingDone struct {
	at    time.Duration
	seq   int
	id    int64
	epoch int
}

// stubDriver is the engine replay's Clock and Executor in one: launches go
// into a typed heap ordered by completion instant, and the driver loop pops
// them. It allocates nothing per task, so the replay's allocation counts are
// the engine's own.
type stubDriver struct {
	now     time.Duration
	seq     int
	pending doneHeap
	instant bool
}

type doneHeap []pendingDone

func (h doneHeap) Len() int { return len(h) }
func (h doneHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h doneHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *doneHeap) Push(x any)   { *h = append(*h, x.(pendingDone)) }
func (h *doneHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (d *stubDriver) Now() time.Duration { return d.now }

func (d *stubDriver) Launch(p engine.Placement) {
	run := p.TransferTime
	if !d.instant {
		run += time.Duration(float64(p.Task.EstDuration) / p.Primary().Desc().SpeedFactor)
	}
	d.seq++
	d.pending = append(d.pending, pendingDone{at: d.now + run, seq: d.seq, id: p.Task.ID, epoch: p.Epoch})
	if !d.instant {
		heap.Fix(&d.pending, len(d.pending)-1)
	}
}

// next pops the earliest pending completion.
func (d *stubDriver) next() (pendingDone, bool) {
	if len(d.pending) == 0 {
		return pendingDone{}, false
	}
	if d.instant {
		x := d.pending[0]
		d.pending = d.pending[1:]
		return x, true
	}
	// heap.Pop would box the element; swap-shrink-fix does the same without
	// allocating.
	x := d.pending[0]
	last := len(d.pending) - 1
	d.pending[0] = d.pending[last]
	d.pending = d.pending[:last]
	if last > 0 {
		heap.Fix(&d.pending, 0)
	}
	d.now = x.at
	return x, true
}

// engine drives the workload's tasks through a bare engine.Engine — no
// simulator, no runtime — timing AddBatch, Schedule and CompleteSchedule per
// call.
func (l *layers) engine(r engineReplay) {
	b := l.b
	n := len(r.specs)
	drv := &stubDriver{instant: r.instant}
	cfg := engine.Config{Pool: r.pool(), Policy: r.policy, Clock: drv, Executor: drv}
	var reg *transfer.Registry
	if r.st != nil {
		reg = stagedRegistry(*r.st)
		cfg.Registry, cfg.Net = reg, stencilNet()
		cfg.SchedContext = &sched.Context{Registry: reg, Net: cfg.Net}
	}
	if r.tracer {
		cfg.Tracer = trace.New(0)
	}
	if r.checkpoint {
		cfg.PersistNode = persistNode
	}
	eng := engine.New(cfg)

	// The conversion infra.New performs, kept out of the timed calls.
	tasks := make([]*engine.Task, n)
	producers := make([][]deps.TaskID, n)
	for i, s := range r.specs {
		t := &engine.Task{ID: s.ID, Class: s.Class, Constraints: s.Constraints, EstDuration: s.Duration}
		if r.deps != nil {
			res := r.deps[i]
			producers[i] = res.Deps
			for _, v := range res.Reads {
				k := transfer.KeyOf(v)
				t.InputKeys = append(t.InputKeys, k)
				if reg != nil {
					t.InputBytes += reg.Size(k)
				}
			}
			for _, v := range res.Writes {
				k := transfer.KeyOf(v)
				t.OutputKeys = append(t.OutputKeys, k)
				if size, ok := s.OutputBytes[v.Data]; ok && reg != nil {
					reg.SetSize(k, size)
				}
			}
		}
		tasks[i] = t
	}

	var store *checkpoint.Store
	if r.checkpoint {
		store, _ = checkpoint.NewStore(b.scratch("replay"))
	}

	root := b.spans.begin("replay.engine", 0)
	var addWall, drainWall time.Duration
	var ckpt section // capture and save, which are not the engine's own cost
	waves := make([]time.Duration, 0, n+1)
	done := 0
	sec := timeSection(func() {
		const batch = 8192
		id := b.spans.begin("replay.engine.AddBatch", root)
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			t0 := time.Now()
			eng.AddBatch(tasks[lo:hi], producers[lo:hi])
			addWall += time.Since(t0)
		}
		b.spans.end(id)

		id = b.spans.begin("replay.engine.drain", root)
		t0 := time.Now()
		eng.Schedule()
		waves = append(waves, time.Since(t0))
		for {
			x, ok := drv.next()
			if !ok {
				break
			}
			t0 := time.Now()
			eng.CompleteSchedule(x.id, x.epoch, false)
			waves = append(waves, time.Since(t0))
			done++
			// Price capture and save on the half-drained engine: a base,
			// then — one twentieth of the DAG later — the delta since it.
			if store != nil && (done == n/2 || done == n/2+n/20) {
				s := timeSection(func() { l.checkpointReplay(eng, reg, store, done == n/2) })
				ckpt.mallocs += s.mallocs
				ckpt.bytes += s.bytes
			}
		}
		b.spans.end(id)
	})
	b.spans.end(root)
	for _, w := range waves {
		drainWall += w
	}
	b.check(done == n, "engine replay completed %d of %d tasks", done, n)

	l.addNS = float64(addWall.Nanoseconds()) / float64(n)
	l.drainNS = float64(drainWall.Nanoseconds()) / float64(n)
	b.set("engine.add_ns_per_task", l.addNS)
	b.set("engine.drain_ns_per_task", l.drainNS)
	b.set("engine.allocs_per_task", float64(sec.mallocs-ckpt.mallocs)/float64(n))
	b.set("engine.bytes_per_task", float64(sec.bytes-ckpt.bytes)/float64(n))
	us := durationsUS(waves)
	b.set("engine.wave_p50_us", median(us))
	b.set("engine.wave_max_us", quantile(us, 1))
}

// checkpointReplay captures and saves the engine's state: a full base, or
// the delta since the last capture.
func (l *layers) checkpointReplay(eng *engine.Engine, reg *transfer.Registry, store *checkpoint.Store, base bool) {
	b := l.b
	if base {
		var snap *checkpoint.Snapshot
		c := timeOps(l.tasks, func() { snap = checkpoint.CaptureBase(eng, reg) })
		b.set("checkpoint.capture_base_ns_per_task", c.ns)
		if _, err := store.Save(snap); err != nil {
			b.failf(1, "replay Store.Save: %v", err)
		}
		return
	}
	var d *checkpoint.Delta
	c := timeOps(1, func() { d = checkpoint.CaptureDelta(eng, reg) })
	records := float64(len(d.Tasks) + len(d.Catalog))
	b.set("checkpoint.capture_delta_ns_per_record", ratio(c.ns, records))
	before := dirBytes(store.Dir())
	t0 := time.Now()
	_, err := store.SaveDelta(d)
	wall := time.Since(t0)
	if err != nil {
		b.failf(1, "replay Store.SaveDelta: %v", err)
		return
	}
	size := float64(dirBytes(store.Dir()) - before)
	b.set("checkpoint.save_mb_per_s", ratio(size/1e6, wall.Seconds()))
	b.set("checkpoint.bytes_per_record", ratio(size, records))
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// --- resources and sched ----------------------------------------------------

// loadPool reserves the workload's own constraints on the pool until about
// half the cores are busy, so picks walk a load heap in a realistic state
// rather than an idle one.
func loadPool(pool *resources.Pool, specs []infra.TaskSpec) {
	target := pool.TotalCores() / 2
	for i := 0; pool.TotalCores()-pool.FreeCores() < target && i < len(specs); i++ {
		c := specs[i].Constraints
		if node := pool.IndexFor(c).MinLoadFitting(c); node != nil {
			_ = node.Reserve(c)
		}
	}
}

// sampleSpecs returns at most replayOps specs, evenly strided.
func sampleSpecs(specs []infra.TaskSpec) []infra.TaskSpec {
	if len(specs) <= replayOps {
		return specs
	}
	out := make([]infra.TaskSpec, replayOps)
	for i := range out {
		out[i] = specs[i*len(specs)/replayOps]
	}
	return out
}

// resources prices the placement index, the scan it replaced, and the
// reservation round trip, at the workload's pool size and signature mix.
func (l *layers) resources(pool *resources.Pool, specs []infra.TaskSpec) {
	b := l.b
	loadPool(pool, specs)
	sample := sampleSpecs(specs)
	sigs := make([]string, len(sample))
	for i, s := range sample {
		sigs[i] = s.Constraints.Signature()
	}
	picked := make([]*resources.Node, len(sample))

	id := b.spans.begin("replay.resources.MinLoadFitting", 0)
	c := timeOps(len(sample), func() {
		for i, s := range sample {
			picked[i] = pool.IndexForSig(sigs[i], s.Constraints).MinLoadFitting(s.Constraints)
		}
	})
	b.spans.end(id)
	b.set("resources.index_pick_ns", c.ns)
	b.set("resources.pick_allocs", c.allocs)

	id = b.spans.begin("replay.resources.ReserveRelease", 0)
	c = timeOps(len(sample), func() {
		for i, s := range sample {
			if node := picked[i]; node != nil && node.Reserve(s.Constraints) == nil {
				node.Release(s.Constraints)
			}
		}
	})
	b.spans.end(id)
	b.set("resources.reserve_release_ns", c.ns)

	scans := sample[:min(len(sample), replayOps/20)]
	id = b.spans.begin("replay.resources.Fitting", 0)
	c = timeOps(len(scans), func() {
		for _, s := range scans {
			_ = pool.Fitting(s.Constraints)
		}
	})
	b.spans.end(id)
	b.set("resources.scan_fitting_ns", c.ns)
}

func taskView(s infra.TaskSpec) *sched.TaskView {
	return &sched.TaskView{ID: s.ID, Class: s.Class, Constraints: s.Constraints, EstDuration: s.Duration}
}

// schedMinLoad prices the indexed MinLoad pick over the workload's tasks.
func (l *layers) schedMinLoad(pool *resources.Pool, specs []infra.TaskSpec) {
	loadPool(pool, specs)
	sample := sampleSpecs(specs)
	views := make([]*sched.TaskView, len(sample))
	idx := make([]resources.SigIndex, len(sample))
	for i, s := range sample {
		views[i] = taskView(s)
		idx[i] = pool.IndexFor(s.Constraints)
	}
	id := l.b.spans.begin("replay.sched.MinLoad.PickIndexed", 0)
	c := timeOps(len(sample), func() {
		for i := range views {
			_ = sched.MinLoad{}.PickIndexed(views[i], idx[i], nil)
		}
	})
	l.b.spans.end(id)
	l.b.set("sched.minload_pick_ns", c.ns)
}

// stagedRegistry returns a location registry holding the stencil's staged-in
// inputs where the workload put them, as infra.New seeds its own.
func stagedRegistry(st stencil) *transfer.Registry {
	reg := transfer.NewRegistry()
	for d, size := range st.stageIn {
		k := transfer.Key{Data: d}
		reg.SetSize(k, size)
		for _, node := range st.stageInNodes[d] {
			reg.AddReplica(k, node)
		}
	}
	return reg
}

// firstIteration returns the task views of the stencil's first iteration with
// their input keys, and a registry holding those inputs.
func firstIteration(st stencil, results []deps.Result) ([]*sched.TaskView, *transfer.Registry) {
	reg := stagedRegistry(st)
	views := make([]*sched.TaskView, 0, stencilCells)
	for i := 0; i < stencilCells && i < len(st.specs); i++ {
		v := taskView(st.specs[i])
		for _, r := range results[i].Reads {
			v.InputKeys = append(v.InputKeys, transfer.KeyOf(r))
		}
		views = append(views, v)
	}
	return views, reg
}

// schedLocality prices the scan-path Locality pick: every fitting node scored
// by the bytes of the task's inputs it already holds.
func (l *layers) schedLocality(st stencil, results []deps.Result) {
	views, reg := firstIteration(st, results)
	pool := stencilPool()
	ctx := &sched.Context{Registry: reg, Net: stencilNet()}
	fitting := pool.Fitting(resources.Constraints{})
	ops := l.ops(replayOps / 10)
	id := l.b.spans.begin("replay.sched.Locality.Pick", 0)
	c := timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			_ = sched.Locality{}.Pick(views[i%len(views)], fitting, ctx)
		}
	})
	l.b.spans.end(id)
	l.b.set("sched.locality_pick_ns", c.ns)
}

// transfer prices fetch planning, applying a plan and registering a replica,
// over the input keys of the stencil's first iteration fetched to a node that
// holds none of them.
func (l *layers) transfer(st stencil, results []deps.Result) {
	b := l.b
	views, reg := firstIteration(st, results)
	mgr := transfer.NewManager(stencilNet(), reg)
	plans := make([]transfer.Plan, len(views))
	dest := func(i int) string { return stencilNodeName((i + stencilNodes/2) % stencilNodes) }

	id := b.spans.begin("replay.transfer.PlanFetch", 0)
	c := timeOps(len(views), func() {
		for i, v := range views {
			plans[i] = mgr.PlanFetch(dest(i), v.InputKeys)
		}
	})
	b.spans.end(id)
	b.set("transfer.plan_ns", c.ns)
	b.set("transfer.plan_allocs", c.allocs)

	id = b.spans.begin("replay.transfer.Apply", 0)
	c = timeOps(len(views), func() {
		for i := range plans {
			mgr.Apply(plans[i])
		}
	})
	b.spans.end(id)
	b.set("transfer.apply_ns", c.ns)

	adds := l.ops(replayOps)
	id = b.spans.begin("replay.transfer.AddReplica", 0)
	c = timeOps(adds, func() {
		for i := 0; i < adds; i++ {
			reg.AddReplica(transfer.Key{Data: deps.DataID(1 + i%stencilCells), Ver: 1 + i/stencilCells}, stencilNodeName(i%stencilNodes))
		}
	})
	b.spans.end(id)
	b.set("transfer.add_replica_ns", c.ns)
}

// --- simclock, trace, obsv --------------------------------------------------

// clockReplay keeps a fixed number of events pending, as a simulation keeps
// one completion event per running task: each fired event schedules the next
// until the workload's task count is used up.
type clockReplay struct {
	clock *simclock.Clock
	specs []infra.TaskSpec // the source of the durations
	left  int
	fire  func()
}

func (r *clockReplay) tick() {
	if r.left > 0 {
		r.left--
		r.clock.After(r.specs[r.left%len(r.specs)].Duration, r.fire)
	}
}

// simclock prices one event at the workload's concurrency (width pending
// events) and with its spread of durations.
func (l *layers) simclock(specs []infra.TaskSpec, n, width int) {
	r := &clockReplay{clock: simclock.New(), specs: specs, left: n}
	r.fire = r.tick
	id := l.b.spans.begin("replay.simclock", 0)
	c := timeOps(n, func() {
		for i := 0; i < width && r.left > 0; i++ {
			r.tick()
		}
		r.clock.Run()
	})
	l.b.spans.end(id)
	l.eventNS = c.ns
	l.b.set("simclock.event_ns", c.ns)
	l.b.set("simclock.event_allocs", c.allocs)
}

// trace prices Tracer.Record and reports how many events the traced run's
// tracer kept per task.
func (l *layers) trace(used *trace.Tracer) {
	tr := trace.New(0)
	ops := l.ops(replayOps)
	id := l.b.spans.begin("replay.trace.Record", 0)
	c := timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			tr.Record(trace.Event{At: time.Duration(i), Kind: trace.TaskCompleted, Task: int64(i), Node: "s000"})
		}
	})
	l.b.spans.end(id)
	l.b.set("trace.record_ns", c.ns)
	l.b.set("trace.record_bytes", c.bytes)
	l.b.set("trace.events_per_task", float64(used.Count(""))/float64(l.tasks))
}

// obsv prices the instrument calls the engine makes on its hot paths, and a
// walk over an engine-sized registry.
func (l *layers) obsv() {
	reg := obsv.NewRegistry()
	em := obsv.NewEngineMetrics(reg)
	ops := l.ops(10 * replayOps)
	id := l.b.spans.begin("replay.obsv", 0)
	c := timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			em.Launched.Add(1)
		}
	})
	l.b.set("obsv.counter_add_ns", c.ns)
	c = timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			em.WaveSize.Observe(float64(i & 1023))
		}
	})
	l.b.set("obsv.hist_observe_ns", c.ns)
	var sink float64
	c = timeOps(ops/100, func() {
		for i := 0; i < ops/100; i++ {
			reg.Visit(func(_ string, v float64) { sink += v })
		}
	})
	l.b.spans.end(id)
	l.b.set("obsv.visit_ns", c.ns)
}

// --- counts and attribution -------------------------------------------------

// registrySum adds up every sample of reg whose name starts with prefix.
func registrySum(reg *obsv.Registry, prefix string) float64 {
	var sum float64
	if reg != nil {
		reg.Visit(func(sample string, v float64) {
			if strings.HasPrefix(sample, prefix) {
				sum += v
			}
		})
	}
	return sum
}

// counts reads what the traced end-to-end run counted at the layer
// boundaries: the obsv registry it was given and the engine's own books.
func (l *layers) counts(reg *obsv.Registry, c campaign) {
	n := float64(l.tasks)
	l.waves = registrySum(reg, "flowgo_placement_waves_total")
	l.b.set("engine.waves_per_task", l.waves/n)
	l.b.set("engine.declines_per_task", registrySum(reg, "flowgo_placement_declines_total")/n)
	l.b.set("transfer.moves_per_task", float64(c.transfers)/n)
}

// attribute sums layer price x op count and compares it with the traced
// end-to-end wall. deps, engine and simclock do not overlap (the engine's
// price already contains the resources, sched, transfer and trace calls it
// makes), so their sum is the share of the wall the replays explain.
func (l *layers) attribute(wall time.Duration) {
	registered := l.registrations * float64(l.tasks)
	explained := time.Duration((l.depsNS+l.addNS)*registered+l.drainNS*l.completions+l.eventNS*(l.completions+l.waves)) + l.extra
	l.b.set("attrib.share", ratio(explained.Seconds(), wall.Seconds()))
	l.b.set("attrib.unexplained_s", (wall - explained).Seconds())
}
