// Package host is the control plane both backends share. A backend —
// the virtual-time simulator (internal/infra) or the live runtime
// (internal/core) — is "what time is it and how do I run a body": it
// hands the host a Clock, a Timer and an Executor, embeds the returned
// *Host, and keeps only its executor, its value store and its result
// accounting. Everything else is wired once, here: the engine and its
// cordon hook, the checkpointer and the one checkpoint.Source, the
// restore of a snapshot (restore.go), the five faults.Injector methods
// (no-op faults traced as fault_ignored), the admission submit/complete
// bookkeeping, the autoscale step, and the one periodic-tick helper that
// checkpoints, metric sampling and autoscale evaluation all ride.
//
// The package sits above engine, engine/checkpoint, engine/faults and
// autoscale (which all import engine), so none of them can own this
// wiring.
package host

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/mlpredict"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Config is every option a workflow run takes, declared once for both
// backends: infra.Config and core.Config are this type. A field is
// honoured by both backends unless it sits in the simulator-only or the
// live-only block at the end, and the backend that cannot honour a field
// refuses a non-zero value (infra.New with ErrConfig, core.New with a
// panic), so no knob is silently ignored.
type Config struct {
	// Pool is the node set. Required by the simulator; the live runtime
	// defaults to one node named "local" with 4 cores and 8 GB.
	Pool *resources.Pool
	// Net models transfer costs. Required by the simulator; the live
	// runtime prices data movements only when Locations is set too.
	Net *simnet.Network
	// Policy places ready tasks. Required by the simulator; the live
	// runtime defaults to sched.MinLoad.
	Policy sched.Policy
	// Predictor, when set, is trained online with completed-task durations
	// and consulted by prediction-aware policies.
	Predictor *mlpredict.Predictor
	// Tracer, when set, receives events.
	Tracer *trace.Tracer
	// Locations is the data-location registry (replicas and version
	// sizes) that locality policies, transfer accounting and checkpoint
	// catalogs read. The simulator makes its own when it is unset; the
	// live runtime then keeps none.
	Locations *transfer.Registry
	// Steal enables the engine's cross-bucket work stealing (default off).
	Steal engine.StealConfig
	// Availability selects what placement does with a task whose every
	// input replica is lost or partitioned away: run anyway (default),
	// defer until a heal or fresh replica wakes it, or recompute the
	// producers on the reachable side (engine.Availability). It needs
	// Locations and Net; a deferred live task's Future stays open until
	// the partition heals.
	Availability engine.Availability
	// Checkpoint, when set (with a Store), snapshots the engine state —
	// and the live runtime's produced values — under the configured
	// policy on the backend's clock. The data catalog comes from
	// Locations.
	Checkpoint *checkpoint.Config
	// Restore, when set, is replayed into the fresh engine (restore.go):
	// the catalog re-seeds Locations, and a task recorded as completed
	// whose outputs survived resolves instead of executing. Task IDs must
	// match the snapshotting run's (same workflow, same order).
	Restore *checkpoint.Snapshot
	// Metrics, when set, backs the engine (and the checkpointer, unless
	// its config carries its own bundle), the autoscaler and the
	// admission controller with series registered on this registry.
	Metrics *obsv.Registry
	// Autoscale enables pool scaling: the cost-aware planner across
	// heterogeneous tiers (autoscale.New) or the single-tier threshold
	// rule (autoscale.NewThreshold). The simulator evaluates it every
	// ElasticEvery; live, each Host.AutoscaleStep is one evaluation, by
	// hand or from an Every tick.
	Autoscale *autoscale.Autoscaler
	// Admission, when set, gates submissions behind per-tenant quotas: a
	// task over its tenant's in-flight cap is held invisible to the
	// scheduler until completions free a slot and weighted fair ordering
	// picks it. Live, a submission past the tenant's queue bound is
	// rejected (core.ErrQuotaRejected); the simulator requires an
	// unbounded queue (Quota.MaxQueued == 0), as a preregistered task has
	// no client to bounce to.
	Admission *autoscale.Admission

	// Simulator only. A live caller arms faults, ticks and sampling
	// itself with faults.Run, Every and StartSampler, and stages data in
	// with core.Runtime.SetInitial.

	// StageIn locates externally provided data (version 0) with sizes,
	// held by the pool's first node unless StageInNodes names explicit
	// replica locations — how partitioned storage backends (Hecuba)
	// advertise placement to the scheduler (E4). Recorded in Locations.
	StageIn      map[deps.DataID]int64
	StageInNodes map[deps.DataID][]string
	// PersistNode, when non-empty, receives a replica of every task
	// output — the dataClay persistence that makes recovery cheap
	// ("whenever a task is submitted to a remote agent, the COMPSs
	// runtime persists any not-yet-persisted object", Sec. VI-B).
	PersistNode string
	// DisableRenaming turns off data-version renaming in the access
	// processor, so WAR/WAW false dependencies serialise the graph
	// (ablation A1 in the README's Experiments).
	DisableRenaming bool

	// Faults is the fault script (crashes, slow nodes, drains, network
	// partitions) armed on the virtual clock.
	Faults faults.Scenario
	// HaltAt, when positive, stops the run at that virtual instant — the
	// simulated process death of the crash-restart experiments (E14);
	// Run returns infra.ErrHalted with the partial result.
	HaltAt time.Duration
	// ElasticEvery is the autoscale evaluation period (default 10s).
	ElasticEvery time.Duration
	// SampleEvery, when positive (and Metrics is set), snapshots the
	// registry into an in-memory time-series every virtual interval —
	// byte-identical run to run, except the checkpoint metrics: capture
	// time is measured on the wall clock, and the writer goroutine counts
	// a save when it is written.
	SampleEvery time.Duration

	// Live runtime only: the simulator binds no values.

	// Provenance, when set, records data lineage as values are bound.
	Provenance *trace.Provenance
}

// Backend is what makes a backend a backend: what time it is and how a
// body runs.
type Backend struct {
	// Clock, Timer and Executor are required. A Timer that can run dry —
	// the simulator's event heap — additionally offers Pending() int; the
	// host then gates its periodic ticks on liveness (see Every).
	Clock    engine.Clock
	Timer    faults.Timer
	Executor engine.Executor
	// OnKill, when set, runs once per task a node failure killed, after
	// its epoch is invalidated and before it is resubmitted (the live
	// runtime cancels the body's context). It must not call back into
	// the engine.
	OnKill func(*engine.Task)
	// Values, when set, is the backend's table of produced values (the
	// live runtime's; the simulator has none).
	Values Values
}

// Values is the one seam to a backend that holds task outputs as values.
type Values interface {
	// Attach adds its encoded value to every captured catalog row. It runs
	// on whatever goroutine captures, so it takes the backend's own lock.
	Attach(catalog []checkpoint.CatalogEntry)
	// Seed decodes a restored row's value into the table (from New only)
	// and reports whether it took.
	Seed(en *checkpoint.CatalogEntry) bool
	// Present reports whether k's value is in the table: the restore's
	// alive test, asked under the backend's submission lock.
	Present(k deps.Version) bool
}

// Host owns the engine and the control-plane wiring around it. Backends
// embed it; its exported methods are their operator surface.
type Host struct {
	cfg     Config
	b       Backend
	eng     *engine.Engine
	ckpt    *checkpoint.Checkpointer
	pending func() int // the timer's scheduled-event count; nil when it never runs dry

	mu       sync.Mutex
	tenants  map[int64]string // admission tenant per task holding a slot
	smp      *obsv.Sampler
	recorded map[int64]*engine.TaskSnap // restore: completions awaiting their offer (see lookup)
	resolved map[int64]struct{}         // restore: IDs marked done, kept for Admit

	restaged      int // restore-time re-staging; written by New only
	restagedBytes int64
	restageTime   time.Duration

	// run is held while a tick body executes and taken by StopTicks, so
	// no tick is in flight once StopTicks returns.
	run       sync.Mutex
	stopped   bool         // guarded by run
	observers atomic.Int64 // armed observer ticks (see every)
}

// New builds the engine from the shared configuration, routes autoscale
// cordons through it, registers the engine's, the checkpointer's, the
// autoscaler's and the admission controller's instruments on
// Config.Metrics, seeds Config.Restore's catalog, arms the checkpointer
// when a store is configured, and stages in Config.StageIn. It fails
// only on a restore snapshot of another format: resuming cold instead
// would recompute a whole campaign without a word.
func New(cfg Config, b Backend) (*Host, error) {
	if snap := cfg.Restore; snap != nil && snap.Format != checkpoint.Format {
		return nil, fmt.Errorf("host: restore snapshot format %d, want %d", snap.Format, checkpoint.Format)
	}
	h := &Host{cfg: cfg, b: b}
	if p, ok := b.Timer.(interface{ Pending() int }); ok {
		h.pending = p.Pending
	}
	h.eng = engine.New(engine.Config{
		Pool:         cfg.Pool,
		Policy:       cfg.Policy,
		Clock:        b.Clock,
		Executor:     b.Executor,
		Metrics:      cfg.Metrics,
		Registry:     cfg.Locations,
		Net:          cfg.Net,
		PersistNode:  cfg.PersistNode,
		Tracer:       cfg.Tracer,
		Steal:        cfg.Steal,
		Availability: cfg.Availability,
		SchedContext: &sched.Context{
			Registry:  cfg.Locations,
			Net:       cfg.Net,
			Predictor: cfg.Predictor,
		},
	})
	if cfg.Autoscale != nil {
		// Downscale victims are cordoned through the engine, so the drain
		// lands on the scheduler's books (and the trace) before removal.
		cfg.Autoscale.SetCordon(h.eng.DrainNode)
		if cfg.Metrics != nil {
			cfg.Autoscale.Expose(cfg.Metrics)
		}
	}
	if cfg.Admission != nil {
		h.tenants = make(map[int64]string)
		h.resolved = make(map[int64]struct{})
		if cfg.Metrics != nil {
			cfg.Admission.Expose(cfg.Metrics)
		}
	}
	if cfg.Restore != nil {
		h.seedCatalog(cfg.Restore)
	}
	if cfg.Checkpoint != nil && cfg.Checkpoint.Store != nil {
		ck := *cfg.Checkpoint
		if ck.Metrics == nil && cfg.Metrics != nil {
			ck.Metrics = obsv.NewCkptMetrics(cfg.Metrics)
		}
		h.ckpt = checkpoint.NewCheckpointer(ck, h, cfg.Tracer)
		if ck.Policy.Mode == checkpoint.ModeInterval && ck.Policy.Every > 0 {
			h.every(ck.Policy.Every, true, func() bool { h.ckpt.Tick(); return false })
		}
	}
	for d, size := range cfg.StageIn {
		h.StageIn(d, size, cfg.StageInNodes[d])
	}
	return h, nil
}

// StageIn records version 0 of d, provided from outside the workflow, in
// Config.Locations: size bytes (unknown when 0) held by nodes, or by the
// pool's first node when nodes is empty. Without Locations it does
// nothing.
func (h *Host) StageIn(d deps.DataID, size int64, nodes []string) {
	reg := h.cfg.Locations
	if reg == nil {
		return
	}
	k := deps.Version{Data: d}
	if size > 0 {
		reg.SetSize(k, size)
	}
	if len(nodes) == 0 {
		if all := h.cfg.Pool.Nodes(); len(all) > 0 {
			nodes = []string{all[0].Name()}
		}
	}
	for _, n := range nodes {
		reg.AddReplica(k, n)
	}
}

// Engine returns the shared scheduling engine (the backend's executor
// and submission paths drive it directly).
func (h *Host) Engine() *engine.Engine { return h.eng }

// EngineStats exposes the engine's counters (launches, transfer
// accounting) — comparable one-to-one across backends.
func (h *Host) EngineStats() engine.Stats { return h.eng.Stats() }

// Timings exposes the engine's per-task latency milestones
// (submit→ready→start→done on the backend's clock), in registration
// order.
func (h *Host) Timings() []engine.Timing { return h.eng.Timings() }

// --- faults.Injector -------------------------------------------------------

// FailNode crashes a node: the engine removes it, kills its running
// tasks and resubmits them through lineage recovery; the backend's
// OnKill hook sees each killed task in between.
func (h *Host) FailNode(name string) (engine.FailReport, error) {
	rep, err := h.eng.FailNode(name, h.b.OnKill)
	return rep, h.traceIgnored(name, err)
}

// SlowNode sets a node's duration multiplier (1 restores full speed).
func (h *Host) SlowNode(name string, factor float64) error {
	return h.traceIgnored(name, h.eng.SlowNode(name, factor))
}

// DrainNode cordons a node: running tasks finish, new placements avoid
// it.
func (h *Host) DrainNode(name string) error {
	return h.traceIgnored(name, h.eng.DrainNode(name))
}

// Partition cuts the link between two endpoints (node or zone names).
func (h *Host) Partition(a, b string) error {
	return h.traceIgnored(a+"~"+b, h.eng.Partition(a, b))
}

// Heal restores a link cut by Partition.
func (h *Host) Heal(a, b string) error {
	return h.traceIgnored(a+"~"+b, h.eng.Heal(a, b))
}

// traceIgnored records a fault the engine rejected (unknown or
// already-dead node, no network model), so a scripted scenario leaves
// the same audit trail on every backend.
func (h *Host) traceIgnored(target string, err error) error {
	if err != nil {
		h.cfg.Tracer.Record(trace.Event{
			At: h.b.Clock.Now(), Kind: trace.FaultIgnored, Node: target, Info: err.Error(),
		})
	}
	return err
}

// --- checkpoint.Source -----------------------------------------------------

// CheckpointSnapshot captures the state a base would hold now — the
// engine's task table plus the location registry as the data catalog,
// with the backend's values attached — and leaves the logs alone, so the
// parity suites can probe a running backend without moving its
// checkpoint log.
func (h *Host) CheckpointSnapshot() *checkpoint.Snapshot {
	snap := checkpoint.Capture(h.eng, h.cfg.Locations)
	h.attach(snap.Catalog)
	return snap
}

// CheckpointBase implements checkpoint.Source: a full capture that opens
// the engine's and the registry's logs empty.
func (h *Host) CheckpointBase() *checkpoint.Snapshot {
	snap := checkpoint.CaptureBase(h.eng, h.cfg.Locations)
	h.attach(snap.Catalog)
	return snap
}

// CheckpointDelta implements checkpoint.Source: the records logged since
// the last base or delta capture, in spare's arrays.
func (h *Host) CheckpointDelta(spare *checkpoint.Delta) *checkpoint.Delta {
	d := checkpoint.CaptureDeltaInto(spare, h.eng, h.cfg.Locations)
	h.attach(d.Catalog)
	return d
}

func (h *Host) attach(catalog []checkpoint.CatalogEntry) {
	if h.b.Values != nil {
		h.b.Values.Attach(catalog)
	}
}

// --- completion and admission bookkeeping (backend-facing) -----------------

// Tracking reports whether TaskCompleted has anything to do — an
// admission controller or a checkpointer is configured — so a backend
// can keep its one-lock complete-and-schedule fast path otherwise.
func (h *Host) Tracking() bool { return h.ckpt != nil || h.cfg.Admission != nil }

// Admit runs one submission through the admission controller (Admitted
// when none is configured), records the outcome on the engine's books,
// and returns the holds to register the task under: one while Queued,
// which TaskCompleted lifts when a slot frees, and one while a recorded
// completion awaits its offer, which Resolve lifts — no concurrent wave
// can launch the task in between. A submission the restore resolves never
// runs, so it is Admitted uncharged; the test here is Resolve's, so what
// skips the quota is exactly what does not execute.
func (h *Host) Admit(id int64, tenant string) (out autoscale.Outcome, holds int) {
	rec, resolved := h.lookup(id, false)
	if rec != nil {
		holds = 1
	}
	if h.cfg.Admission == nil || resolved || (rec != nil && h.alive(rec.OutputKeys)) {
		return autoscale.Admitted, holds
	}
	// Under h.mu: a queued submission can be promoted, run and complete
	// the moment Submit returns, and its TaskCompleted must find the slot.
	h.mu.Lock()
	out = h.cfg.Admission.Submit(tenant, id)
	if out != autoscale.Rejected {
		h.tenants[id] = tenant
	}
	h.mu.Unlock()
	switch out {
	case autoscale.Rejected:
		h.eng.RecordAdmission(0, 1)
	case autoscale.Queued:
		h.eng.RecordAdmission(1, 0)
		holds++
	}
	return out, holds
}

// TaskCompleted is the backend's notification between an engine
// completion and the placement wave that follows it. A first completion
// returns the quota slot Admit charged — recovery re-executions were
// never re-admitted — and lifts the holds of whatever queued submissions
// fair ordering promotes (possibly other tenants'); woke reports whether any
// became ready. The checkpointer's every-N trigger fires last, so it
// captures the same post-completion, pre-placement state on both
// backends.
func (h *Host) TaskCompleted(id int64, first bool) (woke bool) {
	if first && h.cfg.Admission != nil {
		h.mu.Lock()
		tenant, charged := h.tenants[id]
		delete(h.tenants, id)
		h.mu.Unlock()
		if charged {
			for _, rel := range h.cfg.Admission.Complete(tenant) {
				if rid, ok := rel.Payload.(int64); ok && h.eng.ReleaseHold(rid) {
					woke = true
				}
			}
		}
	}
	if h.ckpt != nil {
		h.ckpt.TaskCompleted()
	}
	return woke
}

// Drained tells the checkpointer every submitted task has finished (the
// on-drain trigger) and returns once every queued save is written, with
// the first checkpoint write that failed.
func (h *Host) Drained() error {
	if h.ckpt == nil {
		return nil
	}
	return h.ckpt.Drained()
}

// FlushCheckpoints returns once every checkpoint save queued so far is
// written — from then on the store holds them all — with the first
// checkpoint write of the run that failed (nil when none has).
func (h *Host) FlushCheckpoints() error {
	if h.ckpt == nil {
		return nil
	}
	return h.ckpt.Flush()
}

// --- elasticity ------------------------------------------------------------

// AutoscaleStep runs one autoscale evaluation against the engine's
// current signals and applies the decision: trace the node event, then
// make the capacity usable — immediately for a reclaimed or instantly
// provisioned node, after the tier's delay otherwise (the whole
// node is reserved until then, so no wave can land on it early).
// Removal is final, the drain having landed through the engine cordon
// beforehand. Without Config.Autoscale it holds. Normally driven by a
// periodic tick; exported for tests that control instants (the
// sim-vs-live parity suite).
func (h *Host) AutoscaleStep() autoscale.Action {
	if h.cfg.Autoscale == nil {
		return autoscale.Action{Kind: autoscale.Held}
	}
	now := h.b.Clock.Now()
	act := h.cfg.Autoscale.Step(h.cfg.Pool, autoscale.Snapshot(h.eng, h.cfg.Pool, now))
	switch act.Kind {
	case autoscale.Reclaimed:
		h.cfg.Tracer.Record(trace.Event{At: now, Kind: trace.NodeUndrained, Node: act.Node.Name()})
		// The reclaimed node may sit on the reachable side of a
		// partition: re-validate parked work along with the wave.
		h.eng.RevalidateAvailability()
	case autoscale.Grew:
		h.cfg.Tracer.Record(trace.Event{At: now, Kind: trace.NodeAdded, Node: act.Node.Name()})
		node, d := act.Node, act.Node.Desc()
		hold := resources.Constraints{Cores: d.Cores, MemoryMB: d.MemoryMB, GPUs: d.GPUs}
		if act.Delay > 0 && node.Reserve(hold) == nil {
			h.b.Timer.At(now+act.Delay, func() {
				node.Release(hold)
				h.eng.RevalidateAvailability()
			})
			break
		}
		h.eng.RevalidateAvailability()
	case autoscale.Removed:
		h.cfg.Tracer.Record(trace.Event{At: now, Kind: trace.NodeRemoved, Node: act.Node.Name()})
	}
	return act
}

// --- periodic ticks --------------------------------------------------------

// Every runs step every d on the backend's timer, first at now+d, until
// StopTicks. step reports whether it changed what the run can do next
// (grew the pool, lifted a cordon). On a timer that can run dry the
// chain is liveness-gated: a tick that fires with nothing else
// scheduled and whose step changed nothing ends the chain, so a wedged
// simulation drains its clock and reports stuck instead of ticking
// forever.
func (h *Host) Every(d time.Duration, step func() bool) { h.every(d, false, step) }

// every is the one periodic-tick helper. An observer tick (checkpoint,
// metric sample) cannot unblock anything, so it does not fire at all
// into an otherwise idle run, and armed observers do not count as
// scheduled work — two observers cannot keep each other (or a wedged
// run) alive. A driver tick (autoscale) does count: observers keep
// sampling while a driver may still grow the pool under a stalled
// workload.
func (h *Host) every(d time.Duration, observer bool, fn func() bool) {
	next := h.b.Clock.Now()
	var tick func()
	arm := func() {
		next += d
		if observer {
			h.observers.Add(1)
		}
		h.b.Timer.At(next, tick)
	}
	tick = func() {
		h.run.Lock()
		defer h.run.Unlock()
		if observer {
			h.observers.Add(-1)
		}
		idle := h.pending != nil && h.pending() <= int(h.observers.Load())
		if h.stopped || (observer && idle) {
			return
		}
		if changed := fn(); idle && !changed {
			return
		}
		arm()
	}
	arm()
}

// StartSampler snapshots Config.Metrics into an in-memory time-series
// every interval on the backend's clock — deterministic on virtual
// time, byte-identical run to run — until StopTicks. Returns the
// sampler for reading the series; nil without Config.Metrics or a
// positive interval. A second call returns the running sampler.
func (h *Host) StartSampler(every time.Duration) *obsv.Sampler {
	if h.cfg.Metrics == nil || every <= 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.smp == nil {
		smp := obsv.NewSampler(h.cfg.Metrics)
		h.smp = smp
		h.every(every, true, func() bool { smp.Sample(h.b.Clock.Now()); return false })
	}
	return h.smp
}

// Sampler returns the sampler StartSampler armed (nil before).
func (h *Host) Sampler() *obsv.Sampler {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.smp
}

// StopTicks ends every periodic chain and disables further checkpoints;
// once it returns no tick body is running and every queued checkpoint is
// written. Timers already armed are not cancelled, only neutered.
func (h *Host) StopTicks() {
	h.run.Lock()
	h.stopped = true
	h.run.Unlock()
	if h.ckpt != nil {
		h.ckpt.Stop()
	}
}
