// Package engine is the backend-agnostic scheduling engine shared by the
// live runtime (internal/core) and the virtual-time simulator
// (internal/infra). The paper's central claim is that one task-based
// runtime — graph construction, dependency-aware scheduling, data
// transfers — serves every tier of the computing continuum (Sec. VI-A);
// this package is that single runtime core. Both backends delegate their
// ready-queue, placement loop, dependency release, recovery resubmission
// and transfer accounting here, parameterised by two small interfaces: a
// Clock (wall time vs internal/simclock) and an Executor (goroutine
// workers vs duration-modelled completion events).
//
// The engine is built for scale: the ready set is sharded into
// per-constraint-signature buckets, so a scheduling wave inspects one
// queue head per signature instead of rescanning every queued task
// (O(placements × signatures) rather than O(ready × nodes)), and a
// completing task releases all of its successors under a single lock
// acquisition.
//
// Buckets are strict FIFOs (per-signature priority order), which makes a
// blocked head park its whole bucket until the next completion wave.
// When the blocking is a policy decision — the head is waiting for a
// busier, faster tier — idle slower nodes would sit unused even though
// entries behind the head would gladly run on them. Work stealing
// (Config.Steal) closes that gap: after the normal wave, the engine
// re-offers entries behind each blocked head, deepest first, through the
// identical placement path, so a stolen task keeps every dependency,
// lineage and fault-recovery invariant of a normally placed one. See
// docs/ARCHITECTURE.md for the full picture.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deps"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// Clock reports the current time as an offset from the run's epoch. The
// live runtime passes wall time elapsed since start; the simulator passes
// its virtual clock.
type Clock interface {
	Now() time.Duration
}

// WallClock is the Clock of the live runtime: elapsed real time since
// Epoch.
type WallClock struct {
	Epoch time.Time
}

// Now implements Clock.
func (w WallClock) Now() time.Duration { return time.Since(w.Epoch) }

// Placement describes one launched task: the reserved node group and the
// staging cost already accounted by the engine.
type Placement struct {
	// Task is the placed task.
	Task *Task
	// Node is the primary, chosen by the policy; Peers are the other
	// members of a multi-node group (nil for a single-node task).
	Node  *resources.Node
	Peers []*resources.Node
	// Epoch snapshots the task's placement counter; pass it back to
	// Complete so completions cancelled by a failure are ignored.
	Epoch int
	// TransferTime is the modelled input-staging time (zero unless the
	// engine was configured with a Registry and Net).
	TransferTime time.Duration
	// SlowFactor is the duration multiplier of the slowest group member
	// (≥ 1; see Engine.SlowNode). Duration-modelling executors stretch
	// compute time by it.
	SlowFactor float64
}

// Primary returns the policy-chosen node of the group.
func (p Placement) Primary() *resources.Node { return p.Node }

// Executor starts execution of placed tasks. The live runtime queues the
// placement for a goroutine of its own — usually the one whose completion
// ran the wave, which takes it as soon as the engine call returns; the
// simulator schedules a completion event on its virtual clock. Every
// launch must eventually be answered by a call to Engine.Complete (or be
// invalidated by Engine.FailNode).
type Executor interface {
	// Launch starts p. It is called while the engine's launch batch is
	// being drained (the task-state lock is not held), so it may inspect
	// the engine, but it must not call Schedule or CompleteSchedule
	// synchronously — hand completions back from another goroutine, a
	// clock event, or an outer driver loop instead.
	Launch(p Placement)
}

// State is the lifecycle of a task inside the engine.
type State int

// Task states.
const (
	// Pending tasks wait for dependencies (or a hold release).
	Pending State = iota + 1
	// Ready tasks sit in a signature bucket awaiting placement.
	Ready
	// Running tasks hold node reservations.
	Running
	// Done tasks have completed at least once.
	Done
	// Parked tasks sit in the availability wait set: every replica of at
	// least one input is lost or partitioned away, and Config.Availability
	// chose to hold the task until a heal or a fresh replica wakes it.
	Parked
)

// Task is one schedulable unit. The exported fields are set by the
// backend before Add and read-only afterwards; the engine owns the rest.
// InputKeys and OutputKeys are the access processor's own Reads/Writes
// lists, shared — never copied — with the backend, policies, snapshots
// and checkpoint records: nobody writes through them after Add (the
// engine may drop its own slice headers once the task is done).
type Task struct {
	// ID is the graph-unique task ID.
	ID int64
	// Class names the task type (policy/predictor key, trace label).
	Class string
	// Constraints are the placement requirements.
	Constraints resources.Constraints
	// EstDuration is the declared base duration (0 if unknown).
	EstDuration time.Duration
	// InputKeys are the data versions the task reads (shared, immutable
	// after Add).
	InputKeys []deps.Version
	// InputBytes is the total input size (predictor covariate).
	InputBytes int64
	// OutputKeys are the data versions the task produces (shared,
	// immutable after Add); the engine registers them as replicas on the
	// primary node at completion.
	OutputKeys []deps.Version
	// Payload carries backend-specific state (e.g. the future, the spec).
	Payload any

	// The engine's fields: the int32 counters share a word-aligned run
	// with the flags; State stays an int (checkpoint Format 3 encodes it).
	sig        resources.SigID // interned constraint signature (index into Engine.ready)
	waitCount  int32           // unmet producer edges + outstanding holds
	holds      int32           // synthetic dependencies only ReleaseHold clears
	fanOut     int32           // dependents registered but not yet wired (zero outside Add)
	epoch      int32           // placement counter
	completed  bool            // completed at least once
	prio       float64
	state      State
	dependents []*Task
	node       *resources.Node // reserved primary while Running
	cold       *taskCold       // rarely set fields; nil until first needed
	started    time.Duration
	// Latency milestones on the engine clock, first transition only (a
	// recovery re-run never rewrites them). -1 = not reached, because
	// t=0 is a legitimate virtual timestamp.
	submitAt   time.Duration
	readyAt    time.Duration
	firstStart time.Duration
	doneAt     time.Duration
}

// taskCold holds the task fields only lineage recovery, multi-node groups
// and availability parking set. A run that reaches none of those paths
// allocates none of them.
type taskCold struct {
	redeps    map[*Task]struct{} // recovery waiters (lazily allocated)
	peers     []*resources.Node  // rest of a multi-node group
	availKeys []deps.Version     // unavailable inputs this task is parked on
	availNeed string             // availability-recompute hint: the primary must reach this node
}

// coldRec returns t's cold record, allocating it on first use.
func (t *Task) coldRec() *taskCold {
	if t.cold == nil {
		t.cold = new(taskCold)
	}
	return t.cold
}

// peers returns the rest of t's multi-node group (nil for a single node).
func (t *Task) peers() []*resources.Node {
	if t.cold == nil {
		return nil
	}
	return t.cold.peers
}

// availNeed returns t's availability-recompute hint ("" when unhinted).
func (t *Task) availNeed() string {
	if t.cold == nil {
		return ""
	}
	return t.cold.availNeed
}

// StealMode selects the engine's cross-bucket work-stealing behaviour.
//
// A bucket whose head fails to place is parked for the rest of the wave.
// When the failure is capacity (no node fits the signature) nothing
// behind the head can run either — the signatures are identical — and
// stealing has nothing to do. When the failure is a policy decision (the
// head is holding out for a busier, faster tier; see sched.WaitFast),
// entries behind the head may still be acceptable on the nodes the wave
// left idle. Stealing re-offers those entries, deepest (lowest-priority,
// newest) first, so the head keeps its claim on the tier it is waiting
// for and bucket order is preserved for everything that is not stolen.
type StealMode int

// Steal modes.
const (
	// StealOff disables stealing: a blocked bucket waits for the next
	// completion wave.
	StealOff StealMode = iota
	// StealOnIdle re-offers the entries behind every blocked head with
	// more than StealConfig.Threshold of them to the capacity the wave
	// left idle, deepest entry first.
	StealOnIdle
)

// String returns the mode name.
func (m StealMode) String() string {
	switch m {
	case StealOff:
		return "off"
	case StealOnIdle:
		return "on-idle"
	default:
		return fmt.Sprintf("StealMode(%d)", int(m))
	}
}

// StealConfig tunes work stealing (see StealMode).
type StealConfig struct {
	// Mode selects the behaviour; the zero value is StealOff.
	Mode StealMode
	// Threshold is the number of entries behind a blocked head that its
	// bucket must exceed before StealOnIdle steals from it: a backlog
	// signal that avoids paying the scan for shallow queues that the next
	// completion wave would drain anyway. 0 steals from every blocked
	// bucket with anything behind its head.
	Threshold int
}

// Config assembles an engine.
type Config struct {
	// Pool is the node set placements draw from. Required.
	Pool *resources.Pool
	// Policy places ready tasks. Required.
	Policy sched.Policy
	// Clock timestamps trace events and task starts. Required.
	Clock Clock
	// Executor runs placed tasks. Required.
	Executor Executor
	// Registry, when set, receives a replica of every task output on its
	// primary node (the locality information source). Optional.
	Registry *transfer.Registry
	// Net, when set together with Registry, makes the engine stage each
	// placed task's inputs onto the primary node and account the moved
	// bytes and modelled transfer time. Optional.
	Net *simnet.Network
	// PersistNode, when non-empty, receives a replica of every output —
	// the dataClay persistence tier that makes recovery cheap.
	PersistNode string
	// Tracer, when set, receives TaskStarted / TaskCompleted /
	// TaskFailed / DataTransfer / DataPersisted events.
	Tracer *trace.Tracer
	// SchedContext is handed to the policy on every decision. Optional.
	SchedContext *sched.Context
	// Steal enables cross-bucket work stealing (default off).
	Steal StealConfig
	// Availability selects what placement does with a task whose inputs
	// are lost or partitioned away (default AvailRunAnyway; see the
	// Availability type). Effective only when Registry and Net are both
	// set — without the transfer books the engine cannot classify inputs.
	Availability Availability
	// Metrics, when set, receives continuous observability signals:
	// per-signature ready depth, parked count, wave size/duration,
	// decline reasons, steal and availability churn, transfer volume.
	// The engine's own counts are func-backed series read under the
	// engine lock at scrape time (expose); the rest are instruments
	// (obsv.EngineMetrics). Durations are observed on the engine Clock,
	// so simulator series are deterministic (and wave durations are 0 —
	// no virtual time passes inside a wave). Leave nil for metrics off:
	// the hot paths then write to nil instruments, which discard.
	// Optional.
	Metrics *obsv.Registry
}

// Stats counts engine activity since creation.
type Stats struct {
	// Launched counts task launches (re-executions count again).
	Launched int
	// Steals counts launches that bypassed a blocked bucket head (work
	// stealing; every steal is also counted in Launched).
	Steals int
	// Completed counts live completions.
	Completed int
	// Restored counts tasks marked completed from a checkpoint snapshot
	// instead of executing (RestoreCompleted; never counted in Launched).
	Restored int
	// Reexecuted counts recovery re-runs of already-completed tasks.
	Reexecuted int
	// Transfers counts planned input fetches (replica-miss moves).
	Transfers int
	// BytesMoved totals the payload of those fetches.
	BytesMoved int64
	// TransferTime sums the modelled staging time on task critical paths.
	TransferTime time.Duration
	// RanMissing counts launches that proceeded although at least one
	// input had no reachable replica (Availability == AvailRunAnyway) —
	// the executions the defer/recompute policies exist to eliminate.
	RanMissing int
	// Deferred counts park events: placement attempts diverted into the
	// availability wait set (a task woken optimistically and re-parked
	// counts again).
	Deferred int
	// Woken counts releases from the availability wait set back to the
	// ready queue (heals, fresh replicas, failure sweeps).
	Woken int
	// AvailRecomputes counts producer resubmissions triggered by
	// AvailRecompute placement decisions (every one also shows up in
	// Reexecuted when the producer had completed before).
	AvailRecomputes int
	// AdmitQueued counts submissions the admission controller held back
	// for a freed quota slot; AdmitRejected counts submissions it refused
	// outright (per-tenant queue bound exceeded). The engine never queues
	// or rejects itself — backends record outcomes through
	// RecordAdmission so both counters ride the same consistent snapshot
	// as the scheduling counters.
	AdmitQueued   int
	AdmitRejected int
}

// Completion reports the outcome of a live Complete call.
type Completion struct {
	// Task is the completed task.
	Task *Task
	// Node and Peers are the group members still in the pool, for the
	// caller's accounting (energy, predictor); Node is nil if it left.
	Node  *resources.Node
	Peers []*resources.Node
	// Ran is the clock time since the task's launch.
	Ran time.Duration
	// First reports whether this was the task's first completion (false
	// for recovery re-executions).
	First bool
}

// Engine is the shared scheduling core. All methods are safe for
// concurrent use; scheduling decisions are serialised by an internal
// mutex, like the single-threaded Task Scheduler component of COMPSs.
type Engine struct {
	cfg  Config
	mgr  *transfer.Manager // nil unless Registry and Net are both set
	prio sched.Prioritizer // non-nil when the policy ranks ready tasks

	// readyN is the queued-ready count. It is written only under mu but
	// read lock-free by Schedule's empty fast path and ReadyCount, so a
	// completion storm with nothing queued skips the lock entirely.
	readyN atomic.Int64

	mu    sync.Mutex
	tasks taskTable
	// The ready set is one FIFO per constraint signature: placeability
	// depends only on the signature, so a scheduling wave touches each
	// signature's head instead of rescanning every queued task. ready is
	// indexed by SigID (assignment order, which differs between backends);
	// sigs holds the same buckets by label, the order iterations use.
	ready []*bucket
	sigs  []*bucket
	wave  int // placement-wave counter (bucket blocking)
	// cand is the live candidate view of the current wave: the unblocked,
	// non-empty buckets the selection loop actually scans. It is rebuilt
	// from sigs once per wave and compacted as buckets drain or block, so
	// a placement inspects live candidates instead of rescanning every
	// signature ever seen; pushReadyLocked re-admits a bucket that refills
	// mid-wave (availability recomputes resubmit into the running wave).
	cand       []*bucket
	waveActive bool
	producer   map[deps.Version]*Task // last-registered writer of each version; nil until producerLocked
	slow       map[string]float64     // per-node duration multipliers (fault injection)
	// log is the checkpoint log (snapshot.go): nil until the first base
	// capture opens it, so a run that never checkpoints pays one nil check
	// per change.
	log []TaskSnap
	// Availability wait set: tasks parked on unavailable data versions
	// (see availability.go), plus the scratch a placement attempt leaves
	// for divertUnavailableLocked.
	waiters      map[deps.Version]map[*Task]struct{} // parked tasks per missing datum
	parked       int                                 // tasks in state Parked
	availMissing []deps.Version                      // scratch: last attempt's unavailable inputs
	availPrimary string                              // scratch: last attempt's chosen primary
	pendingWakes []deps.Version                      // staged replicas with waiters (processed between waves)
	stats        Stats
	failed       int                 // completions with failed set, also counted in stats.Completed
	met          *obsv.EngineMetrics // instruments for what only the metrics record
	view         sched.TaskView      // scratch view (guarded by mu; never retained)
	// Scratch candidate buffers for the wave hot path (guarded by mu;
	// never escape a placement attempt — Placement.Peers is always a
	// fresh allocation); fitScratch is placeLocked's Candidates buffer.
	fitScratch []*resources.Node
	capScratch []*resources.Node
	// Registration scratch: the producer→dependent edges one Add call
	// resolved, in registration order, and how many of them land on a
	// producer that has no dependents yet — the size of the array
	// wireLocked carves those producers' lists from.
	edges      []edge
	freshEdges int
	// earlyHolds banks ReleaseHold calls that arrived before their task
	// was registered — the live runtime asks admission before it calls
	// Add, and a completion on another goroutine may promote the
	// submission in between; addLocked nets them off the task's holds.
	earlyHolds map[int64]int32

	launchMu sync.Mutex  // serialises launch batches (not held with mu)
	launch   []Placement // scratch batch (guarded by launchMu)
}

// bucket is one signature's ready FIFO. blocked marks the wave in which
// the head failed to place, parking the whole bucket for that wave; seen
// marks the wave whose candidate view currently holds the bucket, so a
// mid-wave refill re-admits it exactly once. The per-signature
// ready-depth series reads len(q) (see pushReadyLocked).
//
// q is a window over a backing array that starts at base, off slots before
// q[0]: popping the head advances the window instead of giving the front
// capacity away, and insert slides the window back before it would grow.
// Every other site edits q in place, which keeps the window's start.
type bucket struct {
	idx     resources.SigIndex // the signature's placement-index view (and label)
	q       []*Task
	base    []*Task // q's backing array from its first slot (length 0)
	off     int     // popped slots between base and q
	blocked int
	seen    int
}

// pop removes the head; an emptied queue rewinds to the array's start.
func (b *bucket) pop() {
	b.q, b.off = b.q[1:], b.off+1
	if len(b.q) == 0 {
		b.q, b.off = b.base, 0
	}
}

// insert places t at position at. A window that has run into the end of
// its array with at least as many popped slots in front as live entries
// slides down over them (amortised O(1) per pop) rather than reallocating
// — on a dataflow graph, where tasks become ready one completion at a
// time, that is every push.
func (b *bucket) insert(at int, t *Task) {
	if len(b.q) == cap(b.q) && b.off >= len(b.q) {
		b.q = b.base[:copy(b.base[:cap(b.base)], b.q)]
		b.off = 0
	}
	was := cap(b.q)
	b.q = slices.Insert(b.q, at, t)
	if cap(b.q) != was { // grown into a fresh array
		b.base, b.off = b.q[:0], 0
	}
}

// taskTable is the engine's one ID-keyed structure: every task in
// registration order, found by ID without hashing while IDs run
// consecutively from the first (what both backends produce) and through
// sparse otherwise. Only the ID-facing API resolves through it — the
// scheduling paths hold *Task.
type taskTable struct {
	all    []*Task
	sparse map[int64]*Task // tasks whose ID is not all[0].ID + their position
}

func (tt *taskTable) get(id int64) *Task {
	if len(tt.all) > 0 {
		if i := id - tt.all[0].ID; i >= 0 && i < int64(len(tt.all)) && tt.all[i].ID == id {
			return tt.all[i]
		}
	}
	return tt.sparse[id]
}

// add registers t; the caller has checked that its ID is free.
func (tt *taskTable) add(t *Task) {
	if n := len(tt.all); n > 0 && t.ID != tt.all[0].ID+int64(n) {
		if tt.sparse == nil {
			tt.sparse = make(map[int64]*Task)
		}
		tt.sparse[t.ID] = t
	}
	tt.all = append(tt.all, t)
}

// New returns an engine over the given configuration. Pool, Policy,
// Clock and Executor are required; New panics if any is missing, since
// that is a programming error in the backend, not a runtime condition.
func New(cfg Config) *Engine {
	if cfg.Pool == nil || cfg.Policy == nil || cfg.Clock == nil || cfg.Executor == nil {
		panic("engine: Pool, Policy, Clock and Executor are required")
	}
	e := &Engine{cfg: cfg, met: obsv.NewEngineMetrics(cfg.Metrics)}
	if cfg.Metrics != nil {
		e.expose(cfg.Metrics)
	}
	if p, ok := cfg.Policy.(sched.Prioritizer); ok {
		e.prio = p
	}
	if cfg.Registry != nil && cfg.Net != nil {
		e.mgr = transfer.NewManager(cfg.Net, cfg.Registry)
	}
	return e
}

// expose registers the counts the engine keeps for itself on reg as
// func-backed series, read under e.mu at scrape time; the per-signature
// ready depths follow as pushReadyLocked creates their buckets.
func (e *Engine) expose(reg *obsv.Registry) {
	counter := func(name, help string, f func() int64) {
		reg.CounterFunc(name, help, "", e.read(f))
	}
	counter("flowgo_tasks_launched_total", "Tasks launched.", func() int64 { return int64(e.stats.Launched) })
	counter("flowgo_tasks_completed_total", "Tasks completed.", func() int64 { return int64(e.stats.Completed - e.failed) })
	counter("flowgo_tasks_failed_total", "Task executions that failed.", func() int64 { return int64(e.failed) })
	counter("flowgo_steal_successes_total", "Work-steal successes.", func() int64 { return int64(e.stats.Steals) })
	counter("flowgo_avail_parks_total", "Tasks parked for unavailable inputs.", func() int64 { return int64(e.stats.Deferred) })
	counter("flowgo_avail_wakes_total", "Parked tasks woken by heals.", func() int64 { return int64(e.stats.Woken) })
	counter("flowgo_avail_recomputes_total", "Availability recompute decisions.", func() int64 { return int64(e.stats.AvailRecomputes) })
	counter("flowgo_transfers_total", "Input data moves.", func() int64 { return int64(e.stats.Transfers) })
	counter("flowgo_transfer_bytes_total", "Bytes moved staging inputs.", func() int64 { return e.stats.BytesMoved })
	counter("flowgo_placement_waves_total", "Placement waves run.", func() int64 { return int64(e.wave) })
	reg.GaugeFunc("flowgo_parked_tasks", "Tasks parked by the availability policy.", "", e.read(func() int64 { return int64(e.parked) }))
}

// read wraps f, which reads engine state, in one e.mu acquisition.
func (e *Engine) read(f func() int64) func() int64 {
	return func() int64 {
		e.mu.Lock()
		defer e.unlock()
		return f()
	}
}

// stepCheck, when a test sets it, inspects the engine at every release
// of e.mu by an engine call, with the lock still held. Nil in production.
var stepCheck atomic.Pointer[func(*Engine)]

// unlock releases e.mu, after stepCheck's look when one is set.
func (e *Engine) unlock() {
	if f := stepCheck.Load(); f != nil {
		(*f)(e)
	}
	e.mu.Unlock()
}

// producerLocked returns the last-registered task writing k. Only the
// recovery and availability paths ask, so the index is built from the
// task table, in registration order, on their first query, and addLocked
// keeps it current from then on; a run in which no input ever lacks a
// replica never builds it. Every asker has a registry, so no task's keys
// have been dropped.
func (e *Engine) producerLocked(k deps.Version) (*Task, bool) {
	if e.producer == nil {
		e.producer = make(map[deps.Version]*Task)
		for _, t := range e.tasks.all {
			for _, o := range t.OutputKeys {
				e.producer[o] = t
			}
		}
	}
	t, ok := e.producer[k]
	return t, ok
}

// ReadyCount returns the number of queued ready tasks (the elasticity
// managers' pending-load signal). Lock-free: the count is maintained
// atomically alongside the bucket state.
func (e *Engine) ReadyCount() int {
	return int(e.readyN.Load())
}

// logLocked appends t's record as it stands to an open checkpoint log:
// registration and every transition, epoch bump or completion, after it.
func (e *Engine) logLocked(t *Task) {
	if e.log != nil {
		e.log = append(e.log, snapLocked(t))
	}
}

// Stats returns the activity counters as a mutually consistent snapshot:
// every counter mutation happens under the engine mutex, and the whole
// struct is copied out under one acquisition, so cross-counter
// invariants hold in the returned value even while the engine is mid-run
// (Steals ≤ Launched, Reexecuted ≤ Completed, Woken ≤ Deferred — a
// reader never observes the increment of one side without the other).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.unlock()
	return e.stats
}

// RecordAdmission adds admission-control outcomes to the engine's books.
// The admission layer sits in front of submission (internal/autoscale),
// so the backends report its queue/reject counts here rather than the
// engine observing them itself.
func (e *Engine) RecordAdmission(queued, rejected int) {
	e.mu.Lock()
	e.stats.AdmitQueued += queued
	e.stats.AdmitRejected += rejected
	e.unlock()
}

// SigLoad is one non-empty ready bucket's demand and supply snapshot:
// how many tasks of the signature are queued, and how many pool nodes
// could currently fit one (Fit, the index's exact saturation counter)
// or are capable at all (Capable, cordons and load ignored). A starved
// signature — Ready > 0, Capable == 0 — is the autoscaler's strongest
// grow signal: queued work no pool node could ever take. Fit == 0 with
// Capable > 0 is mere saturation.
type SigLoad struct {
	Sig         string
	Constraints resources.Constraints
	Ready       int
	Fit         int
	Capable     int
}

// SigLoads returns one entry per non-empty ready bucket, in signature
// order — deterministic for a given engine state. Constraints are taken
// from the bucket's head task (placeability depends only on the
// signature, so any member's constraints are the signature's).
func (e *Engine) SigLoads() []SigLoad {
	e.mu.Lock()
	defer e.unlock()
	out := make([]SigLoad, 0, len(e.sigs))
	for _, b := range e.sigs {
		if len(b.q) == 0 {
			continue
		}
		out = append(out, SigLoad{
			Sig: b.idx.Label(), Constraints: b.q[0].Constraints,
			Ready: len(b.q), Fit: b.idx.FitCount(), Capable: b.idx.Len(),
		})
	}
	return out
}

// Timing is one task's latency milestones on the engine clock. Every
// field after Submit is the FIRST time the transition happened — a
// recovery re-execution never rewrites them — and is -1 when the task
// has not reached that state. Queue wait is Start−Ready; end-to-end
// latency is Done−Submit.
type Timing struct {
	// ID is the task's graph-unique ID; Class its registered type name.
	ID    int64
	Class string
	// Submit is when the task entered the engine (Add).
	Submit time.Duration
	// Ready is when its last dependency (or synthetic hold) cleared.
	Ready time.Duration
	// Start is when it was first placed on a node.
	Start time.Duration
	// Done is when it first completed.
	Done time.Duration
}

// Timings returns the latency milestones of every registered task, in
// registration order. The slice is freshly allocated; call it after the
// run drains (or at any quiescent point) for a consistent view.
func (e *Engine) Timings() []Timing {
	e.mu.Lock()
	defer e.unlock()
	out := make([]Timing, 0, len(e.tasks.all))
	for _, t := range e.tasks.all {
		out = append(out, Timing{
			ID: t.ID, Class: t.Class,
			Submit: t.submitAt, Ready: t.readyAt,
			Start: t.firstStart, Done: t.doneAt,
		})
	}
	return out
}

// ErrDuplicateID refuses a task whose ID is already registered.
var ErrDuplicateID = errors.New("engine: duplicate task ID")

// Add registers tasks under a single lock acquisition, in slice order,
// so dependencies may point at earlier batch members. producers[i] lists
// the tasks ts[i] must wait for (from the access processor); producers
// already completed — or unknown to the engine — count as satisfied.
// holds[i] adds synthetic dependencies on ts[i], cleared later through
// ReleaseHold (delayed-release arrivals, admission-queued submissions); a
// nil holds means none anywhere. Add does not trigger placement — it
// reports whether any task went straight to the ready queue, so the caller
// knows whether a Schedule is worthwhile — and returns the first refused
// task's error; the rest of the batch is registered regardless.
func (e *Engine) Add(ts []*Task, producers [][]deps.TaskID, holds []int) (ready bool, err error) {
	e.mu.Lock()
	defer e.unlock()
	for i, t := range ts {
		h := 0
		if holds != nil {
			h = holds[i]
		}
		r, addErr := e.addLocked(t, producers[i], h)
		ready = ready || r
		if err == nil {
			err = addErr
		}
	}
	e.wireLocked()
	return ready, err
}

// edge is one resolved dependency: t waits for p.
type edge struct{ p, t *Task }

// addLocked registers t and counts its edges; the caller follows its last
// addLocked with wireLocked, which hangs every counted edge on its
// producer. Splitting the two lets a batch size each producer's list once.
func (e *Engine) addLocked(t *Task, producers []deps.TaskID, holds int) (bool, error) {
	if e.tasks.get(t.ID) != nil {
		return false, fmt.Errorf("%w: %d", ErrDuplicateID, t.ID)
	}
	t.sig = e.cfg.Pool.IndexFor(t.Constraints).ID()
	t.state = Pending
	t.submitAt = e.cfg.Clock.Now()
	t.readyAt, t.firstStart, t.doneAt = -1, -1, -1
	e.logLocked(t)
	for _, d := range producers {
		if p := e.tasks.get(int64(d)); p != nil && !p.completed {
			if p.fanOut++; len(p.dependents) == 0 {
				e.freshEdges++
			}
			e.edges = append(e.edges, edge{p, t})
			t.waitCount++
		}
	}
	t.holds = int32(holds)
	if early := e.earlyHolds[t.ID]; early > 0 { // releases that overtook this registration
		delete(e.earlyHolds, t.ID)
		t.holds = max(t.holds-early, 0)
	}
	t.waitCount += t.holds
	if e.producer != nil {
		for _, k := range t.OutputKeys {
			e.producer[k] = t
		}
	}
	e.tasks.add(t)
	if t.waitCount == 0 {
		t.state = Ready
		e.pushReadyLocked(t)
		return true, nil
	}
	return false, nil
}

// wireLocked hangs the edges addLocked counted on their producers, in
// registration order. A producer with no dependents yet gets its list
// carved — cap == len, so a later append copies out — from one array shared
// by the whole call; one that has some grows once, by what the call adds.
func (e *Engine) wireLocked() {
	room := make([]*Task, e.freshEdges)
	for _, ed := range e.edges {
		p := ed.p
		if n := int(p.fanOut); n > 0 { // first sighting: make room for all n
			if len(p.dependents) == 0 {
				p.dependents, room = room[:0:n], room[n:]
			} else {
				p.dependents = slices.Grow(p.dependents, n)
			}
			p.fanOut = 0
		}
		p.dependents = append(p.dependents, ed.t)
	}
	clear(e.edges) // scratch must not pin tasks
	e.edges, e.freshEdges = e.edges[:0], 0
}

// ReleaseHold clears one synthetic dependency of a pending task and
// reports whether the task became ready (in which case the caller should
// Schedule). Holds are counted apart from producer edges, so a surplus
// release is refused instead of eating an unmet input. A release for an
// ID not registered yet is banked for its Add, which then reports the
// task ready itself.
func (e *Engine) ReleaseHold(id int64) bool {
	e.mu.Lock()
	defer e.unlock()
	t := e.tasks.get(id)
	if t == nil {
		if e.earlyHolds == nil {
			e.earlyHolds = make(map[int64]int32)
		}
		e.earlyHolds[id]++
		return false
	}
	if t.holds == 0 {
		return false
	}
	t.holds--
	return e.edgeClearedLocked(t)
}

// edgeClearedLocked drops one of t's waits and queues it when that was
// the last; it reports whether t became ready.
func (e *Engine) edgeClearedLocked(t *Task) bool {
	t.waitCount--
	if t.waitCount != 0 || t.state != Pending {
		return false
	}
	t.state = Ready
	e.pushReadyLocked(t)
	return true
}

// pushReadyLocked inserts a ready task into its signature bucket, keeping
// the bucket ordered by (priority desc, ID asc). Priority is evaluated
// once, at push time (for prioritising policies). The push logs the task's
// record (a Pending→Ready transition is snapshot-relevant) and, mid-wave,
// re-admits a refilled bucket into the wave's candidate view.
func (e *Engine) pushReadyLocked(t *Task) {
	e.logLocked(t)
	if t.readyAt < 0 {
		t.readyAt = e.cfg.Clock.Now()
	}
	if e.prio != nil {
		t.prio = e.prio.Priority(e.viewLocked(t), e.cfg.SchedContext)
	}
	for int(t.sig) >= len(e.ready) {
		e.ready = append(e.ready, nil)
	}
	b := e.ready[t.sig]
	if b == nil {
		idx := e.cfg.Pool.IndexFor(t.Constraints)
		b = &bucket{idx: idx}
		e.ready[t.sig] = b
		if reg := e.cfg.Metrics; reg != nil {
			reg.GaugeFunc("flowgo_ready_depth", "Ready-queue depth per constraint signature.",
				obsv.Labels("sig", idx.Label()), e.read(func() int64 { return int64(len(b.q)) }))
		}
		pos := sort.Search(len(e.sigs), func(i int) bool { return e.sigs[i].idx.Label() >= idx.Label() })
		e.sigs = slices.Insert(e.sigs, pos, b)
	}
	if e.waveActive && b.seen != e.wave && b.blocked != e.wave {
		// A bucket that drained (or never existed) earlier in this wave
		// just refilled — availability recomputes resubmit producers into
		// the running wave. Blocked buckets stay out: nothing unblocks a
		// signature until the next wave.
		b.seen = e.wave
		e.cand = append(e.cand, b)
	}
	// The common case (ascending IDs, equal priority) belongs at the tail
	// and costs one comparison; only an out-of-order push searches.
	at := len(b.q)
	if at > 0 && headLess(t, b.q[at-1]) {
		at = sort.Search(at, func(i int) bool { return headLess(t, b.q[i]) })
	}
	b.insert(at, t)
	e.readyN.Add(1)
}

// headLess orders bucket heads: multi-node first, then higher priority,
// then lower ID.
func headLess(a, b *Task) bool {
	an, bn := a.Constraints.EffectiveNodes(), b.Constraints.EffectiveNodes()
	if an != bn {
		return an > bn
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.ID < b.ID
}

// viewLocked fills the scratch scheduler-facing summary of a task. The
// returned pointer is only valid until the next call; policies read it
// during the decision and never retain it.
func (e *Engine) viewLocked(t *Task) *sched.TaskView {
	e.view = sched.TaskView{
		ID:          t.ID,
		Class:       t.Class,
		Constraints: t.Constraints,
		EstDuration: t.EstDuration,
		InputKeys:   t.InputKeys,
		InputBytes:  t.InputBytes,
	}
	return &e.view
}

// Schedule runs one placement wave: best queue head first, until every
// signature is blocked or the buckets drain. Executor.Launch is invoked
// after the engine lock is released, in placement order. An empty ready
// set returns without touching either lock — the common case on a
// completion storm whose successors are not yet released, and the reason
// a million-task drain does not serialise on wave setup.
func (e *Engine) Schedule() {
	if e.readyN.Load() == 0 {
		return
	}
	e.launchMu.Lock()
	e.mu.Lock()
	e.launch = e.placeWaveLocked(e.launch[:0])
	e.unlock()
	for _, p := range e.launch {
		e.cfg.Executor.Launch(p)
	}
	e.launchMu.Unlock()
}

// placeWaveLocked is the placement loop, appending into placed. A head
// that cannot be placed blocks its whole signature for the rest of the
// wave: placeability depends only on the constraint signature, so its
// siblings cannot be placed either — except through a policy decline,
// which is task-specific; the steal phase below revisits those. A wave
// whose placements staged replicas some parked task is waiting for wakes
// those waiters and runs again (fresh wave, blocked flags reset), so
// data made reachable by ordinary staging releases deferred work without
// waiting for a heal.
func (e *Engine) placeWaveLocked(placed []Placement) []Placement {
	if e.readyN.Load() == 0 {
		return placed
	}
	e.waveActive = true
	defer func() { e.waveActive = false }()
	m := e.met
	for {
		e.wave++
		// Wave shape metrics. Duration is on the engine clock: zero in the
		// simulator (virtual time stands still inside a wave), wall time
		// live. The Now() calls are skipped entirely when metrics are off.
		var waveStart time.Duration
		if m.WaveSeconds != nil {
			waveStart = e.cfg.Clock.Now()
		}
		waveBase := len(placed)
		// Build this wave's candidate view once: every non-empty bucket.
		// The selection loop below scans and compacts this view instead of
		// rescanning every signature ever registered per placement — on a
		// graph that has accumulated thousands of signatures but has a
		// handful live, that is the difference between O(placements ×
		// live) and O(placements × everything).
		e.cand = e.cand[:0]
		for _, b := range e.sigs {
			if len(b.q) > 0 {
				b.seen = e.wave
				e.cand = append(e.cand, b)
			}
		}
		for {
			var bestB *bucket
			var best *Task
			live := e.cand[:0]
			for _, b := range e.cand {
				if b.blocked == e.wave {
					continue // parked for the wave; drops out of the view
				}
				if len(b.q) == 0 {
					b.seen = 0 // drained; a mid-wave refill re-admits it
					continue
				}
				live = append(live, b)
				if t := b.q[0]; best == nil || headLess(t, best) {
					bestB, best = b, t
				}
			}
			e.cand = live
			if best == nil {
				break
			}
			p, outcome := e.placeLocked(best)
			switch outcome {
			case placeOK:
				placed = append(placed, p)
				bestB.pop()
				e.readyN.Add(-1)
			case placeUnavailable:
				// The head's inputs are unreachable: divert it into the
				// availability wait set (which may resubmit producers into
				// this very wave) and keep placing — unavailability is
				// task-specific, so the bucket is not blocked.
				bestB.pop()
				e.readyN.Add(-1)
				m.DeclineUnavailable.Inc()
				e.divertUnavailableLocked(best)
			case placeNoCapacity:
				bestB.blocked = e.wave
				m.DeclineNoCapacity.Inc()
			default:
				bestB.blocked = e.wave
				m.DeclineDeclined.Inc()
			}
		}
		if e.cfg.Steal.Mode != StealOff && e.readyN.Load() > 0 {
			placed = e.stealWaveLocked(placed)
		}
		m.WaveSize.Observe(float64(len(placed) - waveBase))
		if m.WaveSeconds != nil {
			m.WaveSeconds.ObserveDuration(e.cfg.Clock.Now() - waveStart)
		}
		if len(e.pendingWakes) == 0 {
			return placed
		}
		woken := 0
		for _, k := range e.pendingWakes {
			woken += e.wakeKeyWaitersLocked(k)
		}
		e.pendingWakes = e.pendingWakes[:0]
		if woken == 0 {
			return placed
		}
	}
}

// stealWaveLocked is the work-stealing phase of a placement wave: every
// bucket the wave parked is re-scanned from the tail (the deepest,
// lowest-priority entry) towards — but never including — the head, and
// each entry is offered to whatever capacity the wave left idle through
// the ordinary placement path. The head is never stolen: it keeps its
// priority claim on the tier it is waiting for, and everything that is
// not stolen keeps its bucket order. A signature-wide capacity failure
// ends the bucket's scan at once — nothing shallower can fit either.
//
// A stolen task is indistinguishable from a normally placed one to the
// rest of the engine: same reservation, staging, epoch and trace
// choreography, so FailNode/Partition recovery applies to it unchanged.
func (e *Engine) stealWaveLocked(placed []Placement) []Placement {
	for _, b := range e.sigs {
		if b.blocked != e.wave || len(b.q)-1 <= e.cfg.Steal.Threshold {
			continue
		}
		for i := len(b.q) - 1; i >= 1; i-- {
			t := b.q[i]
			e.met.StealAttempts.Inc()
			p, outcome := e.placeLocked(t)
			if outcome == placeNoCapacity {
				break
			}
			if outcome == placeDeclined || outcome == placeUnavailable {
				// Unavailable entries are left queued rather than parked:
				// diverting would mutate the bucket mid-scan, and the
				// entry is classified properly once it reaches the head.
				continue
			}
			b.q = append(b.q[:i], b.q[i+1:]...)
			e.readyN.Add(-1)
			e.stats.Steals++
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Record(trace.Event{
					At: e.cfg.Clock.Now(), Kind: trace.TaskStolen, Task: t.ID,
					Node: p.Primary().Name(), Info: b.idx.Label(),
				})
			}
			placed = append(placed, p)
		}
	}
	return placed
}

// placeOutcome distinguishes why a placement attempt failed: capacity
// failures are signature-wide (every sibling of the task fails too),
// policy declines are task-specific (a sibling may still be accepted —
// the distinction work stealing runs on).
type placeOutcome int

const (
	placeOK placeOutcome = iota
	placeNoCapacity
	placeDeclined
	// placeUnavailable reports that the chosen primary cannot obtain at
	// least one input (lost or partitioned) and the availability policy
	// is not run-anyway; the attempt's classification is left in
	// e.availMissing / e.availPrimary for divertUnavailableLocked.
	placeUnavailable
)

// placeLocked tries to start one task now: policy choice, availability
// classification, group reservation, input staging.
func (e *Engine) placeLocked(t *Task) (Placement, placeOutcome) {
	need := t.availNeed()
	hinted := need != "" && e.cfg.Net != nil
	capFail := placeNoCapacity
	if hinted {
		capFail = placeDeclined
	}
	wantNodes := t.Constraints.EffectiveNodes()

	// The policy chooses among the fitting nodes once, at this one site.
	// An unhinted single-node task's candidates are read through the
	// signature's index, and no list is built unless the policy asks for
	// one; a hinted task's and a group's are listed, because the hint
	// filters them and the group draws its peers from them.
	idx := e.ready[t.sig].idx // t is queued, so its bucket exists
	cands := idx.Candidates(t.Constraints, &e.fitScratch)
	var fitting []*resources.Node // the listed candidates; nil while read through the index
	if hinted || wantNodes > 1 {
		if hinted {
			// Availability-recompute hint: this is a producer resubmitted for
			// a consumer stranded behind a cut, so only nodes that can reach
			// the consumer's side produce a useful replica. A capacity
			// failure under the hint filter is task-specific — unhinted
			// siblings may still fit the excluded nodes — so it is reported
			// as a decline, not a signature-wide failure.
			cands = cands.Filter(func(n *resources.Node) bool { return e.cfg.Net.Reachable(n.Name(), need) })
		}
		fitting = cands.Nodes()
		if len(fitting) < wantNodes {
			return Placement{}, capFail
		}
		// A bufferless view: a policy that filters it builds its own list
		// and leaves fitting, which the peers and the re-offer read, alone.
		cands = resources.ListCandidates(fitting)
	} else if idx.FitCount() == 0 {
		return Placement{}, placeNoCapacity
	}
	primary := e.cfg.Policy.Choose(e.viewLocked(t), cands, e.cfg.SchedContext)
	if primary == nil {
		return Placement{}, placeDeclined
	}

	// Classify inputs against the chosen primary before reserving
	// anything: reachable inputs get a fetch plan; partitioned ones —
	// and lost ones with a registered producer — are handed to the
	// availability policy. A missing key with no producer is external
	// data the run never staged (or lost for good): no policy can bring
	// it back, so it keeps the historical run-anyway semantics and is
	// not counted as an actionable miss. Under run-anyway the launch
	// proceeds regardless — the recovery path covers lost data whose
	// producers are mid-resubmission, and partitioned data is simply
	// (observably) absent.
	var plan transfer.Plan
	if e.mgr != nil {
		plan = e.mgr.PlanFetch(primary.Name(), t.InputKeys)
		if actionable := e.actionableMissesLocked(plan); len(actionable) > 0 && e.cfg.Availability != AvailRunAnyway {
			// The chosen primary cannot be fed, but another fitting node
			// may well be — the replica's own node, or one on the right
			// side of the cut. Re-offer the choice over the feedable
			// subset before giving up on the task for this wave. A
			// placement read through the index lists its candidates only
			// in this (rare) branch.
			if fitting == nil {
				fitting = cands.Nodes()
			}
			if alt, altPlan, ok := e.feedablePickLocked(t, fitting, primary); ok {
				primary, plan = alt, altPlan
			} else if e.feedableCapableLocked(t) {
				// Some node that could ever run the task can be fed — the
				// shortfall is busy capacity (or a policy decline), not
				// the partition. Parking would be a trap: capacity
				// release is not an availability wake source, so leave
				// the task queued for the next completion wave instead.
				return Placement{}, placeDeclined
			} else {
				e.availMissing = append(e.availMissing[:0], actionable...)
				e.availPrimary = primary.Name()
				return Placement{}, placeUnavailable
			}
		}
	}

	// Only a multi-node group materializes peers; the common placement
	// reserves the primary and allocates nothing.
	var peers []*resources.Node
	for _, n := range fitting {
		if n != primary && len(peers) < wantNodes-1 {
			peers = append(peers, n)
		}
	}
	if len(peers) < wantNodes-1 {
		return Placement{}, capFail
	}
	if primary.Reserve(t.Constraints) != nil {
		return Placement{}, capFail
	}
	for i, n := range peers {
		if n.Reserve(t.Constraints) != nil {
			primary.Release(t.Constraints)
			for _, done := range peers[:i] {
				done.Release(t.Constraints)
			}
			return Placement{}, capFail
		}
	}

	// Stage the planned inputs onto the primary node.
	var staging time.Duration
	if e.mgr != nil {
		e.mgr.Apply(plan)
		// A staged copy may be the very replica a parked task waits for
		// (now fetchable from this side of a cut). Wakes are queued and
		// processed between waves: waking mid-steal would mutate the
		// bucket a scan is walking.
		for _, mv := range plan.Moves {
			if _, waited := e.waiters[mv.Key]; waited {
				e.pendingWakes = append(e.pendingWakes, mv.Key)
			}
		}
		staging = plan.Time
		e.stats.Transfers += len(plan.Moves)
		e.stats.BytesMoved += plan.Bytes
		e.stats.TransferTime += plan.Time
		if len(plan.Moves) > 0 {
			e.met.FetchSeconds.ObserveDuration(plan.Time)
		}
		if plan.Bytes > 0 && e.cfg.Tracer != nil {
			e.cfg.Tracer.Record(trace.Event{
				At: e.cfg.Clock.Now(), Kind: trace.DataTransfer, Task: t.ID,
				Node: primary.Name(), Arg: plan.Bytes,
			})
		}
		if actionable := e.actionableMissesLocked(plan); len(actionable) > 0 {
			e.stats.RanMissing++
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Record(trace.Event{
					At: e.cfg.Clock.Now(), Kind: trace.DataUnavailable, Task: t.ID,
					Node: primary.Name(), Arg: int64(len(actionable)),
				})
			}
		}
	}

	t.state = Running
	t.started = e.cfg.Clock.Now()
	if t.firstStart < 0 {
		t.firstStart = t.started
	}
	t.epoch++
	e.logLocked(t)
	if t.node = primary; len(peers) > 0 {
		t.coldRec().peers = peers
	}
	slow := 1.0
	if len(e.slow) > 0 {
		slow = max(slow, e.slow[primary.Name()])
		for _, n := range peers {
			slow = max(slow, e.slow[n.Name()]) // a group runs at its slowest member
		}
	}
	e.stats.Launched++
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Record(trace.Event{
			At: e.cfg.Clock.Now(), Kind: trace.TaskStarted, Task: t.ID,
			Node: primary.Name(), Info: t.Class,
		})
	}
	return Placement{Task: t, Node: primary, Peers: peers, Epoch: int(t.epoch), TransferTime: staging, SlowFactor: slow}, placeOK
}

// Complete finishes a running task: reservations are released, outputs
// are registered on the primary node (and the persistence tier), and — in
// one lock acquisition — every successor is released, with the newly
// ready ones pushed into their buckets. Stale completions (epoch mismatch
// after a failure) report ok = false and have no effect. failed marks the
// execution as errored: outputs are not registered and the trace records
// TaskFailed. The caller should Schedule afterwards.
func (e *Engine) Complete(id int64, epoch int, failed bool) (Completion, bool) {
	e.mu.Lock()
	defer e.unlock()
	return e.completeLocked(e.tasks.get(id), epoch, failed)
}

// CompleteSchedule is Complete immediately followed by a placement wave,
// sharing one lock acquisition — the completion fast path for backends
// that do not coalesce waves.
func (e *Engine) CompleteSchedule(id int64, epoch int, failed bool) (Completion, bool) {
	e.launchMu.Lock()
	e.mu.Lock()
	c, ok := e.completeLocked(e.tasks.get(id), epoch, failed)
	e.launch = e.placeWaveLocked(e.launch[:0])
	e.unlock()
	for _, p := range e.launch {
		e.cfg.Executor.Launch(p)
	}
	e.launchMu.Unlock()
	return c, ok
}

func (e *Engine) completeLocked(t *Task, epoch int, failed bool) (Completion, bool) {
	if t == nil || t.state != Running || int(t.epoch) != epoch {
		return Completion{}, false
	}
	c := Completion{Task: t, Ran: e.cfg.Clock.Now() - t.started}
	// A completion can race a concurrent FailNode on the live backend: a
	// member that left the pool meanwhile is neither released nor reported.
	primary := t.node.Name()
	if e.cfg.Pool.Release(t.node, t.Constraints) {
		c.Node = t.node
	}
	for _, n := range t.peers() {
		if e.cfg.Pool.Release(n, t.Constraints) {
			c.Peers = append(c.Peers, n)
		}
	}
	if !failed && e.cfg.Registry != nil {
		// If the primary left the pool, its replicas were already dropped
		// and must not be re-registered on the dead node — the output
		// survives only on the persist tier.
		for _, k := range t.OutputKeys {
			if c.Node != nil {
				e.cfg.Registry.AddReplica(k, primary)
			}
			if e.cfg.PersistNode != "" && e.cfg.PersistNode != primary {
				e.cfg.Registry.AddReplica(k, e.cfg.PersistNode)
				if e.cfg.Tracer != nil {
					e.cfg.Tracer.Record(trace.Event{
						At: e.cfg.Clock.Now(), Kind: trace.DataPersisted, Task: t.ID, Node: e.cfg.PersistNode,
					})
				}
			}
			// A fresh replica may be exactly what a parked task is waiting
			// for (the availability-recompute hand-off): wake its waiters
			// and let the next wave re-classify.
			e.wakeKeyWaitersLocked(k)
		}
	}
	if e.cfg.Tracer != nil {
		kind := trace.TaskCompleted
		if failed {
			kind = trace.TaskFailed
		}
		e.cfg.Tracer.Record(trace.Event{At: e.cfg.Clock.Now(), Kind: kind, Task: t.ID, Node: primary})
	}
	e.stats.Completed++
	if failed {
		e.failed++
	}

	if t.doneAt < 0 {
		t.doneAt = e.cfg.Clock.Now()
	}
	t.node = nil
	if c.First = e.doneLocked(t); !c.First {
		e.stats.Reexecuted++
	}
	if cold := t.cold; cold != nil {
		cold.peers = nil
		cold.availNeed = "" // a recompute hint is spent once the producer completes
		// Wake tasks waiting on this re-execution (recovery).
		for dt := range cold.redeps {
			e.edgeClearedLocked(dt)
		}
		cold.redeps = nil
	}
	return c, true
}

// doneLocked marks t Done — by a live completion or a restored one — and
// reports whether it is t's first. A first completion releases every
// successor under this single lock acquisition; the edge list is consumed
// (releases happen once), so it is dropped to keep long-lived graphs lean.
func (e *Engine) doneLocked(t *Task) (first bool) {
	first = !t.completed
	t.completed, t.state = true, Done
	e.logLocked(t)
	if first {
		for _, dt := range t.dependents {
			e.edgeClearedLocked(dt)
		}
		t.dependents = nil
	}
	if e.cfg.Registry == nil {
		// Without a replica registry there is no recovery resubmission,
		// so a done task's access keys are dead weight.
		t.InputKeys, t.OutputKeys = nil, nil
	}
	return first
}

// killRunningOn invalidates every running task that reserved the named
// node (which the caller has already removed from the pool): reservations
// on surviving group members are released, the pending completion event
// is invalidated through the epoch, and the task returns to Pending with
// no waits — ready for resubmit. The killed tasks are returned in
// registration order.
func (e *Engine) killRunningOn(name string) []*Task {
	e.mu.Lock()
	defer e.unlock()
	var killed []*Task
	for _, t := range e.tasks.all {
		if t.state != Running {
			continue
		}
		named := func(n *resources.Node) bool { return n.Name() == name }
		if !named(t.node) && !slices.ContainsFunc(t.peers(), named) {
			continue
		}
		for _, n := range t.peers() {
			if !named(n) {
				e.cfg.Pool.Release(n, t.Constraints)
			}
		}
		if !named(t.node) {
			e.cfg.Pool.Release(t.node, t.Constraints)
		}
		if t.node = nil; t.cold != nil {
			t.cold.peers = nil
		}
		t.state = Pending
		t.waitCount = 0
		t.epoch++ // invalidate the in-flight completion event
		e.logLocked(t)
		killed = append(killed, t)
	}
	return killed
}

// dropReadyMissingInputs removes from the buckets every ready task that
// has an input version with no replica left but a known producer (data
// lost to a node failure), returning them reset to Pending so the caller
// can resubmit each. Tasks whose missing inputs have no producer are left
// queued: the data was external and nothing can recompute it.
func (e *Engine) dropReadyMissingInputs() []*Task {
	e.mu.Lock()
	defer e.unlock()
	if e.cfg.Registry == nil {
		return nil
	}
	var dropped []*Task
	for _, b := range e.sigs {
		still := b.q[:0]
		for _, t := range b.q {
			if e.missingProducerLocked(t) {
				t.state = Pending
				t.waitCount = 0
				e.readyN.Add(-1)
				e.logLocked(t)
				dropped = append(dropped, t)
				continue
			}
			still = append(still, t)
		}
		b.q = still
	}
	return dropped
}

// missingProducerLocked reports whether t reads a version that lost every
// replica and has a registered producer to recompute it.
func (e *Engine) missingProducerLocked(t *Task) bool {
	for _, k := range t.InputKeys {
		if len(e.cfg.Registry.Where(k)) > 0 {
			continue
		}
		if _, ok := e.producerLocked(k); ok {
			return true
		}
	}
	return false
}

// resubmit queues a task for (re-)execution, recursively resubmitting the
// producers of any input versions that lost every replica — the recompute-
// lineage recovery path. Tasks that are already queued or running are left
// alone. The caller should Schedule afterwards.
func (e *Engine) resubmit(id int64) {
	e.mu.Lock()
	defer e.unlock()
	if t := e.tasks.get(id); t != nil {
		e.resubmitLocked(t)
	}
}

func (e *Engine) resubmitLocked(t *Task) {
	switch t.state {
	case Ready, Running:
		return
	case Pending:
		if t.waitCount > 0 {
			return // already mid-resubmission (or waiting on live deps)
		}
	case Parked:
		// A parked task re-entering the lineage path leaves the
		// availability wait set; its unreachable inputs are re-classified
		// below (lost ones recompute, partitioned ones re-park at
		// placement).
		e.unparkLocked(t)
		fallthrough
	case Done:
		t.state = Pending
		t.waitCount = 0
		e.logLocked(t)
	}
	for _, k := range t.InputKeys {
		if e.cfg.Registry == nil || len(e.cfg.Registry.Where(k)) > 0 {
			continue
		}
		pt, ok := e.producerLocked(k)
		if !ok {
			continue // external data lost for good; nothing to recompute
		}
		cold := pt.coldRec()
		if _, dup := cold.redeps[t]; !dup {
			if cold.redeps == nil {
				cold.redeps = make(map[*Task]struct{})
			}
			cold.redeps[t] = struct{}{}
			t.waitCount++
		}
		e.resubmitLocked(pt)
	}
	if t.waitCount == 0 {
		t.state = Ready
		e.pushReadyLocked(t)
	}
}
