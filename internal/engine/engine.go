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
	"fmt"
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
type State int8

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
	// Parked tasks wait on the parked list: every replica of at least one
	// input is lost or partitioned away, and Config.Availability chose to
	// hold the task until a heal or a fresh replica wakes it.
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
	// Constraints are the placement requirements: nil for none, a
	// resources.Constraints value, or a *resources.Constraints that Add
	// only reads. Add replaces them with a *resources.Constraints to the
	// engine's one record of the signature, which nobody edits, so the
	// task keeps no caller memory and the record is shared, not copied.
	Constraints resources.ConstraintRef
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
	// with the flag and the state.
	sig        resources.SigID // interned constraint signature (index into Engine.ready)
	waitCount  int32           // unmet producer edges + outstanding holds
	holds      int32           // synthetic dependencies only ReleaseHold clears
	fanOut     int32           // dependents registered but not yet wired (zero outside Add)
	epoch      int32           // placement counter
	completed  bool            // completed at least once
	state      State
	prio       float64
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
	// the one dataClay-style persistence tier, which makes recovery cheap.
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
	// Deferred counts park events: placement attempts diverted onto the
	// parked list (a task woken optimistically and re-parked counts
	// again).
	Deferred int
	// Woken counts releases from the parked list back to the ready queue
	// (heals, fresh replicas, failure sweeps).
	Woken int
	// AvailRecomputes counts producer resubmissions triggered by
	// AvailRecompute placement decisions (every one also shows up in
	// Reexecuted when the producer had completed before).
	AvailRecomputes int
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
	// cons holds each signature's one constraint record, by SigID: what
	// Add points every task of the signature at.
	cons []*resources.Constraints
	wave int // placement-wave counter (bucket blocking)
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
	// The parked tasks, in park order, each holding the versions it awaits
	// in its cold record (see availability.go), plus the scratch a
	// placement attempt leaves for divertUnavailableLocked.
	parked       []*Task
	availMissing []deps.Version // scratch: last attempt's unavailable inputs
	availPrimary string         // scratch: last attempt's chosen primary
	pendingWakes []deps.Version // staged replicas some parked task awaits (processed between waves)
	stats        Stats
	failed       int                 // completions with failed set, also counted in stats.Completed
	met          *obsv.EngineMetrics // instruments for what only the metrics record
	view         sched.TaskView      // scratch view (guarded by mu; never retained)
	// Scratch buffers for the wave hot path (guarded by mu; never escape a
	// placement attempt — Placement.Peers is always a fresh allocation):
	// placeLocked's Candidates list and its primary's fetch plan.
	fitScratch  []*resources.Node
	capScratch  []*resources.Node
	planScratch []transfer.Move
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

// taskTable is the engine's one ID-keyed structure: every task in
// registration order, found by ID without hashing while IDs run
// consecutively from the first (what both backends produce) and through
// sparse otherwise. Only the ID-facing API resolves through it — the
// scheduling paths hold *Task.
type taskTable struct {
	all    []*Task
	sparse map[int64]int // the position of each task whose ID is not all[0].ID + its position
}

// pos returns the registration position of the task with the given ID.
func (tt *taskTable) pos(id int64) (int, bool) {
	if len(tt.all) > 0 {
		if i := id - tt.all[0].ID; i >= 0 && i < int64(len(tt.all)) && tt.all[i].ID == id {
			return int(i), true
		}
	}
	i, ok := tt.sparse[id]
	return i, ok
}

func (tt *taskTable) get(id int64) *Task {
	if i, ok := tt.pos(id); ok {
		return tt.all[i]
	}
	return nil
}

// add registers t; the caller has checked that its ID is free.
func (tt *taskTable) add(t *Task) {
	if n := len(tt.all); n > 0 && t.ID != tt.all[0].ID+int64(n) {
		if tt.sparse == nil {
			tt.sparse = make(map[int64]int)
		}
		tt.sparse[t.ID] = n
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
	reg.GaugeFunc("flowgo_parked_tasks", "Tasks parked by the availability policy.", "", e.read(func() int64 { return int64(len(e.parked)) }))
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

// ReadyCount returns the number of queued ready tasks (the elasticity
// managers' pending-load signal). Lock-free: the count is maintained
// atomically alongside the bucket state.
func (e *Engine) ReadyCount() int {
	return int(e.readyN.Load())
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
