// Package infra simulates an advanced cyberinfrastructure platform — the
// substitute for the paper's MareNostrum runs, cloud deployments and fog
// testbeds. It is a discrete-event backend over virtual time
// (internal/simclock) of the shared scheduling engine (internal/engine):
// tasks declare data accesses, the access processor derives the dependency
// graph, and the engine's sharded ready-queue and placement loop — the very
// same code the live runtime (internal/core) executes — place ready tasks
// on nodes, price transfers through the network model, and release
// dependents. This backend's Executor turns each placement into a
// completion event on the virtual clock, and energy is integrated per node.
//
// The simulator also models the paper's dynamic behaviours: elasticity
// (Sec. VI-A) with drain-then-remove downscaling that never kills running
// work, node failures with recovery through persisted data (Sec. VI-B,
// experiment E7), online learning of task durations (Sec. VI-C,
// experiment E8), scripted fault scenarios (Config.Faults) and the
// engine's cross-bucket work stealing (Config.Steal). The control plane —
// engine wiring, fault injection, checkpoints and restore, admission,
// autoscaling, periodic ticks — is internal/host, the same one the live
// runtime embeds, so behaviour studied here is behaviour the runtime
// executes; this package adds only the virtual-time executor and the
// result accounting it cannot read off the engine's and the host's
// books. See docs/ARCHITECTURE.md for the task lifecycle on each backend.
package infra

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/host"
	"repro/internal/resources"
	"repro/internal/simclock"
	"repro/internal/transfer"
)

// TaskSpec declares one task of a simulated workflow.
type TaskSpec struct {
	// ID must be unique and registration happens in slice order, so
	// dependencies always point to earlier specs.
	ID int64
	// Class names the task type (predictor key, trace label).
	Class string
	// Duration is the base compute time on a SpeedFactor-1 core.
	Duration time.Duration
	// Constraints are the resource requirements (paper Sec. VI-A).
	Constraints resources.Constraints
	// Accesses declare the data the task touches; the access processor
	// turns them into dependencies.
	Accesses []deps.Access
	// OutputBytes sizes the data versions this task writes (keyed by
	// DataID; applies to whichever version the write produces).
	OutputBytes map[deps.DataID]int64
	// Release keeps the task invisible to the scheduler until this
	// virtual instant (bursty arrivals, e.g. sensor-driven workloads).
	Release time.Duration
	// Tenant tags the task for admission control (Config.Admission);
	// empty means the default tenant.
	Tenant string
}

// Config assembles a simulation: the one option set both backends take
// (internal/host). Pool, Net and Policy are required; Provenance, which
// the live runtime records as values are bound, is refused.
type Config = host.Config

// Result summarises a simulation run.
type Result struct {
	// Makespan is the completion time of the last task.
	Makespan time.Duration
	// TasksCompleted counts task executions that finished (re-executions
	// count again).
	TasksCompleted int
	// TasksFailed counts executions killed by node failures.
	TasksFailed int
	// TasksReExecuted counts recovery re-runs of already-completed tasks
	// (recompute of lost data).
	TasksReExecuted int
	// TasksRestored counts tasks resolved from a checkpoint snapshot
	// instead of executing (Config.Restore).
	TasksRestored int
	// TasksDeferred counts placement attempts parked by the availability
	// policy (Config.Availability); TasksRanMissing counts launches that
	// proceeded with at least one unreachable input (the run-anyway
	// executions the defer/recompute policies eliminate).
	TasksDeferred   int
	TasksRanMissing int
	// ReplicasRestaged counts data versions a placement-aware restore
	// copied back from the persist tier because every node recorded as
	// holding them had left the pool (Config.Restore).
	ReplicasRestaged int
	// BytesMoved is the total payload transferred between nodes.
	BytesMoved int64
	// TransferTime is the summed transfer time on task critical paths.
	TransferTime time.Duration
	// ActiveEnergy and TotalEnergy are the energy figures (J).
	ActiveEnergy energy.Joules
	TotalEnergy  energy.Joules
	// BusyCoreSeconds integrates core occupancy.
	BusyCoreSeconds float64
	// Utilization is BusyCoreSeconds over pool capacity × makespan.
	Utilization float64
	// PeakNodes is the largest pool size observed (elasticity).
	PeakNodes int
	// NodeSeconds integrates pool size over time (cost proxy for E11).
	NodeSeconds float64
	// DepEdges counts dependency edges by kind (RAW only unless
	// DisableRenaming is set).
	DepEdges deps.Stats
}

// Sim is one simulation instance. Build with New, then Run once.
type Sim struct {
	*host.Host // control plane: faults, checkpoints, admission, autoscale, ticks

	cfg   Config
	clock *simclock.Clock
	reg   *transfer.Registry
	acct  *energy.Accountant
	proc  *deps.Processor
	eng   *engine.Engine

	result        Result
	releases      []release // armed on the clock at their instant
	admitStart    []release // submitted to admission at time zero
	nodeAdded     map[string]time.Duration
	remaining     int
	schedDeferred bool
	runDeferred   func() // the deferred placement wave, bound once
	idle          *flight
	halted        bool
	err           error
}

// registerWindow is how many tasks New registers per deps and engine
// batch: enough that a batch's few arrays vanish per task, few enough
// that the window's scratch does not show on a campaign's bill.
const registerWindow = 1024

// stuckDetail says why a drained clock left tasks: the policy declined
// ready tasks a node could run now, no node can run them, or they wait on
// unreachable data.
func (s *Sim) stuckDetail() string {
	ready, declined := 0, 0
	for _, l := range s.eng.SigLoads() {
		ready += l.Ready
		declined += l.Ready * min(l.Fit, 1)
	}
	switch parked := s.eng.ParkedCount(); {
	case declined > 0:
		return fmt.Sprintf(" (policy %s declined %d ready tasks a node could run)", s.cfg.Policy.Name(), declined)
	case ready > 0:
		return fmt.Sprintf(" (no node can run the %d ready tasks: unsatisfiable constraints or an empty pool)", ready)
	case parked > 0:
		return fmt.Sprintf(" (%d parked on unreachable data — a scripted cut never healed?)", parked)
	}
	return ""
}

// release delays a task's visibility to the scheduler.
type release struct {
	id     int64
	at     time.Duration
	tenant string
}

// Errors reported by Run.
var (
	ErrStuck  = errors.New("infra: tasks cannot be scheduled")
	ErrConfig = errors.New("infra: invalid config")
	// ErrDuplicateID is New's error for two specs with one ID.
	ErrDuplicateID = engine.ErrDuplicateID
	// ErrHalted reports a run stopped by Config.HaltAt — the simulated
	// process death of the crash-restart experiments. The partial result
	// is still returned; resume from the latest checkpoint snapshot.
	ErrHalted = errors.New("infra: run halted (simulated process death)")
)

// New validates the config and registers the workflow.
func New(cfg Config, specs []TaskSpec) (*Sim, error) {
	if cfg.Pool == nil || cfg.Net == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("%w: pool, net and policy are required", ErrConfig)
	}
	if cfg.ElasticEvery <= 0 {
		cfg.ElasticEvery = 10 * time.Second
	}
	if cfg.Admission != nil && cfg.Admission.Quota().MaxQueued > 0 {
		return nil, fmt.Errorf("%w: the simulator requires an unbounded admission queue (Quota.MaxQueued == 0)", ErrConfig)
	}
	if cfg.Provenance != nil {
		return nil, fmt.Errorf("%w: Provenance is recorded by the live runtime only (the simulator binds no values)", ErrConfig)
	}
	if cfg.Locations == nil {
		cfg.Locations = transfer.NewRegistry()
	}
	s := &Sim{
		cfg:       cfg,
		clock:     simclock.New(),
		reg:       cfg.Locations,
		acct:      energy.NewAccountant(),
		proc:      deps.NewProcessor(deps.Renaming(!cfg.DisableRenaming)),
		nodeAdded: make(map[string]time.Duration),
		remaining: len(specs),
	}
	var err error
	s.Host, err = host.New(cfg, host.Backend{Clock: s.clock, Timer: s.clock, Executor: &simExecutor{s}})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	s.eng = s.Engine()
	s.runDeferred = func() {
		s.schedDeferred = false
		s.eng.Schedule()
	}

	// Register the workflow a window at a time, through the access
	// processor and then the engine, in slice order: the engine sizes each
	// producer's dependents once per call, and the window's batch, results,
	// producers and holds are reused: what New leaves per task is its
	// record in one slab and the lists deps and the engine carve.
	tasks := make([]engine.Task, len(specs)) // one allocation for every task record
	n := min(len(specs), registerWindow)
	batch := make([]deps.TaskAccesses, n)
	var results []deps.Result
	ets := make([]*engine.Task, n)
	producers := make([][]deps.TaskID, n)
	holds := make([]int, n)
	for lo := 0; lo < len(specs); lo += n {
		win := specs[lo:min(lo+n, len(specs))]
		for i, spec := range win {
			batch[i] = deps.TaskAccesses{Task: deps.TaskID(spec.ID), Accesses: spec.Accesses}
		}
		results = s.proc.AppendBatch(results[:0], batch[:len(win)])
		for i, spec := range win {
			res, et := results[i], &tasks[lo+i]
			*et = engine.Task{
				ID:          spec.ID,
				Class:       spec.Class,
				Constraints: spec.Constraints,
				EstDuration: spec.Duration,
				InputKeys:   res.Reads,
				OutputKeys:  res.Writes,
			}
			for _, k := range res.Reads {
				et.InputBytes += s.reg.Size(k)
			}
			for _, k := range res.Writes {
				if size, ok := spec.OutputBytes[k.Data]; ok {
					s.reg.SetSize(k, size)
				}
			}
			// Release delays and admission gating share one synthetic
			// dependency: a released task re-submits through the admission
			// controller, so a tenant over quota stays held past its release
			// instant until a completion frees a slot.
			holds[i] = 0
			if spec.Release > 0 || cfg.Admission != nil {
				holds[i] = 1
				r := release{id: spec.ID, at: spec.Release, tenant: spec.Tenant}
				if spec.Release > 0 {
					s.releases = append(s.releases, r)
				} else {
					s.admitStart = append(s.admitStart, r)
				}
			}
			ets[i], producers[i] = et, res.Deps
		}
		if _, err := s.eng.Add(ets[:len(win)], producers[:len(win)], holds[:len(win)]); err != nil {
			return nil, err
		}
	}

	for _, n := range cfg.Pool.Nodes() {
		s.nodeAdded[n.Name()] = 0
	}
	// Every spec is registered: recorded completions resolve now, in
	// snapshot order, and their dependents release as if they had run.
	s.ResolveAll()
	s.remaining -= s.RestoredTasks()
	return s, nil
}

// simExecutor adapts the simulation to engine.Executor: each placement
// becomes a completion event on the virtual clock, delayed by the modelled
// staging time plus the speed-scaled compute time (stretched by any
// injected slow-node factor).
type simExecutor struct{ s *Sim }

// flight is one launched placement on its way to its completion event.
// Records are recycled through Sim.idle with their callback bound once,
// so a launch allocates nothing once enough exist. A placement a failure
// cancelled keeps its record (and stale epoch) until its event fires.
type flight struct {
	s     *Sim
	id    int64
	epoch int
	ran   time.Duration
	land  func() // f.finish, bound at creation
	next  *flight
}

// Launch implements engine.Executor.
func (x *simExecutor) Launch(p engine.Placement) {
	s := x.s
	sf := p.Primary().Desc().SpeedFactor
	if sf <= 0 {
		sf = 1
	}
	run := time.Duration(float64(p.Task.EstDuration) / sf)
	if p.SlowFactor > 1 {
		run = time.Duration(float64(run) * p.SlowFactor)
	}
	f := s.idle
	if f == nil {
		f = &flight{s: s}
		f.land = f.finish
	} else {
		s.idle = f.next
	}
	f.id, f.epoch, f.ran = p.Task.ID, p.Epoch, run
	s.clock.After(p.TransferTime+run, f.land)
}

// finish handles one completion event. Stale events (from a placement
// that a node failure cancelled) are rejected by the engine's epoch check.
func (f *flight) finish() {
	s, id, ran := f.s, f.id, f.ran
	comp, ok := s.eng.Complete(id, f.epoch, false)
	f.next, s.idle = s.idle, f
	if !ok {
		return
	}
	t := comp.Task
	if comp.Node != nil {
		s.account(t, comp.Node, ran)
	}
	for _, n := range comp.Peers {
		s.account(t, n, ran)
	}
	if comp.First {
		s.remaining--
	}
	// Quota release and the every-N checkpoint land before the deferred
	// placement wave, which picks up whatever holds the release lifted.
	s.TaskCompleted(id, comp.First)
	s.deferSchedule()
}

// account books one group member's share of a finished execution.
func (s *Sim) account(t *engine.Task, n *resources.Node, ran time.Duration) {
	cores := t.Constraints.EffectiveCores()
	s.acct.AddTask(n.Name(), n.Desc(), cores, ran)
	s.result.BusyCoreSeconds += float64(cores) * ran.Seconds()
	if s.cfg.Predictor != nil {
		// Observe the speed-normalised (reference) duration.
		base := time.Duration(float64(ran) * n.Desc().SpeedFactor)
		s.cfg.Predictor.Observe(t.Class, t.InputBytes, base)
	}
}

// admitRelease makes one task visible to the scheduler, asking the
// admission controller first when one is configured. A task the
// controller queues keeps its synthetic hold; its tenant's next
// completion promotes it. (Rejection is unreachable: New refuses bounded
// admission queues — a preregistered task has no client to bounce to,
// and dropping it would wedge the run.)
func (s *Sim) admitRelease(r release) {
	if out, _ := s.Admit(r.id, r.tenant); out == autoscale.Admitted && s.eng.ReleaseHold(r.id) {
		s.eng.Schedule()
	}
}

// deferSchedule coalesces scheduling: the first completion of a virtual
// instant defers a single placement wave to the end of the instant, so a
// batch of same-time completions is scheduled once instead of once each.
func (s *Sim) deferSchedule() {
	if s.schedDeferred {
		return
	}
	s.schedDeferred = true
	s.clock.Defer(s.runDeferred)
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (Result, error) {
	// Arm the fault script on the virtual clock.
	if _, err := faults.Run(s.clock, s, s.cfg.Faults); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	// Arm release events (routed through admission when configured).
	for _, r := range s.releases {
		s.clock.At(r.at, func() { s.admitRelease(r) })
	}
	// Submit the un-delayed tasks to admission at time zero: an
	// over-quota tenant's work queues here and surfaces only as
	// completions free slots.
	for _, r := range s.admitStart {
		s.admitRelease(r)
	}
	// Arm elasticity. The tick is liveness-gated (host.Every): an
	// evaluation that fires into an otherwise drained clock and holds
	// ends the chain, so an unplaceable task surfaces as ErrStuck.
	if s.cfg.Autoscale != nil {
		s.Every(s.cfg.ElasticEvery, func() bool { return s.AutoscaleStep().Kind != autoscale.Held })
	}

	// Arm the simulated process death.
	if s.cfg.HaltAt > 0 {
		s.clock.At(s.cfg.HaltAt, func() { s.halted = true })
	}

	// Arm metric sampling on the virtual clock (liveness-gated like
	// every host tick, so it cannot mask ErrStuck).
	smp := s.StartSampler(s.cfg.SampleEvery)

	s.eng.Schedule()
	for s.remaining > 0 && !s.halted {
		if !s.clock.Step() {
			if s.err == nil {
				s.err = fmt.Errorf("%w: %d tasks remain at %v%s", ErrStuck, s.remaining, s.clock.Now(), s.stuckDetail())
			}
			break
		}
		if s.err != nil {
			break
		}
	}
	if s.halted && s.remaining > 0 && s.err == nil {
		s.err = fmt.Errorf("%w: %d tasks unfinished at %v", ErrHalted, s.remaining, s.clock.Now())
	}
	// Drained, halted or stuck: whoever reads the store after Run sees
	// every save the run queued, and a save that failed is Run's error
	// too (joined, so errors.Is still finds ErrHalted or ErrStuck).
	var ckptErr error
	if s.remaining == 0 {
		ckptErr = s.Drained()
	} else {
		ckptErr = s.FlushCheckpoints()
	}
	if ckptErr != nil {
		s.err = errors.Join(s.err, ckptErr)
	}
	// One closing sample at the makespan instant, so every series ends on
	// the run's final state (still deterministic — virtual timestamp).
	smp.Sample(s.clock.Now())
	s.result.Makespan = s.clock.Now()
	s.result.DepEdges = s.proc.Stats()
	// The engine's and the host's books are the only ones; a re-stage is
	// transfer traffic like a demand fetch.
	st := s.eng.Stats()
	restagedBytes, restageTime := s.RestageTraffic()
	s.result.TasksCompleted = st.Completed
	s.result.TasksReExecuted = st.Reexecuted
	s.result.TasksRestored = st.Restored
	s.result.ReplicasRestaged = s.RestagedReplicas()
	s.result.BytesMoved = st.BytesMoved + restagedBytes
	s.result.TransferTime = st.TransferTime + restageTime
	s.result.TasksDeferred = st.Deferred
	s.result.TasksRanMissing = st.RanMissing

	// Close energy/idle accounting and node-seconds.
	var capCoreSeconds float64
	for name, added := range s.nodeAdded {
		span := s.clock.Now() - added
		if span < 0 {
			span = 0
		}
		if n, ok := s.cfg.Pool.Get(name); ok {
			s.acct.SetSpan(name, n.Desc(), span)
			capCoreSeconds += float64(n.Desc().Cores) * span.Seconds()
			s.result.NodeSeconds += span.Seconds()
		}
	}
	s.result.ActiveEnergy = s.acct.ActiveEnergy()
	s.result.TotalEnergy = s.acct.TotalEnergy()
	if capCoreSeconds > 0 {
		s.result.Utilization = s.result.BusyCoreSeconds / capCoreSeconds
	}
	if s.result.PeakNodes == 0 {
		s.result.PeakNodes = s.cfg.Pool.Len()
	}
	return s.result, s.err
}

// FailNode implements faults.Injector over the host's: the engine
// kills, deregisters and resubmits; the simulator only keeps score.
func (s *Sim) FailNode(name string) (engine.FailReport, error) {
	rep, err := s.Host.FailNode(name)
	s.result.TasksFailed += len(rep.Killed)
	return rep, err
}

// AutoscaleStep runs the host's autoscale step and keeps the
// simulator's books off the returned action: when each elastic node
// joined (node-seconds, energy spans, peak pool size) and what a removed
// one cost.
func (s *Sim) AutoscaleStep() autoscale.Action {
	act := s.Host.AutoscaleStep()
	switch act.Kind {
	case autoscale.Grew:
		s.nodeAdded[act.Node.Name()] = s.clock.Now()
		if n := s.cfg.Pool.Len(); n > s.result.PeakNodes {
			s.result.PeakNodes = n
		}
	case autoscale.Removed:
		victim := act.Node
		span := s.clock.Now() - s.nodeAdded[victim.Name()]
		s.acct.SetSpan(victim.Name(), victim.Desc(), span)
		s.result.NodeSeconds += span.Seconds()
		delete(s.nodeAdded, victim.Name())
	}
	return act
}

// Now exposes the simulation clock (useful in tests).
func (s *Sim) Now() time.Duration { return s.clock.Now() }
