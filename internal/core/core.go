// Package core is the paper's primary contribution: a COMPSs-style
// task-based runtime. "A COMPSs application is composed of tasks, which are
// annotated methods. At execution time, the runtime builds a task graph …
// that takes into account the data dependencies between tasks, and from
// this graph schedules and executes the tasks in the distributed
// infrastructure, taking also care of the required data transfers"
// (Sec. VI-A).
//
// This package executes real Go functions with real concurrency; the
// companion package internal/infra replays the same scheduling machinery
// over virtual time for the scale experiments. Both are thin backends over
// the shared scheduling engine (internal/engine) — one ready-queue,
// placement loop, dependency-release path, fault surface and work-stealing
// policy — and both embed the same control plane (internal/host: fault
// injection, checkpoints, admission, autoscaling, periodic ticks),
// alongside the shared access processor (internal/deps), resource model
// (internal/resources) and scheduling policies (internal/sched). Here the
// engine's Clock is wall time and its Executor queues each placement for a
// goroutine of its own — the one whose completion just ran the placement
// wave takes the next launch itself, and a new one starts only when more
// launches wait than goroutines are on their way (see Launch); fault kills
// additionally cancel the execution's context, and epoch-guarded
// completions keep orphaned goroutines from publishing values. See
// docs/ARCHITECTURE.md for the task lifecycle on each backend.
package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/host"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Errors returned by the runtime.
var (
	// ErrUnknownTask is returned when invoking an unregistered task name.
	ErrUnknownTask = errors.New("core: unknown task")
	// ErrDependencyFailed is returned by tasks whose inputs failed.
	ErrDependencyFailed = errors.New("core: dependency failed")
	// ErrShutdown is returned when submitting to a stopped runtime.
	ErrShutdown = errors.New("core: runtime is shut down")
	// ErrUnplaceable is returned for constraints no node can ever satisfy.
	ErrUnplaceable = errors.New("core: no node can satisfy task constraints")
	// ErrArity is returned when a task returns the wrong number of values.
	ErrArity = errors.New("core: wrong number of return values")
	// ErrTaskPanic is the failure of a task whose body panicked; the
	// error wraps it together with the recovered value.
	ErrTaskPanic = errors.New("core: task body panicked")
	// ErrQuotaRejected reports a submission the admission controller
	// refused: the tenant was at its in-flight cap with a full wait
	// queue (Config.Admission, Quota.MaxQueued). Submit returns it;
	// SubmitAll resolves the rejected request's Future with it while the
	// rest of the batch proceeds.
	ErrQuotaRejected = errors.New("core: submission rejected by admission quota")
	// ErrForeignHandle refuses a handle another Runtime made: Submit,
	// SubmitAll and WaitOn return it, SetInitial and CurrentVersion panic
	// with it.
	ErrForeignHandle = errors.New("core: handle belongs to another runtime")
)

// TaskFunc is the body of a task. Args are materialised parameter values in
// declaration order (for Out parameters the element is the zero value).
// Returned values are bound to the task's Out/InOut parameters in order.
type TaskFunc func(ctx context.Context, args []any) ([]any, error)

// TaskDef registers a task type — the equivalent of COMPSs' @task +
// @constraint annotations. The runtime keeps one record per Register,
// shared by every task submitted under it and never edited; the engine
// points those tasks at its one shared constraint record per signature.
type TaskDef struct {
	// Name is the task-class name (unique).
	Name string
	// Fn is the implementation.
	Fn TaskFunc
	// Constraints restrict placement (cores, memory, GPU, software,
	// tier) and are evaluated dynamically at scheduling time.
	Constraints resources.Constraints
	// EstDuration declares the expected duration on a reference
	// (SpeedFactor 1) core. Informed policies (EFT, WaitFast) consult it
	// until the predictor has learned better; 0 means unknown.
	EstDuration time.Duration
	// Retries re-runs a failing task body up to this many extra times
	// before the failure is reported (transient-fault tolerance).
	Retries int
}

// Param binds one argument of an invocation.
type Param struct {
	// Handle, when set, makes this a dependency-tracked parameter.
	Handle *Handle
	// Dir is the access direction for Handle parameters (default In).
	Dir deps.Direction
	// Value is the immediate value for non-handle (read-only) params.
	Value any
	// Size declares the byte size of the version a writing parameter
	// produces (0 ⇒ measure the returned value at completion). Sizes feed
	// the transfer books, so live runs report moved volumes, not just
	// move counts.
	Size int64
}

// In passes a plain value (no dependency tracking).
func In(v any) Param { return Param{Value: v} }

// Read declares a read access on a handle.
func Read(h *Handle) Param { return Param{Handle: h, Dir: deps.In} }

// Write declares an overwrite access on a handle.
func Write(h *Handle) Param { return Param{Handle: h, Dir: deps.Out} }

// WriteSized declares an overwrite access producing the given number of
// bytes (the declared-size path of transfer accounting).
func WriteSized(h *Handle, bytes int64) Param {
	return Param{Handle: h, Dir: deps.Out, Size: bytes}
}

// Update declares a read-modify-write access on a handle.
func Update(h *Handle) Param { return Param{Handle: h, Dir: deps.InOut} }

// Reduce declares a commutative update on a handle.
func Reduce(h *Handle) Param { return Param{Handle: h, Dir: deps.Commutative} }

// Handle names a runtime-managed datum ("the runtime … offers to the
// programmer the view that a single shared memory space is available",
// Sec. II-A). Values are versioned; handles are created by NewData.
type Handle struct {
	rt   *Runtime
	id   deps.DataID
	cur  *cell // the newest registered version's (rt.mu)
	init *cell // version 0's, which SetInitial writes
}

// latch is a one-shot event under a small mutex — a leaf: never held while
// calling out — whose channel is made only if somebody asks to wait on it.
type latch struct {
	mu  sync.Mutex
	set bool
	ch  chan struct{}
}

// fireLocked sets the latch and reports whether this call did.
func (l *latch) fireLocked() bool {
	if l.set {
		return false
	}
	l.set = true
	if l.ch != nil {
		close(l.ch)
	}
	return true
}

// chanLocked returns the channel that is closed once the latch is set.
func (l *latch) chanLocked() <-chan struct{} {
	if l.ch == nil {
		l.ch = make(chan struct{})
		if l.set {
			close(l.ch)
		}
	}
	return l.ch
}

// Future is the synchronisation object of an asynchronous task. A task
// killed by a fault injection keeps its future open until the recovery
// re-execution delivers a result. It lives inside its task, which a batch
// submission carves from one array with its siblings: a held *Future keeps
// that batch's tasks reachable.
type Future struct {
	latch // set: resolved; the channel is made by a Wait that finds the task in flight
	vals  []any
	err   error
}

// complete delivers the result exactly once and reports whether this call
// did: a recovery re-execution of an already-finished task leaves the
// published values untouched.
func (f *Future) complete(vals []any, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set {
		return false
	}
	f.vals, f.err = vals, err
	return f.fireLocked()
}

// Wait blocks until the task finishes and returns its values.
func (f *Future) Wait() ([]any, error) {
	f.mu.Lock()
	if f.set {
		f.mu.Unlock()
	} else {
		done := f.chanLocked()
		f.mu.Unlock()
		<-done
	}
	return f.vals, f.err // written before the latch was set, never again
}

// Done reports completion without blocking.
func (f *Future) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set
}

// Config tunes a Runtime: the one option set both backends take
// (internal/host). Its simulator-only fields are refused here: arm
// faults.Run, Runtime.Every and Runtime.StartSampler, and stage data in
// with SetInitial.
type Config = host.Config

// cell is the live value of one data version: what its producer bound
// (or the failure it ended with), the last-registered task writing it, and
// the record of the Concurrent/Commutative group sharing it, if any. Cells
// are carved from pages that never move, so handles and tasks hold them by
// pointer and no lookup hashes a version. Every field is guarded by rt.mu.
type cell struct {
	key  deps.Version
	val  any
	err  error
	set  bool    // val/err hold a result: bound, staged in or restored
	prod *rtTask // nil for a version no task writes
	grp  *group
}

// group is a shared version's Concurrent/Commutative membership: WaitOn
// waits for every member, and commutative members merge under mu.
type group struct {
	mu      sync.Mutex
	members []*Future
}

// cellPage is how many cells one page holds.
const cellPage = 256

// newCellLocked carves a cell for version k. Caller holds rt.mu.
func (rt *Runtime) newCellLocked(k deps.Version) *cell {
	if rt.used == cellPage {
		rt.pages = append(rt.pages, new([cellPage]cell))
		rt.used = 0
	}
	c := &rt.pages[len(rt.pages)-1][rt.used]
	rt.used++
	c.key = k
	return c
}

// rtTask is one submitted invocation. The engine task, the future and the
// first execution's context are embedded, so one allocation — one slot of
// its batch's array — carries the scheduler-facing, caller-facing and
// body-facing state.
type rtTask struct {
	et     engine.Task
	def    *TaskDef // the class's record at submission; Register never edits one
	params []Param
	args   []any   // the first execution's argument array
	reads  []*cell // in InputKeys order
	writes []*cell // in OutputKeys order
	// comm pairs each commutative parameter's index with the shared
	// version it merges into (read version == write version).
	comm   []commParam
	future Future
	ctx    *taskCtx // current execution's context (rt.mu); nil until the first
	ctx0   taskCtx  // the first execution's; a re-execution gets its own
}

// taskCtx is the context.Context of one execution: it answers the
// placement's slow factor, and is cancelled (the latch) by a fault kill of
// the execution and when its body has returned.
type taskCtx struct {
	latch
	slow float64
}

func (c *taskCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func (c *taskCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chanLocked()
}

func (c *taskCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set {
		return context.Canceled
	}
	return nil
}

func (c *taskCtx) Value(key any) any {
	if key == (slowFactorKey{}) {
		return c.slow
	}
	return nil
}

func (c *taskCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fireLocked()
}

// commParam locates one commutative parameter of an invocation.
type commParam struct {
	arg int // parameter index
	c   *cell
}

// Runtime executes tasks. Create with New, stop with Shutdown.
type Runtime struct {
	*host.Host // control plane: faults, checkpoints, admission, autoscale, ticks

	cfg  Config
	proc *deps.Processor
	eng  *engine.Engine

	mu       sync.Mutex
	defs     map[string]*TaskDef
	pages    []*[cellPage]cell
	used     int                  // cells carved from the last page
	restored map[deps.Version]any // Seed's values; nil unless resuming a snapshot
	nextTask int64
	nextData int64
	stopped  bool
	scratch  submitScratch
	// runq holds the launches no goroutine has taken yet, oldest at
	// runHead; takers counts the goroutines about to take one: freshly
	// started, or between completing a task and their next pop — never in
	// user code. Launch keeps the queue no longer than takers.
	runq    []launch
	runHead int
	takers  int

	// pending counts unresolved futures; the completion that takes it to
	// zero wakes the Barriers asleep on idle.
	pending atomic.Int64
	idle    *sync.Cond

	wg    sync.WaitGroup // live task goroutines
	epoch time.Time      // trace-event time base
}

// New creates a runtime.
func New(cfg Config) *Runtime {
	if cfg.Pool == nil {
		cfg.Pool = resources.NewPool()
		_ = cfg.Pool.Add(resources.NewNode("local", resources.Description{
			Cores: 4, MemoryMB: 8000, SpeedFactor: 1,
		}))
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.MinLoad{}
	}
	if len(cfg.Faults) > 0 || cfg.HaltAt != 0 || cfg.ElasticEvery != 0 || cfg.SampleEvery != 0 ||
		cfg.StageIn != nil || cfg.StageInNodes != nil || cfg.PersistNode != "" || cfg.DisableRenaming {
		panic("core: Faults, HaltAt, ElasticEvery, SampleEvery, StageIn, StageInNodes, PersistNode and DisableRenaming are simulator-only; use faults.Run, Every, StartSampler and SetInitial")
	}
	rt := &Runtime{
		cfg:   cfg,
		proc:  deps.NewProcessor(),
		defs:  make(map[string]*TaskDef),
		used:  cellPage,
		idle:  sync.NewCond(new(sync.Mutex)),
		epoch: time.Now(),
	}
	rt.Host = host.New(cfg, host.Backend{
		Clock:    engine.WallClock{Epoch: rt.epoch},
		Timer:    faults.NewWallTimer(),
		Executor: (*coreExecutor)(rt),
		OnKill:   rt.cancelKilled,
		Values:   (*valueTable)(rt),
	})
	rt.eng = rt.Engine()
	return rt
}

// now returns the trace timestamp (elapsed since runtime start).
func (rt *Runtime) now() time.Duration { return time.Since(rt.epoch) }

// Register adds a task definition. Re-registration replaces it for
// later submissions: it installs a new record, and the tasks already
// submitted keep the one they were submitted under.
func (rt *Runtime) Register(def TaskDef) error {
	if def.Name == "" || def.Fn == nil {
		return fmt.Errorf("core: task definition needs name and function")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.defs[def.Name] = &def
	return nil
}

// NewData creates a fresh runtime-managed datum.
func (rt *Runtime) NewData() *Handle {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextData++
	c := rt.newCellLocked(deps.Version{Data: deps.DataID(rt.nextData)})
	c.val, c.set = rt.restored[c.key]
	return &Handle{rt: rt, id: c.key.Data, cur: c, init: c}
}

// DataOption tunes SetInitial.
type DataOption func(*dataOpts)

type dataOpts struct {
	size  int64
	sized bool
}

// WithSize declares the byte size of the staged-in value, overriding the
// measured estimate — how externally produced files report their true
// volume to the transfer books.
func WithSize(bytes int64) DataOption {
	return func(o *dataOpts) { o.size, o.sized = bytes, true }
}

// SetInitial sets version 0 of a handle to a concrete value (stage-in).
// When the runtime has a location registry, the value's size (declared via
// WithSize or measured) and its replica location are recorded, so live
// transfer accounting prices the stage-in data like the simulator does.
func (rt *Runtime) SetInitial(h *Handle, v any, opts ...DataOption) {
	if h.rt != rt {
		panic(ErrForeignHandle)
	}
	var o dataOpts
	for _, fn := range opts {
		fn(&o)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h.init.val, h.init.err, h.init.set = v, nil, true
	if rt.cfg.Locations == nil {
		return
	}
	if !o.sized {
		o.size = measureBytes(v)
	}
	rt.StageIn(h.id, o.size, nil)
}

// measureBytes estimates the in-memory payload of a value for transfer
// accounting: exact for byte slices and strings, element-size × length for
// other slices, the type's size for fixed-size values, and 0 (unknown) for
// reference types it cannot see through.
func measureBytes(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case []byte:
		return int64(len(x))
	case string:
		return int64(len(x))
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.String: // named string types miss the type switch above
		return int64(rv.Len())
	case reflect.Slice:
		return int64(rv.Len()) * int64(rv.Type().Elem().Size())
	case reflect.Ptr, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.Invalid:
		return 0
	default:
		return int64(rv.Type().Size())
	}
}

// admitLocked checks a submission is serviceable. Caller holds rt.mu.
func (rt *Runtime) admitLocked(name string) (*TaskDef, error) {
	if rt.stopped {
		return nil, ErrShutdown
	}
	def, ok := rt.defs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTask, strings.Clone(name)) // the error keeps no caller's string
	}
	if !rt.cfg.Pool.AnyCapable(def.Constraints) {
		return nil, fmt.Errorf("%w: %s needs %+v", ErrUnplaceable, def.Name, def.Constraints)
	}
	return def, nil
}

// paramRoom is the room one submission call carves its tasks' parameter,
// argument, access and cell lists from: one array each, sized by its
// parameters and handles (a handle reads and writes at most one version
// each). The access lists are read by the access processor alone, so
// their array is the runtime's, reused call after call.
type paramRoom struct {
	params   []Param
	args     []any
	accesses []deps.Access
	cells    []*cell
}

// handles counts the dependency-tracked parameters, one access each, and
// refuses a handle another runtime made.
func (rt *Runtime) handles(params []Param) (n int, err error) {
	for i, p := range params {
		if p.Handle == nil {
			continue
		}
		if p.Handle.rt != rt {
			return 0, fmt.Errorf("%w: parameter %d", ErrForeignHandle, i)
		}
		n++
	}
	return n, nil
}

// carve cuts the next n elements off *room, as a list with cap == len.
func carve[T any](room *[]T, n int) []T {
	out := (*room)[:n:n]
	*room = (*room)[n:]
	return out
}

// normalize copies the parameter list into t, defaults directions, carves
// the first execution's argument array, and derives the access list the
// processor consumes.
func (r *paramRoom) normalize(t *rtTask, src []Param) []deps.Access {
	params := carve(&r.params, len(src))
	t.params, t.args = params, carve(&r.args, len(src))
	copy(params, src)
	n := 0
	for i := range params {
		if params[i].Handle == nil {
			continue
		}
		if params[i].Dir == 0 {
			params[i].Dir = deps.In
		}
		r.accesses[n] = deps.Access{Data: params[i].Handle.id, Dir: params[i].Dir}
		n++
	}
	return carve(&r.accesses, n)
}

// buildTaskLocked fills in the runtime task of one registered invocation
// (t.def and t.params are set) and hangs it on its versions' cells, walking
// the handle parameters in the order res lists their versions: a read takes
// the handle's current cell, a write of a new version gets a fresh cell that
// becomes current, and a group member shares the current one. Declared
// output sizes enter the location registry, input sizes aggregate into the
// scheduler's covariate. Caller holds rt.mu.
func (rt *Runtime) buildTaskLocked(t *rtTask, id int64, res deps.Result, room *paramRoom) {
	t.reads, t.writes = carve(&room.cells, len(res.Reads)), carve(&room.cells, len(res.Writes))
	wi, ri := 0, 0
	for i, p := range t.params {
		h := p.Handle
		if h == nil {
			continue
		}
		if p.Dir.Reads() {
			t.reads[ri] = h.cur
			ri++
		}
		if !p.Dir.Writes() {
			continue
		}
		c := h.cur
		if c.key != res.Writes[wi] {
			c = rt.newCellLocked(res.Writes[wi])
			h.cur = c
		}
		c.prod = t
		t.writes[wi] = c
		wi++
		if p.Dir == deps.Commutative || p.Dir == deps.Concurrent {
			// Group members share one version; WaitOn must wait for the
			// whole group, not just the last-registered member.
			if c.grp == nil {
				c.grp = new(group)
			}
			c.grp.members = append(c.grp.members, &t.future)
		}
		if p.Dir == deps.Commutative {
			// Commutative members additionally merge in place: record the
			// parameter so execution runs the read-compute-bind of the
			// shared datum under its merge lock (member order stays free;
			// see execute). Concurrent members are deliberately excluded —
			// their direction exists to run simultaneously against
			// externally synchronised structures.
			t.comm = append(t.comm, commParam{arg: i, c: c})
		}
		if p.Size > 0 && rt.cfg.Locations != nil {
			rt.cfg.Locations.SetSize(c.key, p.Size)
		}
	}
	t.et = engine.Task{
		ID:          id,
		Class:       t.def.Name,
		Constraints: &t.def.Constraints, // read only by Add, which shares the signature's record
		EstDuration: t.def.EstDuration,
		InputKeys:   res.Reads,
		OutputKeys:  res.Writes,
		Payload:     t,
	}
	if rt.cfg.Locations != nil {
		for _, k := range t.et.InputKeys {
			t.et.InputBytes += rt.cfg.Locations.Size(k)
		}
	}
	if rt.cfg.Tracer != nil {
		rt.cfg.Tracer.Record(trace.Event{At: rt.now(), Kind: trace.TaskSubmitted, Task: id, Info: t.def.Name})
	}
}

// resolveLocked offers a just-registered task to the host's restore: a
// submission the snapshot resolves never executes, and its Future
// completes at once with the restored values. It reports whether the
// offer left something ready to place. Caller holds rt.mu.
func (rt *Runtime) resolveLocked(t *rtTask) (wave bool) {
	resolved, wave := rt.Resolve(t.et.ID)
	if resolved {
		vals := make([]any, len(t.writes))
		for i, c := range t.writes {
			if v, ok := rt.restored[c.key]; ok {
				c.val, c.err, c.set = v, nil, true
			}
			vals[i] = c.val
		}
		rt.resolve(t, vals, nil)
	}
	return wave
}

// resolve completes t's future and, the first time, takes it off the
// count Barrier sleeps on.
func (rt *Runtime) resolve(t *rtTask, vals []any, err error) {
	if t.future.complete(vals, err) && rt.pending.Add(-1) == 0 {
		rt.idle.L.Lock()
		rt.idle.Broadcast()
		rt.idle.L.Unlock()
	}
}

// Submit invokes a registered task asynchronously (default tenant; use
// SubmitAll with TaskReq.Tenant for per-tenant accounting): a batch of one
// through SubmitAll's path. Returns ErrQuotaRejected when the admission
// controller refuses the submission.
func (rt *Runtime) Submit(name string, params ...Param) (*Future, error) {
	tasks := make([]rtTask, 1)
	reqs := [1]TaskReq{{Name: name, Params: params}}
	n, err := rt.submit(reqs[:], tasks)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: %s", ErrQuotaRejected, name)
	}
	return &tasks[0].future, nil
}

// TaskReq names one invocation of a SubmitAll batch.
type TaskReq struct {
	// Name is the registered task-class name.
	Name string
	// Params bind the invocation's arguments.
	Params []Param
	// Tenant attributes the invocation for admission control
	// (Config.Admission); empty means the default tenant.
	Tenant string
}

// SubmitAll submits a batch of invocations under one lock round-trip:
// the whole batch is admitted, registered through the access processor
// and added to the engine in one call each, then a single placement wave
// runs. The batch's tasks (futures included) and their parameter lists
// are carved from one array each. Requests may depend on earlier batch
// members. On a definition error (unknown name, unplaceable constraints)
// nothing is registered and no future is returned. A per-tenant quota
// rejection (Config.Admission) is per-request instead: the rejected
// request's Future comes back already resolved with ErrQuotaRejected, it
// is never registered — dependents read the data's previous version — and
// the rest of the batch proceeds.
func (rt *Runtime) SubmitAll(reqs []TaskReq) ([]*Future, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	tasks := make([]rtTask, len(reqs)) // one slot per request; a rejected one keeps only its future
	if i, err := rt.submit(reqs, tasks); err != nil {
		return nil, fmt.Errorf("core: batch task %d: %w", i, err)
	}
	futures := make([]*Future, len(reqs))
	for i := range tasks {
		futures[i] = &tasks[i].future
	}
	return futures, nil
}

// submitScratch is the one registration path's per-call lists (rt.mu),
// emptied after each call so that they pin no task.
type submitScratch struct {
	accesses []deps.Access
	accepted []*rtTask
	batch    []deps.TaskAccesses
	holds    []int
	results  []deps.Result
	ets      []*engine.Task
	prods    [][]deps.TaskID
}

// keptScratch bounds the batch whose lists submit keeps for the next call:
// a larger one's, about 170 B a request, would stay reachable for the
// runtime's life. Batches of the ledger's size, 256, reuse theirs.
const keptScratch = 4096

// empty clears s and returns it with length 0, keeping its array.
func empty[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// submit is SubmitAll's and Submit's one registration path, SubmitAll's
// contract less its errors' wording: tasks holds one slot per request. On
// a definition error nothing is registered and n is the refused request's
// index; otherwise n counts the requests admission accepted. Nothing a
// request points at is kept — the parameters are copied, an error names
// the definition's copy of a task name and the host keeps a copy of a
// tenant's — so Submit's parameter list stays on its caller's stack.
func (rt *Runtime) submit(reqs []TaskReq, tasks []rtTask) (n int, err error) {
	rt.mu.Lock()
	var np, na int
	for i, r := range reqs {
		def, err := rt.admitLocked(r.Name)
		n := 0
		if err == nil {
			n, err = rt.handles(r.Params)
		}
		if err != nil {
			rt.mu.Unlock()
			return i, err
		}
		tasks[i].def = def
		np, na = np+len(r.Params), na+n
	}
	s := &rt.scratch
	s.accesses = slices.Grow(s.accesses[:0], na)[:na]
	room := paramRoom{make([]Param, np), make([]any, np), s.accesses, make([]*cell, 2*na)}
	for i, r := range reqs {
		t := &tasks[i]
		rt.nextTask++
		id := rt.nextTask
		tenant := ""
		if rt.cfg.Admission != nil {
			tenant = strings.Clone(r.Tenant)
		}
		out, h := rt.Admit(id, tenant) // under rt.mu: the restore test reads the value table
		if out == autoscale.Rejected {
			rt.nextTask-- // the ID was never registered anywhere
			t.future.complete(nil, fmt.Errorf("%w: batch task %d (%s)", ErrQuotaRejected, i, t.def.Name))
			continue
		}
		s.accepted = append(s.accepted, t)
		s.batch = append(s.batch, deps.TaskAccesses{Task: deps.TaskID(id), Accesses: room.normalize(t, r.Params)})
		s.holds = append(s.holds, h)
	}
	s.results = rt.proc.AppendBatch(s.results, s.batch)
	for j, t := range s.accepted {
		rt.buildTaskLocked(t, int64(s.batch[j].Task), s.results[j], &room)
		s.ets, s.prods = append(s.ets, &t.et), append(s.prods, s.results[j].Deps)
	}
	n = len(s.accepted)
	rt.pending.Add(int64(n))
	// The engine counts only dependencies whose producer has not already
	// finished; rt.mu is held through Add so a dependent can never slip in
	// ahead of its producer's registration.
	ready, _ := rt.eng.Add(s.ets, s.prods, s.holds) // never a duplicate: ids are rt.nextTask, drawn under rt.mu
	for _, t := range s.accepted {
		ready = rt.resolveLocked(t) || ready
	}
	s.accepted, s.batch, s.holds = empty(s.accepted), empty(s.batch), s.holds[:0]
	s.results, s.ets, s.prods = empty(s.results), empty(s.ets), empty(s.prods)
	if len(reqs) > keptScratch {
		*s = submitScratch{}
	}
	rt.mu.Unlock()
	if ready {
		rt.eng.Schedule()
	}
	return n, nil
}

// coreExecutor adapts the runtime to engine.Executor: each placement runs
// its task body on a goroutine of its own, on its reserved node. The
// execution's context is cancelled if a fault invalidates the placement,
// so cancellation-aware task bodies stop burning cores on work whose
// completion the engine will reject anyway.
type coreExecutor Runtime

// launch is one placement waiting on the run queue.
type launch struct {
	t     *rtTask
	epoch int
	slow  float64 // Placement.SlowFactor
}

// Launch implements engine.Executor: the placement joins the run queue,
// and a goroutine is started for it unless one is already on its way —
// typically the one whose completion ran this very wave (see run). A drain
// reuses about one goroutine per busy core, yet every placement has a
// goroutine to itself from the moment it is launched.
func (x *coreExecutor) Launch(p engine.Placement) {
	rt := (*Runtime)(x)
	t, ok := p.Task.Payload.(*rtTask)
	if !ok {
		return
	}
	rt.mu.Lock()
	if rt.runHead > 0 && len(rt.runq) == cap(rt.runq) {
		// Reclaim the popped prefix before append grows the array.
		rt.runq, rt.runHead = slices.Delete(rt.runq, 0, rt.runHead), 0
	}
	rt.runq = append(rt.runq, launch{t, p.Epoch, p.SlowFactor})
	spawn := len(rt.runq)-rt.runHead > rt.takers
	if spawn {
		rt.takers++
		rt.wg.Add(1)
	}
	rt.mu.Unlock()
	if spawn {
		go rt.run()
	}
}

// run is a task goroutine, a taker on entry: it executes launches off the
// run queue — execute leaves it a taker again, so the launches its own
// completion caused wait for nobody else — and exits at an empty queue.
func (rt *Runtime) run() {
	defer rt.wg.Done()
	for {
		l, ctx, args, depErr := rt.take()
		if ctx == nil {
			return
		}
		rt.execute(ctx, l.t, l.epoch, args, depErr)
	}
}

// take pops the oldest launch the engine still recognises and binds the
// execution's context and arguments (a nil context: the queue is empty);
// the caller stops being a taker.
func (rt *Runtime) take() (l launch, ctx *taskCtx, args []any, depErr error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.takers--
	for rt.runHead < len(rt.runq) {
		l = rt.runq[rt.runHead]
		rt.runq[rt.runHead] = launch{}
		rt.runHead++
		// A fault can invalidate the placement between the engine's wave
		// and this pop (and even relaunch the task elsewhere): the stale
		// execution would waste a core and clobber the re-run's context.
		// rt.mu is held, so a concurrent FailNode's onKill — which also
		// takes rt.mu — cannot interleave between this check and the store.
		if !rt.eng.Current(l.t.et.ID, l.epoch) {
			continue
		}
		// The placement's slow factor rides the context so cooperative
		// bodies (SlowSleep, SlowFactorFrom) degrade under slow-node drills
		// like the simulator's durations. A re-execution gets a context and
		// an argument array of its own: a killed predecessor may still be
		// running on the last.
		ctx, args = &l.t.ctx0, l.t.args
		if l.t.ctx != nil {
			ctx, args = new(taskCtx), make([]any, len(l.t.params))
		}
		ctx.slow = l.slow
		l.t.ctx = ctx
		return l, ctx, args, rt.materialiseLocked(l.t, args)
	}
	rt.runq, rt.runHead = rt.runq[:0], 0
	return launch{}, nil, nil, nil
}

// materialiseLocked resolves parameter values into args through the
// task's read cells. Caller holds rt.mu.
func (rt *Runtime) materialiseLocked(t *rtTask, args []any) (depErr error) {
	ri := 0
	for i, p := range t.params {
		if p.Handle == nil {
			args[i] = p.Value
			continue
		}
		if p.Dir.Reads() {
			args[i] = t.reads[ri].read(&depErr)
			ri++
		}
	}
	return depErr
}

// read returns the cell's value, recording its failure in *depErr unless
// an earlier input already failed. Caller holds rt.mu.
func (c *cell) read(depErr *error) any {
	if c.err != nil && *depErr == nil {
		*depErr = fmt.Errorf("%w: input %v: %v", ErrDependencyFailed, c.key, c.err)
	}
	return c.val
}

// commLocksLocked returns the merge locks of a task's commutative
// parameters in a canonical (Data, Ver) order. Caller holds rt.mu and has
// checked the task has some.
func commLocksLocked(t *rtTask) []*sync.Mutex {
	cells := make([]*cell, 0, len(t.comm))
	for _, cp := range t.comm {
		cells = append(cells, cp.c)
	}
	slices.SortFunc(cells, func(a, b *cell) int { return a.key.Compare(b.key) })
	cells = slices.Compact(cells)
	locks := make([]*sync.Mutex, len(cells))
	for i, c := range cells {
		locks[i] = &c.grp.mu
	}
	return locks
}

// call runs a task body, turning a panic into an ordinary task failure:
// user code must not take the runtime down, least of all while execute
// holds commutative merge locks.
func (fn TaskFunc) call(ctx context.Context, args []any) (vals []any, err error) {
	defer func() {
		if r := recover(); r != nil {
			vals, err = nil, fmt.Errorf("%w: %v", ErrTaskPanic, r)
		}
	}()
	return fn(ctx, args)
}

// execute runs one task on its reserved node group.
func (rt *Runtime) execute(ctx *taskCtx, t *rtTask, epoch int, args []any, depErr error) {
	var started time.Time
	if rt.cfg.Predictor != nil {
		started = time.Now()
	}

	// Commutative members are mutually exclusive on their datum for the
	// whole read-compute-bind (like COMPSs, which grants commutative
	// tasks the data in turn): a member's return value IS the new merged
	// value, so another member interleaving mid-body would be clobbered.
	// What stays free is the ORDER — members run as the scheduler picks
	// them, with no member-member dependency edges. Locks are taken in
	// canonical version order (no deadlocks) and the member's arguments
	// are re-materialised under the lock, so each member sees the value
	// the previous one left.
	var locks []*sync.Mutex
	if len(t.comm) > 0 { // the common task has none: no rt.mu round trip
		rt.mu.Lock()
		locks = commLocksLocked(t)
		rt.mu.Unlock()
	}
	for _, l := range locks {
		l.Lock()
	}
	if len(locks) > 0 {
		rt.mu.Lock()
		for _, cp := range t.comm {
			args[cp.arg] = cp.c.read(&depErr)
		}
		rt.mu.Unlock()
	}

	var vals []any
	err := depErr
	if err == nil {
		for attempt := 0; ; attempt++ {
			vals, err = t.def.Fn.call(ctx, args)
			if err == nil || attempt >= t.def.Retries || ctx.Err() != nil {
				break // a cancelled (fault-killed) execution does not retry
			}
		}
		// Returned values bind to written versions (in parameter order).
		if err == nil && len(vals) != len(t.writes) {
			err = fmt.Errorf("%w: %s returned %d values for %d written parameters",
				ErrArity, t.def.Name, len(vals), len(t.writes))
		}
		if rt.cfg.Predictor != nil && err == nil && ctx.Err() == nil {
			// Measured here so lock waits and value binding below do not
			// inflate the durations the predictor learns from — a
			// fault-killed execution's is not one of them — and observed
			// here because from the bind on this goroutine is awaited.
			rt.cfg.Predictor.Observe(t.def.Name, 0, time.Since(started))
		}
	}
	ctx.cancel() // the body has returned: whatever it derived from ctx ends with it

	// Values must be visible before the engine releases dependents — but
	// only from the placement the engine still recognises: an execution
	// orphaned by a node failure must not clobber the versions its
	// recovery re-run will publish.
	tracking := rt.Tracking()
	rt.mu.Lock()
	if rt.eng.Current(t.et.ID, epoch) {
		for i, c := range t.writes {
			c.set = true
			if err != nil {
				c.val, c.err = nil, err
				continue
			}
			c.val, c.err = vals[i], nil
			if rt.cfg.Locations != nil && rt.cfg.Locations.Size(c.key) == 0 {
				// No size declared at submit: measure the produced value so
				// live transfer accounting reports volumes, not just moves.
				rt.cfg.Locations.SetSize(c.key, measureBytes(vals[i]))
			}
			if rt.cfg.Provenance != nil {
				rt.cfg.Provenance.RecordProduction(c.key, t.et.InputKeys)
			}
		}
	}
	if !tracking {
		rt.takers++ // nothing but the engine call stands between here and run's next take
	}
	rt.mu.Unlock()
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].Unlock()
	}

	// The engine releases the reservation, registers output replicas,
	// frees every dependent under one lock acquisition, and immediately
	// runs the next placement wave, whose launches this goroutine — a
	// taker from here on — finds on the run queue when it returns to run.
	// A stale completion — the placement was invalidated by a fault — is
	// rejected; the relaunched execution owns the future and the books.
	var ok bool
	if tracking {
		// Complete, then let the host return the quota slot and notify
		// the checkpointer before the next placement wave — the same
		// post-completion, pre-placement point the simulator uses — which
		// also places whatever queued submissions the freed slot promoted.
		// A stale completion freed nothing, so it runs no wave: an
		// orphan's wave must not slip between another execution's
		// completion and its snapshot. The capture may wait for room in
		// the checkpoint writer's queue (the write itself happens on the
		// writer), so this goroutine counts as a taker only once it is
		// behind it.
		var comp engine.Completion
		if comp, ok = rt.eng.Complete(t.et.ID, epoch, err != nil); ok {
			rt.TaskCompleted(t.et.ID, comp.First)
		}
		rt.mu.Lock()
		rt.takers++
		rt.mu.Unlock()
		if ok {
			rt.eng.Schedule()
		}
	} else {
		_, ok = rt.eng.CompleteSchedule(t.et.ID, epoch, err != nil)
	}
	if ok {
		rt.resolve(t, vals, err)
	}
}

// WaitOn synchronises on the newest version of a handle and returns its
// value — PyCOMPSs' compss_wait_on.
func (rt *Runtime) WaitOn(h *Handle) (any, error) {
	if h.rt != rt {
		return nil, ErrForeignHandle
	}
	// rt.mu serialises the cell lookup with Submit, which registers a
	// version and hangs its cell on the handle under one acquisition.
	rt.mu.Lock()
	c := h.cur
	var futs []*Future
	if c.prod != nil {
		futs = append(futs, &c.prod.future)
	}
	if c.grp != nil {
		// A commutative/concurrent group shares one version: the cell names
		// only the last-registered member, but the merged value is ready
		// only when every member has folded its update in.
		futs = append(futs, c.grp.members...)
	}
	rt.mu.Unlock()
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			return nil, err
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return c.val, c.err
}

// Barrier blocks until every submitted task has finished: until no future
// is unresolved, submissions that arrive while it sleeps included.
func (rt *Runtime) Barrier() {
	rt.idle.L.Lock()
	for rt.pending.Load() != 0 {
		rt.idle.Wait()
	}
	rt.idle.L.Unlock()
	_ = rt.Drained() // the on-drain checkpoint trigger; a failed write is kept for FlushCheckpoints
}

// Stats summarises runtime activity.
type Stats struct {
	Submitted int
	DepsEdges deps.Stats
}

// Stats returns counters.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Stats{Submitted: int(rt.nextTask), DepsEdges: rt.proc.Stats()}
}

// cancelKilled is the host's OnKill hook: on top of the engine's
// kill/resubmit choreography (the placement's epoch is invalidated, so
// the goroutine's eventual completion is rejected), a fault-killed
// execution's context is cancelled so cancellation-aware task bodies
// stop immediately — the live equivalent of the simulator discarding a
// completion event. Futures of killed tasks stay open until their
// recovery re-execution delivers a result.
func (rt *Runtime) cancelKilled(et *engine.Task) {
	t, ok := et.Payload.(*rtTask)
	if !ok {
		return
	}
	rt.mu.Lock()
	ctx := t.ctx
	rt.mu.Unlock()
	if ctx != nil {
		ctx.cancel()
	}
}

// CurrentVersion reports the newest registered version of a handle.
func (rt *Runtime) CurrentVersion(h *Handle) deps.Version {
	if h.rt != rt {
		panic(ErrForeignHandle)
	}
	return rt.proc.CurrentVersion(h.id)
}

// Shutdown drains running tasks. Pending-but-unstarted tasks still run;
// new submissions fail with ErrShutdown.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.stopped = true
	rt.mu.Unlock()

	rt.Barrier()
	rt.wg.Wait()
	rt.StopTicks()
}
