package host_test

// The host is driven here exactly the way a backend drives it — a Clock,
// a Timer, an Executor — but with fakes: a bare simclock.Clock stepped by
// hand (it can run dry, like the simulator's event heap) and an executor
// that only records placements. No simulator, no goroutines.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/host"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// drain steps the hand-driven clock until it runs dry; it fails the test
// rather than spin on a periodic chain that never ends.
func drain(t *testing.T, tm *simclock.Clock) {
	t.Helper()
	for n := 0; tm.Step(); n++ {
		if n > 10_000 {
			t.Fatal("timer never ran dry: a periodic tick is keeping itself alive")
		}
	}
}

// fakeExecutor records launches; the test completes them by hand.
type fakeExecutor struct{ launched []engine.Placement }

func (x *fakeExecutor) Launch(p engine.Placement) { x.launched = append(x.launched, p) }

func oneNodePool() *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{Cores: 2, MemoryMB: 4000, SpeedFactor: 1}))
	return pool
}

func newHost(t *testing.T, tm *simclock.Clock, x *fakeExecutor, cfg host.Config) *host.Host {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = oneNodePool()
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.FIFO{}
	}
	h, err := host.New(cfg, host.Backend{Clock: tm, Timer: tm, Executor: x})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// A driver tick keeps re-arming while anything else is scheduled or its
// step changes something; once it fires into an otherwise empty timer
// and holds, the chain ends and the timer runs dry.
func TestEveryEndsWhenIdleAndUnchanged(t *testing.T) {
	tm := simclock.New()
	h := newHost(t, tm, &fakeExecutor{}, host.Config{})
	tm.At(35*time.Second, func() {}) // outside work: keeps the run alive until 35s
	var fired []time.Duration
	changes := 2 // the first two idle firings still report a change
	h.Every(10*time.Second, func() bool {
		fired = append(fired, tm.Now())
		if tm.Now() > 35*time.Second && changes > 0 {
			changes--
			return true
		}
		return false
	})
	drain(t, tm)
	// 10,20,30 (alive: outside event pending), 40,50 (idle, but changed),
	// 60 (idle and unchanged: last firing).
	want := []time.Duration{10, 20, 30, 40, 50, 60}
	if len(fired) != len(want) {
		t.Fatalf("driver fired at %v, want %d firings", fired, len(want))
	}
	for i, w := range want {
		if fired[i] != w*time.Second {
			t.Fatalf("firing %d at %v, want %v", i, fired[i], w*time.Second)
		}
	}
}

// Observer ticks (sampler, interval checkpoints) neither fire into an
// idle run nor count as scheduled work, so two of them cannot keep each
// other — or a wedged run — alive; but they keep going while a driver
// tick may still unblock the run.
func TestObserversDoNotKeepRunAlive(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tm := simclock.New()
	reg := obsv.NewRegistry()
	h := newHost(t, tm, &fakeExecutor{}, host.Config{
		Metrics:    reg,
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.Interval(7 * time.Second)},
	})
	smp := h.StartSampler(3 * time.Second)
	if smp == nil || h.Sampler() != smp || h.StartSampler(time.Second) != smp {
		t.Fatal("StartSampler must arm once and return the running sampler")
	}
	steps := 0
	h.Every(10*time.Second, func() bool { steps++; return steps < 3 }) // holds on its third firing
	drain(t, tm)
	if steps != 3 {
		t.Fatalf("driver stepped %d times, want 3", steps)
	}
	// Samples at 3..27s while the driver was armed; the 30s sample pops
	// after the driver's chain ended, into an idle run, and is dropped.
	series := smp.Series()
	if len(series) == 0 {
		t.Fatal("sampler recorded nothing while the driver was armed")
	}
	pts := series[0].Points
	if len(pts) != 9 || pts[len(pts)-1].At != 27*time.Second {
		t.Fatalf("sampled %d points ending at %v, want 9 ending at 27s", len(pts), pts[len(pts)-1].At)
	}
	// Each observer's already-armed callback (sampler 30s, checkpoint
	// 35s) pops once more, is dropped, and does not re-arm.
	if tm.Now() != 35*time.Second {
		t.Fatalf("timer ran until %v, want 35s: observers outlived the driver", tm.Now())
	}
	h.FlushCheckpoints() // the writer may still hold the save
	if _, err := store.Latest(); err != nil {
		t.Fatalf("interval checkpoint never saved while the run was alive: %v", err)
	}
}

// On a timer that cannot run dry (wall time) nothing is liveness-gated:
// ticks continue until StopTicks, after which armed callbacks are inert.
func TestStopTicksOnWallTimer(t *testing.T) {
	reg := obsv.NewRegistry()
	reg.GaugeFunc("g", "", "", func() int64 { return 1 })
	h, err := host.New(host.Config{
		Pool: oneNodePool(), Policy: sched.FIFO{}, Metrics: reg,
	}, host.Backend{Clock: engine.WallClock{Epoch: time.Now()}, Timer: faults.NewWallTimer(), Executor: &fakeExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	smp := h.StartSampler(2 * time.Millisecond)
	deadline := time.After(5 * time.Second)
	for len(smp.Series()) == 0 {
		select {
		case <-deadline:
			t.Fatal("wall ticker never sampled")
		case <-time.After(2 * time.Millisecond):
		}
	}
	h.StopTicks()
	n := len(smp.Series()[0].Points)
	time.Sleep(20 * time.Millisecond)
	if got := len(smp.Series()[0].Points); got != n {
		t.Fatalf("sampler kept sampling after StopTicks: %d -> %d", n, got)
	}
}

// Every injector method traces a rejected fault as fault_ignored and
// still returns the error.
func TestInjectorTracesIgnoredFaults(t *testing.T) {
	tr := trace.New(0)
	h := newHost(t, simclock.New(), &fakeExecutor{}, host.Config{Tracer: tr}) // no network model
	var inj faults.Injector = h
	if _, err := inj.FailNode("ghost"); !errors.Is(err, engine.ErrUnknownNode) {
		t.Fatalf("FailNode(ghost) = %v, want ErrUnknownNode", err)
	}
	if err := inj.SlowNode("ghost", 2); !errors.Is(err, engine.ErrUnknownNode) {
		t.Fatalf("SlowNode(ghost) = %v", err)
	}
	if err := inj.DrainNode("ghost"); !errors.Is(err, engine.ErrUnknownNode) {
		t.Fatalf("DrainNode(ghost) = %v", err)
	}
	if err := inj.Partition("a", "b"); !errors.Is(err, engine.ErrNoNetwork) {
		t.Fatalf("Partition without a network = %v", err)
	}
	if err := inj.Heal("a", "b"); !errors.Is(err, engine.ErrNoNetwork) {
		t.Fatalf("Heal without a network = %v", err)
	}
	if err := inj.DrainNode("n0"); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(trace.FaultIgnored); got != 5 {
		t.Fatalf("%d fault_ignored events, want 5 (one per rejected fault)", got)
	}
}

// Admission bookkeeping end to end over the fake executor: the second
// submission queues behind a one-slot quota and stays held; the first
// completion returns the slot, lifts the hold and reports the wake; a
// submission the restore snapshot resolves is admitted past a full quota
// without being charged.
func TestAdmitAndTaskCompleted(t *testing.T) {
	x := &fakeExecutor{}
	adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1})
	h := newHost(t, simclock.New(), x, host.Config{Admission: adm, Restore: &checkpoint.Snapshot{
		Format: checkpoint.Format, Tasks: []engine.TaskSnap{{ID: 3, State: engine.Done, Epoch: 1, Completed: true}},
	}})
	if !h.Tracking() {
		t.Fatal("a host with an admission controller must track completions")
	}
	eng := h.Engine()
	for id := int64(1); id <= 2; id++ {
		out, holds := h.Admit(id, "tenant")
		if (id == 1 && out != autoscale.Admitted) || (id == 2 && out != autoscale.Queued) || holds != int(id-1) {
			t.Fatalf("Admit(%d) = %v under %d holds", id, out, holds)
		}
		eng.Add([]*engine.Task{{ID: id, Class: "t"}}, make([][]deps.TaskID, 1), []int{holds})
	}
	eng.Schedule()
	if len(x.launched) != 1 || x.launched[0].Task.ID != 1 {
		t.Fatalf("launched %d tasks, want only the admitted one", len(x.launched))
	}
	if got := h.EngineStats().AdmitQueued; got != 1 {
		t.Fatalf("AdmitQueued = %d, want 1", got)
	}
	comp, ok := eng.Complete(1, x.launched[0].Epoch, false)
	if !ok {
		t.Fatal("completion rejected")
	}
	if !h.TaskCompleted(1, comp.First) {
		t.Fatal("the freed slot did not wake the queued submission")
	}
	eng.Schedule()
	if len(x.launched) != 2 || x.launched[1].Task.ID != 2 {
		t.Fatalf("queued task not launched after its hold lifted: %d launches", len(x.launched))
	}
	// A re-execution's completion (first == false) returns no slot.
	if h.TaskCompleted(1, false) {
		t.Fatal("a recovery re-execution must not release quota")
	}
	// Task 2 holds the tenant's only slot. Task 3 is recorded completed
	// (nothing to be alive: no outputs), so it never runs: admitted at
	// once, charged nothing, done on registration.
	before := adm.Stats()
	out, holds := h.Admit(3, "tenant")
	if out != autoscale.Admitted || holds != 1 {
		t.Fatalf("Admit of a resolved ID = %v under %d holds, want Admitted, held until its offer", out, holds)
	}
	if st := adm.Stats(); st != before {
		t.Fatalf("resolved ID moved the controller's books: %+v -> %+v", before, st)
	}
	eng.Add([]*engine.Task{{ID: 3, Class: "t"}}, make([][]deps.TaskID, 1), []int{holds})
	if done, _ := h.Resolve(3); !done {
		t.Fatal("the recorded completion did not resolve")
	}
	if done, wave := h.Resolve(3); done || wave {
		t.Fatal("a record is offered once")
	}
	eng.Schedule()
	if len(x.launched) != 2 || h.RestoredTasks() != 1 {
		t.Fatalf("%d launches, %d restored; want the resolved task counted, not run", len(x.launched), h.RestoredTasks())
	}
	if out, _ := h.Admit(4, "tenant"); out != autoscale.Queued {
		t.Fatalf("Admit of an unrecorded ID past the cap = %v, want Queued", out)
	}
}

// A grown node is reserved whole for the tier's delay, so the wave
// that follows the grow cannot land on it early; the hold lifts on the
// timer.
func TestAutoscaleStepHoldsProvisioningNode(t *testing.T) {
	tm, x := simclock.New(), &fakeExecutor{}
	desc := resources.Description{Cores: 2, MemoryMB: 4000, SpeedFactor: 1}
	scaler, err := autoscale.NewThreshold(autoscale.Tier{Name: "vm", Desc: desc, Delay: 30 * time.Second, Max: 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	h := newHost(t, tm, x, host.Config{
		Pool: resources.NewPool(), Tracer: tr, Autoscale: scaler,
	})
	h.Engine().Add([]*engine.Task{{ID: 1, Class: "t"}}, make([][]deps.TaskID, 1), nil)
	if act := h.AutoscaleStep(); act.Kind != autoscale.Grew || act.Delay != 30*time.Second {
		t.Fatalf("step = %+v, want a grow with the tier's delay", act)
	}
	if len(x.launched) != 0 {
		t.Fatal("task placed on a node that is still provisioning")
	}
	if tr.Count(trace.NodeAdded) != 1 {
		t.Fatal("grow not traced")
	}
	if !tm.Step() || tm.Now() != 30*time.Second {
		t.Fatalf("provisioning hold not armed at 30s (now %v)", tm.Now())
	}
	if len(x.launched) != 1 {
		t.Fatal("task not placed once the provisioning hold lifted")
	}
}

// A restore snapshot of another format is refused before anything is
// built: resuming cold would recompute the campaign without a word.
func TestNewRefusesForeignSnapshotFormat(t *testing.T) {
	_, err := host.New(host.Config{
		Pool: oneNodePool(), Policy: sched.FIFO{}, Restore: &checkpoint.Snapshot{Format: checkpoint.Format + 1},
	}, host.Backend{Clock: simclock.New(), Timer: simclock.New(), Executor: &fakeExecutor{}})
	if err == nil {
		t.Fatal("New accepted a snapshot of another format")
	}
}
