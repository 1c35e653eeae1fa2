package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/resources"
)

// The contracts the launch hand-off, the embedded context, the channel-free
// Future and the counting Barrier must keep. A broken one shows as a hang,
// so these runtimes are shut down only on success: a deferred Shutdown
// would sit in Barrier behind the very task that is stuck.

const contractDeadline = 20 * time.Second

// within fails the test unless fn returns before the deadline.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(contractDeadline):
		t.Fatalf("%s did not return within %v", what, contractDeadline)
	}
}

func poolOf(cores ...int) *resources.Pool {
	pool := resources.NewPool()
	for i, c := range cores {
		_ = pool.Add(resources.NewNode("w"+string(rune('0'+i)), resources.Description{Cores: c, MemoryMB: 4000, SpeedFactor: 1}))
	}
	return pool
}

func nop(context.Context, []any) ([]any, error) { return nil, nil }

// TestHandOffRendezvous: every placement runs at once on a goroutine of
// its own, however it was launched. One gate task's completion releases n
// members in a single wave — run by the gate's goroutine, which takes one
// of them itself — and each member waits until all n have started; a fixed
// set of workers, or a launch parked behind a goroutine that is inside a
// body, would deadlock. The nested variant has every member Submit and
// Wait from inside its body while the others are still running.
func TestHandOffRendezvous(t *testing.T) {
	const n = 8
	for _, nested := range []bool{false, true} {
		rt := New(Config{Pool: poolOf(2 * n)}) // room for the members and their nested tasks
		var started sync.WaitGroup
		started.Add(n)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(rt.Register(TaskDef{Name: "gate", Fn: func(context.Context, []any) ([]any, error) { return []any{1}, nil }}))
		must(rt.Register(TaskDef{Name: "nop", Fn: nop}))
		must(rt.Register(TaskDef{Name: "meet", Fn: func(context.Context, []any) ([]any, error) {
			started.Done()
			started.Wait()
			if nested {
				f, err := rt.Submit("nop")
				if err != nil {
					return nil, err
				}
				return f.Wait()
			}
			return nil, nil
		}}))
		h := rt.NewData()
		reqs := []TaskReq{{Name: "gate", Params: []Param{Write(h)}}}
		for i := 0; i < n; i++ {
			reqs = append(reqs, TaskReq{Name: "meet", Params: []Param{Read(h)}})
		}
		futs, err := rt.SubmitAll(reqs)
		must(err)
		within(t, "the rendezvous", func() {
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					t.Error(err)
				}
			}
		})
		rt.Shutdown()
	}
}

// TestHandOffGoroutineBound: a drain reuses its goroutines — at no instant
// of a 20k-task chain campaign are there more than the pool's cores (plus
// the submitter's wave in flight) above the baseline — and none is left
// once Shutdown has returned.
func TestHandOffGoroutineBound(t *testing.T) {
	const chains, layers, batch, cores, slack = 64, 320, 256, 4, 3
	baseline := runtime.NumGoroutine()
	rt := New(Config{Pool: poolOf(cores)})
	var peak atomic.Int64
	if err := rt.Register(TaskDef{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n) // a lost update only lowers a sample taken 20k times
		}
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, chains)
	for c := range handles {
		handles[c] = rt.NewData()
		rt.SetInitial(handles[c], 0)
	}
	reqs := make([]TaskReq, 0, batch)
	for i := 0; i < chains*layers; i++ {
		reqs = append(reqs, TaskReq{Name: "inc", Params: []Param{Update(handles[i%chains])}})
		if len(reqs) == batch || i == chains*layers-1 {
			if _, err := rt.SubmitAll(reqs); err != nil {
				t.Fatal(err)
			}
			reqs = reqs[:0]
		}
	}
	within(t, "Barrier", rt.Barrier)
	if v, err := rt.WaitOn(handles[0]); err != nil || v != layers {
		t.Fatalf("chain 0 ended at %v (err %v), want %d", v, err, layers)
	}
	t.Logf("peak %d goroutines over a baseline of %d", peak.Load(), baseline)
	if got, limit := int(peak.Load()), baseline+cores+slack; got > limit {
		t.Fatalf("%d goroutines at the campaign's peak, want ≤ %d (baseline %d + %d cores + %d)", got, limit, baseline, cores, slack)
	}
	within(t, "Shutdown", rt.Shutdown)
	for deadline := time.Now().Add(contractDeadline); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) { // a goroutine is gone a moment after its wg.Done
			t.Fatalf("%d goroutines after Shutdown, %d before New", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestRunQueueReclaimsPoppedPrefix: a queue that never runs empty must not
// grow with the launches that passed through it — a full array with a
// popped prefix is shifted down, order kept, before it is appended to.
func TestRunQueueReclaimsPoppedPrefix(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	a, b, c := new(rtTask), new(rtTask), new(rtTask)
	c.et.Payload = c
	rt.runq, rt.runHead = []launch{{t: a}, {t: b}}[:2:2], 1 // a is popped, b waits
	rt.takers = 2                                           // both accounted for: Launch starts nothing
	(*coreExecutor)(rt).Launch(engine.Placement{Task: &c.et})
	if rt.runHead != 0 || len(rt.runq) != 2 || cap(rt.runq) != 2 || rt.runq[0].t != b || rt.runq[1].t != c {
		t.Fatalf("queue %+v from %d, want [b c] from 0 in the same array", rt.runq, rt.runHead)
	}
	rt.runq, rt.takers = nil, 0
}

// TestTaskContextContract: what a task body may rely on from its context.
// The first execution is killed by a node failure mid-body; its recovery
// re-execution runs on the slowed survivor.
func TestTaskContextContract(t *testing.T) {
	rt := New(Config{Pool: poolOf(1, 1), Locations: newRegistry(), Net: flatNet()})
	if err := rt.SlowNode("w1", 3); err != nil {
		t.Fatal(err)
	}
	type report struct {
		ctx    context.Context
		factor float64
		err    error // a broken clause, seen from inside the body
	}
	reports := make(chan report, 2)
	started := make(chan struct{}, 2)
	var execution atomic.Int32
	if err := rt.Register(TaskDef{Name: "probe", Fn: func(ctx context.Context, _ []any) ([]any, error) {
		r := report{ctx: ctx, factor: SlowFactorFrom(ctx)}
		defer func() { reports <- r }()
		if execution.Add(1) == 2 {
			// The re-execution must not see its killed predecessor's cancel.
			select {
			case <-ctx.Done():
				r.err = errors.New("re-execution started with a closed Done")
			default:
			}
			if ctx.Err() != nil {
				r.err = errors.New("re-execution started cancelled")
			}
			return []any{2}, nil
		}
		child, cancel := context.WithTimeout(ctx, time.Hour)
		defer cancel()
		started <- struct{}{}
		select {
		case <-ctx.Done(): // the fault kill
		case <-time.After(contractDeadline):
			r.err = errors.New("kill not visible through Done")
			return nil, r.err
		}
		if !errors.Is(ctx.Err(), context.Canceled) {
			r.err = errors.New("kill not visible through Err")
		}
		select {
		case <-child.Done():
		case <-time.After(contractDeadline):
			r.err = errors.New("derived context not cancelled with its parent")
		}
		return nil, ctx.Err()
	}}); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Submit("probe", Write(rt.NewData()))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	rep, err := rt.FailNode("w0")
	if err != nil || len(rep.Killed) != 1 {
		t.Fatalf("FailNode killed %d (err %v), want the running probe", len(rep.Killed), err)
	}
	var vals []any
	within(t, "the recovered future", func() { vals, err = f.Wait() })
	if err != nil || len(vals) != 1 || vals[0] != 2 {
		t.Fatalf("future resolved with %v (err %v), want the re-execution's [2]", vals, err)
	}
	first, second := <-reports, <-reports
	if second.factor == 1 {
		first, second = second, first // the orphan may report after its successor
	}
	if first.err != nil || second.err != nil {
		t.Fatalf("first execution: %v; re-execution: %v", first.err, second.err)
	}
	if first.factor != 1 || second.factor != 3 {
		t.Fatalf("slow factors %v then %v, want the placements' 1 then 3", first.factor, second.factor)
	}
	if first.ctx == second.ctx {
		t.Fatal("the re-execution shares its predecessor's context")
	}
	// The body has returned, so its context is over — and Done, first
	// asked for only now, hands back a channel that is already closed.
	if second.ctx.Err() == nil {
		t.Fatal("context still live after its body returned")
	}
	select {
	case <-second.ctx.Done():
	default:
		t.Fatal("Done after the cancel returned an open channel")
	}
	within(t, "Shutdown", rt.Shutdown)
}

// TestFutureContract: Wait before, while and after the result is
// delivered, from many goroutines; Done never blocks; a second delivery —
// a recovery re-run of a finished task — changes nothing.
func TestFutureContract(t *testing.T) {
	const waiters = 64
	var f Future
	if f.Done() {
		t.Fatal("a fresh future is done")
	}
	type result struct {
		vals []any
		err  error
	}
	results := make(chan result, 2*waiters)
	wait := func() { v, err := f.Wait(); results <- result{v, err} }
	var parked sync.WaitGroup
	for i := 0; i < waiters; i++ {
		parked.Add(1)
		go func() { parked.Done(); wait() }()
	}
	parked.Wait() // those are in, or about to enter, Wait; the next lot races the delivery
	for i := 0; i < waiters; i++ {
		go wait()
	}
	if f.Done() {
		t.Fatal("done before delivery")
	}
	want := errors.New("first")
	if !f.complete([]any{1}, want) {
		t.Fatal("first delivery refused")
	}
	if f.complete([]any{2}, nil) {
		t.Fatal("second delivery accepted")
	}
	within(t, "the waiters", func() {
		for i := 0; i < 2*waiters; i++ {
			if r := <-results; len(r.vals) != 1 || r.vals[0] != 1 || r.err != want {
				t.Errorf("a waiter got %v, %v", r.vals, r.err)
			}
		}
	})
	if v, err := f.Wait(); !f.Done() || len(v) != 1 || v[0] != 1 || err != want {
		t.Fatalf("after delivery: %v, %v, done %v", v, err, f.Done())
	}
}

// TestBarrierContract: Barrier returns when, and only when, no future is
// unresolved.
func TestBarrierContract(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		rt := New(Config{})
		within(t, "Barrier on an idle runtime", rt.Barrier)
		rt.Shutdown()
	})

	// Whatever was submitted before a Barrier call is resolved when that
	// call returns, with other submissions landing all the while.
	t.Run("racing submitters", func(t *testing.T) {
		const submitters, each = 4, 300
		rt := New(Config{})
		if err := rt.Register(TaskDef{Name: "nop", Fn: nop}); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var submitted []*Future
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					fs, err := rt.SubmitAll([]TaskReq{{Name: "nop"}, {Name: "nop"}})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					submitted = append(submitted, fs...)
					mu.Unlock()
				}
			}()
		}
		stop := make(chan struct{})
		go func() { wg.Wait(); close(stop) }()
		for racing := true; racing; {
			select {
			case <-stop:
				racing = false // one more round, over everything
			default:
			}
			mu.Lock()
			before := submitted[:len(submitted):len(submitted)]
			mu.Unlock()
			within(t, "Barrier", rt.Barrier)
			for _, f := range before {
				if !f.Done() {
					t.Fatal("Barrier returned before a future submitted ahead of it resolved")
				}
			}
		}
		if len(submitted) != 2*submitters*each {
			t.Fatalf("%d futures, want %d", len(submitted), 2*submitters*each)
		}
		rt.Shutdown()
	})

	// A fault-killed task's future stays open until its recovery delivers,
	// and so does Barrier — the orphan returning changes nothing.
	t.Run("killed task", func(t *testing.T) {
		rt := New(Config{Pool: poolOf(1, 1), Locations: newRegistry(), Net: flatNet()})
		started := make(chan chan struct{}, 2)
		if err := rt.Register(TaskDef{Name: "hold", Fn: func(context.Context, []any) ([]any, error) {
			release := make(chan struct{})
			started <- release
			<-release
			return []any{1}, nil
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Submit("hold", Write(rt.NewData())); err != nil {
			t.Fatal(err)
		}
		orphan := <-started
		if rep, err := rt.FailNode("w0"); err != nil || len(rep.Killed) != 1 {
			t.Fatalf("FailNode killed %d (err %v), want 1", len(rep.Killed), err)
		}
		recovery := <-started
		drained := make(chan struct{})
		go func() { rt.Barrier(); close(drained) }()
		close(orphan)
		select {
		case <-drained:
			t.Fatal("Barrier returned while the killed task awaited its recovery")
		case <-time.After(50 * time.Millisecond): // a negative has no event to wait on
		}
		close(recovery)
		within(t, "Barrier after the recovery", func() { <-drained })
		within(t, "Shutdown", rt.Shutdown)
	})

	// A quota-rejected request's future is born resolved: nothing will
	// ever complete it, so it must not be counted.
	t.Run("quota rejections", func(t *testing.T) {
		adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1, MaxQueued: 1})
		rt := New(Config{Admission: adm})
		release := make(chan struct{})
		if err := rt.Register(TaskDef{Name: "hold", Fn: func(context.Context, []any) ([]any, error) {
			<-release
			return nil, nil
		}}); err != nil {
			t.Fatal(err)
		}
		futs, err := rt.SubmitAll([]TaskReq{{Name: "hold"}, {Name: "hold"}, {Name: "hold"}, {Name: "hold"}})
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for _, f := range futs {
			if f.Done() {
				if _, err := f.Wait(); !errors.Is(err, ErrQuotaRejected) {
					t.Fatalf("a future resolved early with %v", err)
				}
				rejected++
			}
		}
		if rejected != 2 {
			t.Fatalf("%d rejections, want 2 (one in flight, one queued)", rejected)
		}
		close(release)
		within(t, "Barrier", rt.Barrier)
		for _, f := range futs {
			if !f.Done() {
				t.Fatal("Barrier returned with an admitted future open")
			}
		}
		rt.Shutdown()
	})

	t.Run("on-drain checkpoint", func(t *testing.T) {
		store, err := checkpoint.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rt := New(Config{Locations: newRegistry(), Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.OnDrain()}})
		if err := rt.Register(TaskDef{Name: "nop", Fn: nop}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Submit("nop"); err != nil {
			t.Fatal(err)
		}
		within(t, "Barrier", rt.Barrier)
		snap, err := store.Latest()
		if err != nil || len(snap.Tasks) != 1 || !snap.Tasks[0].Restorable() {
			t.Fatalf("no on-drain snapshot of the one completion: %+v, %v", snap, err)
		}
		rt.Shutdown()
	})
}
