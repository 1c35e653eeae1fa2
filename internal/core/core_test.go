package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/mlpredict"
	"repro/internal/resources"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

func newRegistry() *transfer.Registry { return transfer.NewRegistry() }

func flatNet() *simnet.Network { return simnet.New(simnet.Link{BandwidthMBps: 1000}) }

func newRT(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := New(cfg)
	t.Cleanup(rt.Shutdown)
	return rt
}

func registerArith(t *testing.T, rt *Runtime) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.Register(TaskDef{Name: "set", Fn: func(_ context.Context, args []any) ([]any, error) {
		return []any{args[0]}, nil // value -> out handle
	}}))
	must(rt.Register(TaskDef{Name: "add", Fn: func(_ context.Context, args []any) ([]any, error) {
		a, aok := args[0].(int)
		b, bok := args[1].(int)
		if !aok || !bok {
			return nil, errors.New("add: bad args")
		}
		return []any{a + b}, nil
	}}))
	must(rt.Register(TaskDef{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
		v, ok := args[0].(int)
		if !ok {
			return nil, errors.New("inc: bad arg")
		}
		return []any{v + 1}, nil
	}}))
}

func TestBasicChain(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)

	x := rt.NewData()
	// set(5) -> x ; inc(x) -> x ; inc(x) -> x  ⇒ 7
	if _, err := rt.Submit("set", In(5), Write(x)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("inc", Update(x)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("inc", Update(x)); err != nil {
		t.Fatal(err)
	}
	got, err := rt.WaitOn(x)
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("WaitOn = %v, want 7", got)
	}
}

func TestDiamondDataflow(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)

	a, b, c, d := rt.NewData(), rt.NewData(), rt.NewData(), rt.NewData()
	if _, err := rt.Submit("set", In(10), Write(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("add", Read(a), In(1), Write(b)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("add", Read(a), In(2), Write(c)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("add", Read(b), Read(c), Write(d)); err != nil { // (10+1)+(10+2)
		t.Fatal(err)
	}
	got, err := rt.WaitOn(d)
	if err != nil {
		t.Fatal(err)
	}
	if got != 23 {
		t.Fatalf("diamond = %v, want 23", got)
	}
}

func TestParallelismActuallyHappens(t *testing.T) {
	rt := newRT(t, Config{})
	var concurrent, peak int32
	if err := rt.Register(TaskDef{Name: "sleepy", Fn: func(_ context.Context, _ []any) ([]any, error) {
		c := atomic.AddInt32(&concurrent, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		atomic.AddInt32(&concurrent, -1)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.Submit("sleepy"); err != nil {
			t.Fatal(err)
		}
	}
	rt.Barrier()
	if atomic.LoadInt32(&peak) < 2 {
		t.Fatalf("peak concurrency = %d, want ≥ 2", peak)
	}
	// Default pool has 4 cores: concurrency must never exceed 4.
	if atomic.LoadInt32(&peak) > 4 {
		t.Fatalf("peak concurrency = %d exceeds 4 cores", peak)
	}
}

func TestConstraintsLimitConcurrency(t *testing.T) {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n", resources.Description{Cores: 8, MemoryMB: 1000}))
	rt := newRT(t, Config{Pool: pool})
	var concurrent, peak int32
	if err := rt.Register(TaskDef{
		Name:        "big",
		Constraints: resources.Constraints{MemoryMB: 500},
		Fn: func(_ context.Context, _ []any) ([]any, error) {
			c := atomic.AddInt32(&concurrent, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			atomic.AddInt32(&concurrent, -1)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := rt.Submit("big"); err != nil {
			t.Fatal(err)
		}
	}
	rt.Barrier()
	if got := atomic.LoadInt32(&peak); got > 2 {
		t.Fatalf("peak = %d, memory constraint allows only 2", got)
	}
}

func TestUnknownTask(t *testing.T) {
	rt := newRT(t, Config{})
	if _, err := rt.Submit("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
}

func TestUnplaceableRejectedAtSubmit(t *testing.T) {
	rt := newRT(t, Config{})
	if err := rt.Register(TaskDef{
		Name:        "huge",
		Constraints: resources.Constraints{Cores: 1024},
		Fn:          func(_ context.Context, _ []any) ([]any, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("huge"); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("err = %v, want ErrUnplaceable", err)
	}
}

func TestErrorPropagatesToDependents(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	boom := errors.New("boom")
	if err := rt.Register(TaskDef{Name: "fail", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return []any{nil}, boom
	}}); err != nil {
		t.Fatal(err)
	}
	x := rt.NewData()
	f1, err := rt.Submit("fail", Write(x))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := rt.Submit("inc", Update(x))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Wait(); !errors.Is(err, boom) {
		t.Fatalf("f1 err = %v", err)
	}
	if _, err := f2.Wait(); !errors.Is(err, ErrDependencyFailed) {
		t.Fatalf("f2 err = %v, want ErrDependencyFailed", err)
	}
	if _, err := rt.WaitOn(x); err == nil {
		t.Fatal("WaitOn of poisoned handle should fail")
	}
}

func TestArityMismatch(t *testing.T) {
	rt := newRT(t, Config{})
	if err := rt.Register(TaskDef{Name: "lying", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return []any{1, 2}, nil // claims 2 outputs
	}}); err != nil {
		t.Fatal(err)
	}
	x := rt.NewData()
	f, err := rt.Submit("lying", Write(x)) // only 1 written param
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v, want ErrArity", err)
	}
}

func TestSetInitialAndWaitOnUnwritten(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	x := rt.NewData()
	rt.SetInitial(x, 41)
	got, err := rt.WaitOn(x)
	if err != nil || got != 41 {
		t.Fatalf("WaitOn initial = %v %v", got, err)
	}
	if _, err := rt.Submit("inc", Update(x)); err != nil {
		t.Fatal(err)
	}
	got, err = rt.WaitOn(x)
	if err != nil || got != 42 {
		t.Fatalf("WaitOn = %v %v, want 42", got, err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	rt := New(Config{})
	registerArith(t, rt)
	rt.Shutdown()
	if _, err := rt.Submit("set", In(1)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
	rt.Shutdown() // idempotent
}

func TestLateSubmissionSeesCompletedDependency(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	x := rt.NewData()
	f, err := rt.Submit("set", In(3), Write(x))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	// Producer already finished; the reader must still run (not hang).
	y := rt.NewData()
	if _, err := rt.Submit("add", Read(x), In(4), Write(y)); err != nil {
		t.Fatal(err)
	}
	got, err := rt.WaitOn(y)
	if err != nil || got != 7 {
		t.Fatalf("late read = %v %v, want 7", got, err)
	}
}

func TestManyTasksStress(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	x := rt.NewData()
	if _, err := rt.Submit("set", In(0), Write(x)); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := rt.Submit("inc", Update(x)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rt.WaitOn(x)
	if err != nil || got != n {
		t.Fatalf("chain of %d incs = %v %v", n, got, err)
	}
}

func TestIndependentFanOut(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	const n = 100
	futures := make([]*Future, n)
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		handles[i] = rt.NewData()
		f, err := rt.Submit("set", In(i), Write(handles[i]))
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = f
	}
	for i, h := range handles {
		got, err := rt.WaitOn(h)
		if err != nil || got != i {
			t.Fatalf("handle %d = %v %v", i, got, err)
		}
	}
}

func TestPredictorObservesRealDurations(t *testing.T) {
	pred := mlpredict.NewPredictor(time.Hour)
	rt := newRT(t, Config{Predictor: pred})
	if err := rt.Register(TaskDef{Name: "nap", Fn: func(_ context.Context, _ []any) ([]any, error) {
		time.Sleep(10 * time.Millisecond)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit("nap"); err != nil {
			t.Fatal(err)
		}
	}
	rt.Barrier()
	got := pred.Predict("nap", 0)
	if got < 5*time.Millisecond || got > 500*time.Millisecond {
		t.Fatalf("predicted %v, want ~10ms", got)
	}
}

func TestTraceAndProvenance(t *testing.T) {
	tr := trace.New(0)
	prov := trace.NewProvenance()
	rt := newRT(t, Config{Tracer: tr, Provenance: prov})
	registerArith(t, rt)
	x, y := rt.NewData(), rt.NewData()
	if _, err := rt.Submit("set", In(1), Write(x)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("add", Read(x), In(2), Write(y)); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()
	if tr.Count(trace.TaskCompleted) != 2 {
		t.Fatalf("completed events = %d", tr.Count(trace.TaskCompleted))
	}
	// y's version 1 must descend from x's version 1.
	anc := prov.Ancestry(deps.Version{Data: y.id, Ver: 1})
	if len(anc) != 1 || anc[0] != (deps.Version{Data: x.id, Ver: 1}) {
		t.Fatalf("ancestry = %v", anc)
	}
}

// Every member of a commutative group reads and writes the one version
// the group shares (acc's version 1 here, merged in place), so that
// version's lineage is the union of all the members' inputs, whichever
// member finishes last.
func TestProvenanceMergesCommutativeMembers(t *testing.T) {
	prov := trace.NewProvenance()
	rt := newRT(t, Config{Provenance: prov})
	registerArith(t, rt)
	acc := rt.NewData()
	if _, err := rt.Submit("set", In(0), Write(acc)); err != nil {
		t.Fatal(err)
	}
	want := []deps.Version{{Data: acc.id, Ver: 1}}
	for i := 0; i < 3; i++ {
		x := rt.NewData()
		if _, err := rt.Submit("set", In(i), Write(x)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Submit("add", Read(x), Reduce(acc)); err != nil {
			t.Fatal(err)
		}
		want = append(want, deps.Version{Data: x.id, Ver: 1})
	}
	rt.Barrier()
	slices.SortFunc(want, deps.Version.Compare)
	got := prov.Ancestry(deps.Version{Data: acc.id, Ver: 1})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ancestry of the reduced version = %v, want %v", got, want)
	}
}

func TestStatsCountEdges(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	x := rt.NewData()
	if _, err := rt.Submit("set", In(1), Write(x)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("inc", Update(x)); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()
	s := rt.Stats()
	if s.Submitted != 2 || s.DepsEdges.RAW != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRetriesMaskTransientFailures(t *testing.T) {
	rt := newRT(t, Config{})
	var attempts int32
	if err := rt.Register(TaskDef{
		Name:    "flaky",
		Retries: 3,
		Fn: func(_ context.Context, _ []any) ([]any, error) {
			if atomic.AddInt32(&attempts, 1) < 3 {
				return nil, errors.New("transient")
			}
			return []any{"ok"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	x := rt.NewData()
	f, err := rt.Submit("flaky", Write(x))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := f.Wait()
	if err != nil || vals[0] != "ok" {
		t.Fatalf("Wait = %v %v", vals, err)
	}
	if atomic.LoadInt32(&attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestRetriesExhausted(t *testing.T) {
	rt := newRT(t, Config{})
	var attempts int32
	boom := errors.New("permanent")
	if err := rt.Register(TaskDef{
		Name:    "doomed",
		Retries: 2,
		Fn: func(_ context.Context, _ []any) ([]any, error) {
			atomic.AddInt32(&attempts, 1)
			return nil, boom
		},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := rt.Submit("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if atomic.LoadInt32(&attempts) != 3 { // 1 + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestSubmitAllBatchChain(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	// A chain with intra-batch dependencies: set(1) -> inc -> inc.
	h := rt.NewData()
	futs, err := rt.SubmitAll([]TaskReq{
		{Name: "set", Params: []Param{In(1), Write(h)}},
		{Name: "inc", Params: []Param{Update(h)}},
		{Name: "inc", Params: []Param{Update(h)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(futs) != 3 {
		t.Fatalf("futures = %d, want 3", len(futs))
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := rt.WaitOn(h)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("chain result = %v, want 3", v)
	}
}

func TestSubmitAllRejectsWholeBatch(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	h := rt.NewData()
	if _, err := rt.SubmitAll([]TaskReq{
		{Name: "set", Params: []Param{In(1), Write(h)}},
		{Name: "no-such-task"},
	}); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("err = %v, want ErrUnknownTask", err)
	}
	// Nothing of the failed batch registered: the handle has no producer.
	if got := rt.Stats().Submitted; got != 0 {
		t.Fatalf("submitted = %d after rejected batch, want 0", got)
	}
}

func TestLiveFailNodeRecoversChain(t *testing.T) {
	// Two logical nodes; a producer's output lives only on w0; killing w0
	// mid-consumer forces the engine to re-run the producer (lineage) and
	// the consumer on w1, and the futures must still deliver the right
	// values.
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("w0", resources.Description{Cores: 1, MemoryMB: 4000, SpeedFactor: 1}))
	_ = pool.Add(resources.NewNode("w1", resources.Description{Cores: 1, MemoryMB: 4000, SpeedFactor: 1}))
	rt := newRT(t, Config{Pool: pool, Locations: newRegistry(), Net: flatNet()})
	registerArith(t, rt)

	started := make(chan struct{}, 2)
	release := make(chan struct{})
	if err := rt.Register(TaskDef{Name: "slow-inc", Fn: func(_ context.Context, args []any) ([]any, error) {
		started <- struct{}{}
		<-release
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}}); err != nil {
		t.Fatal(err)
	}

	h := rt.NewData()
	fset, err := rt.Submit("set", In(41), Write(h))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fset.Wait(); err != nil {
		t.Fatal(err)
	}
	finc, err := rt.Submit("slow-inc", Update(h))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	rep, err := rt.FailNode("w0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Killed) != 1 {
		t.Fatalf("killed %d tasks, want 1 (the running slow-inc)", len(rep.Killed))
	}
	close(release)
	if _, err := finc.Wait(); err != nil {
		t.Fatalf("consumer after recovery: %v", err)
	}
	v, err := rt.WaitOn(h)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("recovered value = %v, want 42", v)
	}
	if got := rt.EngineStats().Reexecuted; got != 1 {
		t.Fatalf("re-executed = %d, want 1 (the producer)", got)
	}
}

func TestTraceEventsCarryTimestamps(t *testing.T) {
	tr := trace.New(0)
	rt := newRT(t, Config{Tracer: tr})
	if err := rt.Register(TaskDef{Name: "nap10", Fn: func(_ context.Context, _ []any) ([]any, error) {
		time.Sleep(10 * time.Millisecond)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("nap10"); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()
	spans := trace.Timeline(tr.Events())
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if (spans[0].End - spans[0].Start) < 5*time.Millisecond {
		t.Fatalf("span duration %v, want ≥ 5ms", (spans[0].End - spans[0].Start))
	}
}

// TestSubmitErrorWording pins what Submit and SubmitAll report, which
// share one registration path but word their errors apart: Submit returns
// a definition error or a quota rejection as it is, SubmitAll names the
// refused request's index in both.
func TestSubmitErrorWording(t *testing.T) {
	release := make(chan struct{})
	rt := New(Config{Admission: autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1, MaxQueued: 1})})
	defer rt.Shutdown()
	defer close(release)
	for _, def := range []TaskDef{
		{Name: "block", Fn: func(context.Context, []any) ([]any, error) { <-release; return nil, nil }},
		{Name: "big", Fn: func(context.Context, []any) ([]any, error) { return nil, nil }, Constraints: resources.Constraints{Cores: 64}},
	} {
		if err := rt.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	check := func(err, is error, want string) {
		t.Helper()
		if !errors.Is(err, is) || err.Error() != want {
			t.Errorf("err = %v, want %q (errors.Is %v)", err, want, is)
		}
	}
	_, err := rt.Submit("nope")
	check(err, ErrUnknownTask, "core: unknown task: nope")
	_, err = rt.SubmitAll([]TaskReq{{Name: "block"}, {Name: "nope"}})
	check(err, ErrUnknownTask, "core: batch task 1: core: unknown task: nope")
	_, err = rt.Submit("big")
	check(err, ErrUnplaceable, "core: no node can satisfy task constraints: big needs "+fmt.Sprintf("%+v", resources.Constraints{Cores: 64}))
	_, err = rt.Submit("block", Read(New(Config{}).NewData()))
	check(err, ErrForeignHandle, "core: handle belongs to another runtime: parameter 0")

	for range 2 { // one admitted, one queued behind it
		if _, err := rt.Submit("block"); err != nil {
			t.Fatal(err)
		}
	}
	_, err = rt.Submit("block")
	check(err, ErrQuotaRejected, "core: submission rejected by admission quota: block")
	futs, err := rt.SubmitAll([]TaskReq{{Name: "block"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = futs[0].Wait()
	check(err, ErrQuotaRejected, "core: submission rejected by admission quota: batch task 0 (block)")
	if got := rt.Stats().Submitted; got != 2 {
		t.Errorf("%d tasks registered, want the admitted and the queued one", got)
	}
}

// TestSubmitScratchPinsNothing: the lists the registration path reuses
// hold no task, result or engine task once a call returns, and a batch
// larger than keptScratch leaves none of its arrays behind.
func TestSubmitScratchPinsNothing(t *testing.T) {
	rt := New(Config{})
	defer rt.Shutdown()
	if err := rt.Register(TaskDef{Name: "noop", Fn: func(context.Context, []any) ([]any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	h := rt.NewData()
	submit := func(n int) {
		reqs := make([]TaskReq, n)
		for i := range reqs {
			reqs[i] = TaskReq{Name: "noop", Params: []Param{Update(h)}}
		}
		if _, err := rt.SubmitAll(reqs); err != nil {
			t.Fatal(err)
		}
	}
	submit(256)
	rt.mu.Lock()
	s := rt.scratch
	rt.mu.Unlock()
	if cap(s.accepted) < 256 || cap(s.results) < 256 || cap(s.ets) < 256 {
		t.Fatalf("a 256-request batch's lists were not kept: caps %d, %d, %d", cap(s.accepted), cap(s.results), cap(s.ets))
	}
	if slices.ContainsFunc(s.accepted[:cap(s.accepted)], func(t *rtTask) bool { return t != nil }) ||
		slices.ContainsFunc(s.batch[:cap(s.batch)], func(b deps.TaskAccesses) bool { return b.Accesses != nil }) ||
		slices.ContainsFunc(s.results[:cap(s.results)], func(r deps.Result) bool { return r.Writes != nil }) ||
		slices.ContainsFunc(s.ets[:cap(s.ets)], func(t *engine.Task) bool { return t != nil }) ||
		slices.ContainsFunc(s.prods[:cap(s.prods)], func(p []deps.TaskID) bool { return p != nil }) {
		t.Fatal("the kept lists still hold the last batch's tasks or lists")
	}
	submit(keptScratch + 1)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !reflect.DeepEqual(rt.scratch, submitScratch{}) {
		t.Fatalf("a %d-request batch left its lists behind", keptScratch+1)
	}
}

// TestReregisterKeepsQueuedSubmissions re-registers a class with new
// constraints and a new body while its earlier submissions are still
// queued: those keep the definition they were submitted under, and only
// later submissions take the new one.
func TestReregisterKeepsQueuedSubmissions(t *testing.T) {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n", resources.Description{Cores: 4, MemoryMB: 8000}))
	rt := newRT(t, Config{Pool: pool})
	release := make(chan struct{})
	body := func(v string) TaskFunc {
		return func(context.Context, []any) ([]any, error) { return []any{v}, nil }
	}
	old := resources.Constraints{Cores: 2, MemoryMB: 1000}
	for _, def := range []TaskDef{
		{Name: "block", Constraints: resources.Constraints{Cores: 4}, Fn: func(context.Context, []any) ([]any, error) {
			<-release
			return nil, nil
		}},
		{Name: "c", Constraints: old, Fn: body("old")},
	} {
		if err := rt.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Submit("block"); err != nil { // holds every core until release
		t.Fatal(err)
	}
	submit := func(n int) (out []*Future) {
		for i := 0; i < n; i++ {
			h := rt.NewData()
			f, err := rt.Submit("c", Write(h))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
		return out
	}
	queued := submit(3)
	renewed := resources.Constraints{Cores: 1}
	if err := rt.Register(TaskDef{Name: "c", Constraints: renewed, Fn: body("new")}); err != nil {
		t.Fatal(err)
	}
	later := submit(2)

	got := map[string]int{}
	for _, l := range rt.Engine().SigLoads() {
		got[l.Constraints.Signature()] = l.Ready
	}
	want := map[string]int{old.Signature(): 3, renewed.Signature(): 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ready tasks by constraint signature: %v, want %v", got, want)
	}
	close(release)
	rt.Barrier()
	for i, f := range append(queued, later...) {
		want := "new"
		if i < len(queued) {
			want = "old"
		}
		if v, err := f.Wait(); err != nil || len(v) != 1 || v[0] != want {
			t.Errorf("submission %d: %v, %v; want the %s body's result", i, v, err, want)
		}
	}
}
