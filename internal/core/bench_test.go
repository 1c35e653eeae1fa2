package core

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkSubmitWait measures end-to-end task overhead: submit, schedule,
// execute a trivial body, complete a future.
func BenchmarkSubmitWait(b *testing.B) {
	rt := New(Config{})
	defer rt.Shutdown()
	if err := rt.Register(TaskDef{Name: "noop", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return nil, nil
	}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rt.Submit("noop")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitAllWait measures the batch submission path: N tasks
// registered and queued under one lock round-trip (deps.AppendBatch +
// engine.Add), then awaited. Compare per-task cost with
// BenchmarkSubmitWait to see what the batch amortises.
func BenchmarkSubmitAllWait(b *testing.B) {
	const batch = 64
	rt := New(Config{})
	defer rt.Shutdown()
	if err := rt.Register(TaskDef{Name: "noop", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return nil, nil
	}}); err != nil {
		b.Fatal(err)
	}
	reqs := make([]TaskReq, batch)
	for i := range reqs {
		reqs[i] = TaskReq{Name: "noop"}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		futs, err := rt.SubmitAll(reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkDependencyChain measures per-task overhead through a value-
// passing dependency chain.
func BenchmarkDependencyChain(b *testing.B) {
	rt := New(Config{})
	defer rt.Shutdown()
	if err := rt.Register(TaskDef{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}}); err != nil {
		b.Fatal(err)
	}
	h := rt.NewData()
	rt.SetInitial(h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Submit("inc", Update(h)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := rt.WaitOn(h); err != nil {
		b.Fatal(err)
	}
}

// TestChainCampaignAllocBudget is the live runtime's deterministic cost
// gate (the ledger's live-dag shape at package-test size): 64 chains ×
// 200 read-modify-write layers through SubmitAll, then a Barrier. What a
// task still allocates is the body's own result list with its boxed int;
// its rtTask (future and context included), its parameter, argument,
// access and cell-pointer lists are slots of per-batch arrays, its
// version's cell is a slot of a page, and the goroutine it runs on is one
// a finished task handed over. The tree before that paid for each of
// those per task and read 13.1; with a hashed value table and an argument
// list made per execution it read 2.10.
func TestChainCampaignAllocBudget(t *testing.T) {
	const chains, layers, batch = 64, 200, 256
	const budget = 1.5 // this tree reads 1.09
	run := func(layers int) {
		rt := New(Config{})
		defer rt.Shutdown()
		if err := rt.Register(TaskDef{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
			v, _ := args[0].(int)
			return []any{v + 1}, nil
		}}); err != nil {
			t.Fatal(err)
		}
		handles := make([]*Handle, chains)
		for c := range handles {
			handles[c] = rt.NewData()
			rt.SetInitial(handles[c], c)
		}
		reqs := make([]TaskReq, 0, batch)
		params := make([]Param, chains*layers)
		for i := range params {
			params[i] = Update(handles[i%chains])
			reqs = append(reqs, TaskReq{Name: "inc", Params: params[i : i+1]})
			if len(reqs) == batch || i == len(params)-1 {
				if _, err := rt.SubmitAll(reqs); err != nil {
					t.Fatal(err)
				}
				reqs = reqs[:0]
			}
		}
		rt.Barrier()
		if v, err := rt.WaitOn(handles[chains-1]); err != nil || v != chains-1+layers {
			t.Fatalf("last chain ended at %v (err %v), want %d", v, err, chains-1+layers)
		}
	}
	run(layers / 10) // warm lazily initialised runtime state
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(layers)
	runtime.ReadMemStats(&after)
	perTask := float64(after.Mallocs-before.Mallocs) / float64(chains*layers)
	t.Logf("%.2f allocations per task", perTask)
	if perTask > budget {
		t.Fatalf("%.2f allocations per task, budget %.1f", perTask, budget)
	}
}

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// TestSubmitAllocBudget is the deterministic cost gate on submission
// itself: the allocations of one Submit, and per task of a 256-request
// SubmitAll (the ledger's live-dag batch). Every measured submission
// updates one datum behind a producer whose body blocks until the end, so
// no body runs while the count is taken and the count is the same on
// every run. The ledger prices SubmitAll per task, but a Submit reaches it
// only as a round-trip latency, so a Submit that grows an allocation — say
// one whose variadic parameter list escapes to the heap — shows here first.
// Before Submit became SubmitAll of one request, with the access lists and
// the per-call lists reused, it read 8.007 and 0.0640.
func TestSubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	const submits, batches, batch = 1024, 16, 256
	const submitBudget, batchBudget = 7.01, 0.037 // this tree reads 7.007 and 0.0366
	rt := New(Config{})
	release := make(chan struct{})
	defer rt.Shutdown()
	defer close(release)
	for _, def := range []TaskDef{
		{Name: "block", Fn: func(_ context.Context, _ []any) ([]any, error) {
			<-release
			return []any{0}, nil
		}},
		{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
			v, _ := args[0].(int)
			return []any{v + 1}, nil
		}},
	} {
		if err := rt.Register(def); err != nil {
			t.Fatal(err)
		}
	}
	h := rt.NewData()
	if _, err := rt.Submit("block", Write(h)); err != nil {
		t.Fatal(err)
	}
	reqs := make([]TaskReq, batch)
	for i := range reqs {
		reqs[i] = TaskReq{Name: "inc", Params: []Param{Update(h)}}
	}
	submit := func() {
		if _, err := rt.Submit("inc", Update(h)); err != nil {
			t.Fatal(err)
		}
	}
	submitAll := func() {
		if _, err := rt.SubmitAll(reqs); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(n int, f func()) (allocs, bytes float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	measure(submits/4, submit) // warm the runtime's and the engine's tables
	measure(batches/4, submitAll)
	a, b := measure(submits, submit)
	perSubmit, perSubmitB := a/submits, b/submits
	a, b = measure(batches, submitAll)
	perTask, perTaskB := a/(batches*batch), b/(batches*batch)
	t.Logf("Submit: %.3f allocations, %.0f B per call; SubmitAll: %.4f allocations, %.1f B per task",
		perSubmit, perSubmitB, perTask, perTaskB)
	if perSubmit > submitBudget {
		t.Errorf("Submit: %.3f allocations per call, budget %.2f", perSubmit, submitBudget)
	}
	if perTask > batchBudget {
		t.Errorf("SubmitAll: %.4f allocations per task, budget %.3f", perTask, batchBudget)
	}
}
