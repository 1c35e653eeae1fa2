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
// registered and queued under one lock round-trip (deps.RegisterBatch +
// engine.AddBatch), then awaited. Compare per-task cost with
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
