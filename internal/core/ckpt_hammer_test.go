package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/resources"
)

// TestCheckpointWriterHammer runs the checkpoint writer under the race
// detector: eight submitters grow chains on a four-core node while every
// completion captures a delta on its own goroutine and the writer folds,
// compacts and writes behind them, reading holder and output lists after
// their locks are released (they are copy-on-write). After Barrier the
// store's newest state must be the runtime's own.
func TestCheckpointWriterHammer(t *testing.T) {
	const submitters, perSubmitter = 8, 40
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
	rt := newRT(t, Config{
		Pool: pool, Locations: newRegistry(), Net: flatNet(),
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)},
	})
	if err := rt.Register(TaskDef{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
		return []any{args[0].(int) + 1}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		h := rt.NewData()
		rt.SetInitial(h, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if _, err := rt.Submit("inc", Param{Handle: h, Dir: deps.InOut}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rt.Barrier()

	latest, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Equivalent(latest, rt.CheckpointSnapshot()); err != nil {
		t.Fatalf("the store's newest state is not the runtime's: %v", err)
	}
	done := 0
	for _, t := range latest.Tasks {
		if t.Restorable() {
			done++
		}
	}
	if done != submitters*perSubmitter {
		t.Fatalf("%d completions on disk, want %d", done, submitters*perSubmitter)
	}
}
