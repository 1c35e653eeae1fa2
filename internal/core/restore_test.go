package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
)

// A submission the snapshot records as completed but whose value did not
// survive must run like any other — admitted, charged a slot, bounded by
// the tenant's cap. (It used to skip admission on the record alone and
// then run anyway: two bodies of one tenant at once under MaxInFlight 1,
// with the controller never having heard of either.)
func TestRestoreWithoutValuesStillChargesQuota(t *testing.T) {
	snap := &checkpoint.Snapshot{Tasks: []engine.TaskSnap{
		{ID: 1, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{{Data: 1, Ver: 1}}},
		{ID: 2, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{{Data: 2, Ver: 1}}},
	}} // no catalog: neither value survived
	adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1})
	rt := newRT(t, Config{Restore: snap, Admission: adm})

	var running, peak atomic.Int32
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	open := sync.OnceFunc(func() { close(release) })
	t.Cleanup(open) // runs before Shutdown's Barrier, whatever fails
	if err := rt.Register(TaskDef{Name: "block", Fn: func(_ context.Context, _ []any) ([]any, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		started <- struct{}{}
		<-release
		running.Add(-1)
		return []any{1}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	f1, err := rt.Submit("block", Write(rt.NewData()))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	f2, err := rt.Submit("block", Write(rt.NewData()))
	if err != nil {
		t.Fatal(err)
	}
	if st := adm.Stats(); st.InFlight != 1 || st.Queued != 1 {
		t.Fatalf("with one body running and one submitted: %+v, want 1 in flight and 1 queued", st)
	}
	open()
	for _, f := range []*Future{f1, f2} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rt.Barrier()
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrency %d under MaxInFlight 1", p)
	}
	st := adm.Stats()
	if st.Admitted+st.Released != 2 || st.InFlight != 0 {
		t.Fatalf("admitted %d + released %d, in flight %d; want both submissions charged and returned", st.Admitted, st.Released, st.InFlight)
	}
	if n := rt.RestoredTasks(); n != 0 {
		t.Fatalf("restored %d tasks from a snapshot with no values", n)
	}
}

// A runtime checkpointed without a location registry captures no catalog
// and no output lists, so nothing its snapshot records can be shown
// alive: the resumed run re-executes instead of resolving futures to
// values it does not have.
func TestRestoreFromCatalogLessSnapshotReruns(t *testing.T) {
	store, err := checkpoint.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	run := func(cfg Config) any {
		rt := New(cfg)
		defer rt.Shutdown()
		if err := rt.Register(TaskDef{Name: "seven", Fn: func(_ context.Context, _ []any) ([]any, error) {
			runs.Add(1)
			return []any{7}, nil
		}}); err != nil {
			t.Fatal(err)
		}
		f, err := rt.Submit("seven", Write(rt.NewData()))
		if err != nil {
			t.Fatal(err)
		}
		vals, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		rt.Barrier()
		return vals[0]
	}
	run(Config{Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)}})
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tasks) != 1 || !snap.Tasks[0].Restorable() || len(snap.Catalog) != 0 {
		t.Fatalf("snapshot has tasks %+v and %d catalog rows, want 1 completion and 0", snap.Tasks, len(snap.Catalog))
	}
	if v := run(Config{Restore: snap}); v != 7 {
		t.Fatalf("resumed run returned %v, want 7", v)
	}
	if runs.Load() != 2 {
		t.Fatalf("body ran %d times, want 2 (nothing restorable)", runs.Load())
	}
}
