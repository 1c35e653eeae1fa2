package engine_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/transfer"
)

// benchExec queues placements for the driver loop (see Executor contract:
// Launch must not schedule synchronously).
type benchExec struct{ queue []engine.Placement }

func (x *benchExec) Launch(p engine.Placement) { x.queue = append(x.queue, p) }

// benchConstraints mixes four signatures: three placeable tiers and one
// (GPU) that no node satisfies, so every wave carries a blocked bucket the
// sharded queue must skip cheaply.
func benchConstraints(i int) resources.Constraints {
	switch i % 4 {
	case 0:
		return resources.Constraints{}
	case 1:
		return resources.Constraints{Cores: 2}
	case 2:
		return resources.Constraints{MemoryMB: 1000}
	default:
		return resources.Constraints{GPUs: 1}
	}
}

// BenchmarkReadyQueue measures the sharded-bucket path: n ready tasks are
// pushed, then drained through placement waves on a 16-node pool, with
// instant completions driven from outside. The reported metric is tasks
// scheduled (placed + completed) per second of wall time.
func BenchmarkReadyQueue(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("ready=%d", n), func(b *testing.B) {
			placeable := n - n/4 // GPU signature never places
			for i := 0; i < b.N; i++ {
				pool := resources.NewPool()
				for j := 0; j < 16; j++ {
					_ = pool.Add(resources.NewNode(fmt.Sprintf("n%02d", j), resources.Description{
						Cores: 8, MemoryMB: 16000, SpeedFactor: 1,
					}))
				}
				exec := &benchExec{}
				e := engine.New(engine.Config{
					Pool:     pool,
					Policy:   sched.MinLoad{},
					Clock:    &stubClock{},
					Executor: exec,
				})
				for id := 1; id <= n; id++ {
					engine.AddOne(e, &engine.Task{
						ID:          int64(id),
						Class:       "bench",
						EstDuration: time.Second,
						Constraints: benchConstraints(id),
					}, nil, 0)
				}
				e.Schedule()
				done := 0
				for len(exec.queue) > 0 {
					p := exec.queue[0]
					exec.queue = exec.queue[1:]
					if _, ok := e.Complete(p.Task.ID, p.Epoch, false); ok {
						done++
					}
					e.Schedule()
				}
				if done != placeable {
					b.Fatalf("drained %d, want %d", done, placeable)
				}
			}
			b.ReportMetric(float64(placeable*b.N)/b.Elapsed().Seconds(), "sched-tasks/s")
		})
	}
}

// completedGraph builds an engine with n independent completed tasks —
// one output replica each in the registry — and the dirty sets freshly
// reset (checkpoint.CaptureBase), i.e. the mostly-clean steady state an
// interval checkpointer sees on a long campaign.
func completedGraph(tb testing.TB, n int) (*engine.Engine, *transfer.Registry, *benchExec) {
	tb.Helper()
	pool := resources.NewPool()
	for j := 0; j < 16; j++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("n%02d", j), resources.Description{
			Cores: 8, MemoryMB: 16000, SpeedFactor: 1,
		}))
	}
	reg := transfer.NewRegistry()
	exec := &benchExec{}
	e := engine.New(engine.Config{
		Pool:     pool,
		Policy:   sched.MinLoad{},
		Clock:    &stubClock{},
		Executor: exec,
		Registry: reg,
	})
	const batch = 4096
	ts := make([]*engine.Task, 0, batch)
	prods := make([][]deps.TaskID, 0, batch)
	for id := 1; id <= n; id++ {
		ts = append(ts, &engine.Task{
			ID: int64(id), Class: "bench", EstDuration: time.Second,
			OutputKeys: []deps.Version{{Data: deps.DataID(id), Ver: 1}},
		})
		prods = append(prods, nil)
		if len(ts) == batch {
			e.Add(ts, prods, nil)
			ts, prods = ts[:0], prods[:0]
		}
	}
	if len(ts) > 0 {
		e.Add(ts, prods, nil)
	}
	e.Schedule()
	done := 0
	for len(exec.queue) > 0 {
		p := exec.queue[0]
		exec.queue = exec.queue[1:]
		if _, ok := e.Complete(p.Task.ID, p.Epoch, false); ok {
			done++
		}
		e.Schedule()
	}
	if done != n {
		tb.Fatalf("drained %d, want %d", done, n)
	}
	checkpoint.CaptureBase(e, reg) // open the logs
	return e, reg, exec
}

// churn re-runs k completed tasks (lineage resubmission → placement →
// completion), leaving exactly that many tasks' records in the log — the
// "small interval on a big graph" a delta capture exists for.
func churn(tb testing.TB, e *engine.Engine, exec *benchExec, k int) {
	tb.Helper()
	for id := 1; id <= k; id++ {
		e.Resubmit(int64(id))
	}
	e.Schedule()
	redone := 0
	for len(exec.queue) > 0 {
		p := exec.queue[0]
		exec.queue = exec.queue[1:]
		if _, ok := e.Complete(p.Task.ID, p.Epoch, false); ok {
			redone++
		}
		e.Schedule()
	}
	if redone != k {
		tb.Fatalf("re-ran %d, want %d", redone, k)
	}
}

const (
	ckptBenchGraph = 50_000 // tasks in the completed graph
	ckptBenchDirty = 64     // tasks re-run between captures
)

// BenchmarkCheckpointSnapshot measures a full capture of the 50k-task
// graph: the per-interval cost checkpointing paid before deltas — O(n)
// regardless of how little changed.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	e, reg, _ := completedGraph(b, ckptBenchGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := checkpoint.Capture(e, reg)
		if len(snap.Tasks) != ckptBenchGraph {
			b.Fatalf("captured %d tasks", len(snap.Tasks))
		}
	}
}

// logged counts the tasks a delta holds records of.
func logged(d *checkpoint.Delta) int {
	ids := map[int64]bool{}
	for _, t := range d.Tasks {
		ids[t.ID] = true
	}
	return len(ids)
}

// BenchmarkDeltaSnapshot measures the delta capture of the same graph
// with 64 tasks re-run since the last capture — O(changes), the cost an
// interval pays in delta mode. Compare ns/op against
// BenchmarkCheckpointSnapshot: the gap is the whole point.
func BenchmarkDeltaSnapshot(b *testing.B) {
	e, reg, exec := completedGraph(b, ckptBenchGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(b, e, exec, ckptBenchDirty)
		b.StartTimer()
		d := checkpoint.CaptureDelta(e, reg)
		if n := logged(d); n != ckptBenchDirty {
			b.Fatalf("delta carries records of %d tasks, want %d", n, ckptBenchDirty)
		}
	}
}

// TestDeltaCaptureSubLinear pins the asymptotic claim the benchmarks
// above only report: on a mostly-clean graph (64 changes over 50k
// tasks), a delta capture must be at least 5× cheaper than a full one —
// the real gap is orders of magnitude, so 5× only trips if the delta
// path degenerates back into a graph walk.
func TestDeltaCaptureSubLinear(t *testing.T) {
	e, reg, exec := completedGraph(t, ckptBenchGraph)
	trials := 5
	full := make([]time.Duration, 0, trials)
	delta := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		churn(t, e, exec, ckptBenchDirty)
		t0 := time.Now()
		snap := checkpoint.Capture(e, reg)
		full = append(full, time.Since(t0))
		t1 := time.Now()
		d := checkpoint.CaptureDelta(e, reg)
		delta = append(delta, time.Since(t1))
		if len(snap.Tasks) != ckptBenchGraph || logged(d) != ckptBenchDirty {
			t.Fatalf("trial %d: %d tasks, delta records of %d", i, len(snap.Tasks), logged(d))
		}
	}
	med := func(ds []time.Duration) time.Duration {
		s := append([]time.Duration(nil), ds...)
		for i := range s { // tiny n: insertion sort
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}
	mf, md := med(full), med(delta)
	if mf < 5*md {
		t.Fatalf("delta capture not sub-linear: full %v vs delta %v (want ≥5× gap)", mf, md)
	}
	t.Logf("full %v vs delta %v (%.0f× cheaper)", mf, md, float64(mf)/float64(md))
}

// TestTaskRecordBudget bounds the engine's task record, which every
// registered task pays for: a field that only a rare path sets belongs in
// the cold record the task reaches through one pointer, not in Task.
func TestTaskRecordBudget(t *testing.T) {
	const budget = 288 // the record before the cold split was 360
	size := reflect.TypeOf(engine.Task{}).Size()
	t.Logf("engine.Task record: %d bytes (budget %d)", size, budget)
	if size > budget {
		t.Fatalf("engine.Task is %d bytes, budget %d", size, budget)
	}
}
