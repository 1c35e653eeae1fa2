package host

import (
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/resources"
	"repro/internal/sched"
)

// spawnExecutor completes every placement on its own goroutine, through
// the host, the way the live runtime's executor does.
type spawnExecutor struct {
	h    *Host
	done chan int64
}

func (x *spawnExecutor) Launch(p engine.Placement) {
	go func() {
		eng := x.h.Engine()
		comp, ok := eng.Complete(p.Task.ID, p.Epoch, false)
		if !ok {
			return
		}
		x.h.TaskCompleted(p.Task.ID, comp.First)
		eng.Schedule()
		x.done <- p.Task.ID
	}()
}

// TestHostHammer is Host.mu's concurrency contract under the race
// detector: eight submitters push tasks of three tenants through Admit
// while completions return slots through TaskCompleted on their own
// goroutines, and every third ID is recorded completed in a restore
// snapshot. Both submission orders run: a recorded ID goes
// Admit → Add → Resolve as the live runtime submits, the rest go
// Add (held) → Admit → ReleaseHold as the simulator releases. Whatever
// order the lock admitted them in, no resolved ID is charged or run,
// every charged slot comes back, and the tenant table ends empty.
func TestHostHammer(t *testing.T) {
	const submitters, perSubmitter = 8, 150
	const total = submitters * perSubmitter
	recorded := func(id int64) bool { return id%3 == 0 }
	snap := &checkpoint.Snapshot{}
	for id := int64(1); id <= total; id++ {
		if recorded(id) {
			snap.Tasks = append(snap.Tasks, engine.TaskSnap{ID: id, State: engine.Done, Epoch: 1, Completed: true})
		}
	}
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("n0", resources.Description{Cores: 4, MemoryMB: 8000, SpeedFactor: 1}))
	adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 2})
	x := &spawnExecutor{done: make(chan int64, total)}
	h := New(Config{
		Pool: pool, Policy: sched.FIFO{}, Admission: adm, Restore: snap,
	}, Backend{Clock: engine.WallClock{Epoch: time.Now()}, Timer: faults.NewWallTimer(), Executor: x})
	x.h = h
	eng := h.Engine()

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b", ""}[g%3]
			for i := 0; i < perSubmitter; i++ {
				id := int64(g*perSubmitter + i + 1)
				task := &engine.Task{ID: id, Class: "t"}
				if recorded(id) {
					out, holds := h.Admit(id, tenant)
					if out != autoscale.Admitted {
						t.Errorf("Admit(%d) = %v for a recorded completion", id, out)
					}
					eng.Add([]*engine.Task{task}, make([][]deps.TaskID, 1), []int{holds})
					if done, _ := h.Resolve(id); !done {
						t.Errorf("recorded completion %d did not resolve", id)
					}
					continue
				}
				eng.Add([]*engine.Task{task}, make([][]deps.TaskID, 1), []int{1})
				if out, _ := h.Admit(id, tenant); out == autoscale.Admitted && eng.ReleaseHold(id) {
					eng.Schedule()
				}
			}
		}(g)
	}
	wg.Wait()
	ran := 0
	for ; ran < total-len(snap.Tasks); ran++ {
		if id := <-x.done; recorded(id) {
			t.Fatalf("recorded completion %d ran", id)
		}
	}
	st := adm.Stats()
	if st.Admitted+st.Released != ran || st.InFlight != 0 {
		t.Fatalf("%d tasks ran; charged %d + %d, %d still in flight", ran, st.Admitted, st.Released, st.InFlight)
	}
	if n := h.RestoredTasks(); n != len(snap.Tasks) {
		t.Fatalf("restored %d of %d recorded completions", n, len(snap.Tasks))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tenants) != 0 {
		t.Fatalf("%d tenants left in the table after the drain", len(h.tenants))
	}
}
