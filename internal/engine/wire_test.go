package engine

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/resources"
	"repro/internal/sched"
)

type wireClock struct{ now time.Duration }

func (c *wireClock) Now() time.Duration { return c.now }

type wireExec struct{ queue []Placement }

func (x *wireExec) Launch(p Placement) { x.queue = append(x.queue, p) }

// wireSpec is one registration of the add-parity stream.
type wireSpec struct {
	id        int64
	producers []deps.TaskID
	holds     int
}

// wireSpecs draws n registrations with IDs 1..n whose producers are mostly
// earlier tasks (repeats included) and now and then the task itself, a
// later task or an ID nobody has; one registration in the second half
// re-uses an earlier ID and must be refused.
func wireSpecs(rng *rand.Rand, n int) (specs []wireSpec, dupAt int) {
	dupAt = n/2 + rng.Intn(n/4)
	for i := 1; i <= n; i++ {
		s := wireSpec{id: int64(i)}
		for k := rng.Intn(4); k > 0 && i > 1; k-- {
			switch r := rng.Intn(20); {
			case r == 0:
				s.producers = append(s.producers, deps.TaskID(i)) // self
			case r == 1:
				s.producers = append(s.producers, deps.TaskID(i+1+rng.Intn(5))) // not registered yet
			case r == 2:
				s.producers = append(s.producers, deps.TaskID(n+100)) // unknown
			default:
				s.producers = append(s.producers, deps.TaskID(1+rng.Intn(i-1)))
			}
		}
		if rng.Intn(10) == 0 {
			s.holds = 1
		}
		if len(specs) == dupAt {
			s.id = int64(1 + rng.Intn(i-1))
		}
		specs = append(specs, s)
	}
	return specs, dupAt
}

// wireRun registers specs through one Add per window of that many — in two halves with twenty
// completions in between (so the second half meets producers that are
// done, producers wired by an earlier call and producers that already have
// dependents), then lifts the holds and drains. It returns the launch
// order, the engine's books, and every task's dependents as wired before
// the drain.
func wireRun(t *testing.T, specs []wireSpec, dupAt, window int) (order []int64, st Stats, wired [][]int64) {
	t.Helper()
	pool := resources.NewPool()
	for _, name := range []string{"a", "b"} {
		_ = pool.Add(resources.NewNode(name, resources.Description{Cores: 2, MemoryMB: 8000, SpeedFactor: 1}))
	}
	clock, exec := &wireClock{}, &wireExec{}
	e := New(Config{Pool: pool, Policy: sched.FIFO{}, Clock: clock, Executor: exec})
	tasks := make([]*Task, len(specs))
	for i, s := range specs {
		tasks[i] = &Task{ID: s.id}
	}
	add := func(lo, hi int) {
		for ; lo < hi; lo += window {
			end := min(lo+window, hi)
			producers, holds := make([][]deps.TaskID, end-lo), make([]int, end-lo)
			for i := range producers {
				producers[i], holds[i] = specs[lo+i].producers, specs[lo+i].holds
			}
			_, err := e.Add(tasks[lo:end], producers, holds)
			if hasDup := lo <= dupAt && dupAt < end; hasDup != errors.Is(err, ErrDuplicateID) {
				t.Fatalf("window %d, specs [%d,%d): err = %v, duplicate inside: %v", window, lo, end, err, hasDup)
			}
		}
	}
	step := func() bool {
		e.Schedule()
		if len(exec.queue) == 0 {
			return false
		}
		p := exec.queue[0]
		exec.queue = exec.queue[1:]
		order = append(order, p.Task.ID)
		clock.now += time.Second
		if _, ok := e.Complete(p.Task.ID, p.Epoch, false); !ok {
			t.Fatalf("window %d: completion of %d refused", window, p.Task.ID)
		}
		return true
	}
	half := len(specs) / 3
	add(0, half)
	for i := 0; i < 20 && step(); i++ {
	}
	add(half, len(specs))

	refused := tasks[dupAt]
	for _, task := range tasks {
		if task == refused {
			continue
		}
		var ids []int64
		for _, d := range task.dependents {
			if d == refused {
				t.Fatalf("window %d: task %d's dependents hold the refused registration of ID %d", window, task.ID, refused.ID)
			}
			ids = append(ids, d.ID)
		}
		if task.fanOut != 0 {
			t.Fatalf("window %d: task %d left with fanOut %d after wiring", window, task.ID, task.fanOut)
		}
		wired = append(wired, ids)
	}
	for i, s := range specs {
		if s.holds > 0 && i != dupAt {
			e.ReleaseHold(s.id)
		}
	}
	for step() {
	}
	if want := len(specs) - 1; len(order) != want {
		t.Fatalf("window %d: %d of %d tasks ran", window, len(order), want)
	}
	return order, e.Stats(), wired
}

// TestAddBatchWiresLikeAdd: the same registrations through Add one by one
// and in windows of 7 and 1024 give the same
// dependents lists, the same start order and the same books — with a
// producer from an earlier call, a completed producer, a self-dependency,
// forward and unknown producers, repeated producers and a duplicate ID
// mid-batch (refused with ErrDuplicateID, the rest of its batch wired,
// and no list holding it) all in the stream.
func TestAddBatchWiresLikeAdd(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		specs, dupAt := wireSpecs(rand.New(rand.NewSource(seed)), 400)
		wantOrder, wantStats, wantWired := wireRun(t, specs, dupAt, 1)
		for _, window := range []int{7, 1024} {
			order, st, wired := wireRun(t, specs, dupAt, window)
			if !slices.Equal(order, wantOrder) {
				t.Fatalf("seed %d window %d: start order diverges from window 1's", seed, window)
			}
			if st != wantStats {
				t.Fatalf("seed %d window %d: stats %+v, window 1's %+v", seed, window, st, wantStats)
			}
			if !slices.EqualFunc(wired, wantWired, func(a, b []int64) bool { return slices.Equal(a, b) }) {
				t.Fatalf("seed %d window %d: dependents lists diverge from window 1's", seed, window)
			}
		}
	}
}

// TestEarlyHoldReleaseIsBanked: a release that overtakes its task's
// registration is spent by that registration — the task is not left held
// — and is spent once.
func TestEarlyHoldReleaseIsBanked(t *testing.T) {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("a", resources.Description{Cores: 2, MemoryMB: 8000, SpeedFactor: 1}))
	e := New(Config{Pool: pool, Policy: sched.FIFO{}, Clock: &wireClock{}, Executor: &wireExec{}})
	if e.ReleaseHold(1) {
		t.Fatal("releasing an unregistered task reported ready")
	}
	if ready, _ := AddOne(e, &Task{ID: 1}, nil, 1); !ready {
		t.Fatal("the banked release was lost: the task registered held")
	}
	if ready, _ := e.Add([]*Task{{ID: 2}}, [][]deps.TaskID{nil}, []int{1}); ready {
		t.Fatal("task 2 registered ready: task 1's banked release was spent twice")
	}
	if !e.ReleaseHold(2) {
		t.Fatal("task 2's own release did not ready it")
	}
}
