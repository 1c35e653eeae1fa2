package engine_test

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// stubClock is a manual clock for engine-only tests.
type stubClock struct{ now time.Duration }

func (c *stubClock) Now() time.Duration { return c.now }

// collectExec queues placements; tests drive completions explicitly.
type collectExec struct{ queue []engine.Placement }

func (x *collectExec) Launch(p engine.Placement) { x.queue = append(x.queue, p) }

func (x *collectExec) pop() (engine.Placement, bool) {
	if len(x.queue) == 0 {
		return engine.Placement{}, false
	}
	p := x.queue[0]
	x.queue = x.queue[1:]
	return p, true
}

func pool(nodes, cores int) *resources.Pool {
	p := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = p.Add(resources.NewNode(string(rune('a'+i)), resources.Description{
			Cores: cores, MemoryMB: 8000, SpeedFactor: 1,
		}))
	}
	return p
}

func newEngine(t *testing.T, p *resources.Pool, reg *transfer.Registry) (*engine.Engine, *collectExec) {
	t.Helper()
	exec := &collectExec{}
	cfg := engine.Config{
		Pool:     p,
		Policy:   sched.FIFO{},
		Clock:    &stubClock{},
		Executor: exec,
		Registry: reg,
	}
	if reg != nil {
		cfg.Net = simnet.New(simnet.Link{BandwidthMBps: 1000})
	}
	return engine.New(cfg), exec
}

func TestDependentsReleasedInOrder(t *testing.T) {
	e, exec := newEngine(t, pool(1, 1), nil)
	// 1 -> 2 -> 3 (producers passed explicitly, as the access processor
	// would derive them).
	engine.AddOne(e, &engine.Task{ID: 1}, nil, 0)
	engine.AddOne(e, &engine.Task{ID: 2}, []deps.TaskID{1}, 0)
	engine.AddOne(e, &engine.Task{ID: 3}, []deps.TaskID{2}, 0)
	e.Schedule()

	var order []int64
	for {
		p, ok := exec.pop()
		if !ok {
			break
		}
		order = append(order, p.Task.ID)
		if _, ok := e.Complete(p.Task.ID, p.Epoch, false); !ok {
			t.Fatalf("completion of %d rejected", p.Task.ID)
		}
		e.Schedule()
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
}

// The log opens at the first base capture: before it, lifecycle
// transitions log nothing (a base will hold them); after it, registration
// and every transition log the task's record as it leaves it, and a warm
// append and swap allocate nothing.
func TestLogStartsAtFirstBase(t *testing.T) {
	e, exec := newEngine(t, pool(1, 1), nil)
	engine.AddOne(e, &engine.Task{ID: 1}, nil, 0)
	e.Schedule()
	p, _ := exec.pop()
	e.Complete(p.Task.ID, p.Epoch, false)
	if log := e.SwapLog(nil); log != nil {
		t.Fatalf("SwapLog before any base = %+v, want nil", log)
	}
	e.StartLog()
	engine.AddOne(e, &engine.Task{ID: 2}, nil, 0)
	e.Schedule()
	want := []engine.TaskSnap{{ID: 2, State: engine.Pending}, {ID: 2, State: engine.Ready}, {ID: 2, State: engine.Running, Epoch: 1}}
	log := e.SwapLog(nil)
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("SwapLog after a base = %+v, want %+v", log, want)
	}
	spare := e.SwapLog(log)
	if allocs := testing.AllocsPerRun(100, func() {
		e.LogTask(2)
		e.LogTask(2)
		spare = e.SwapLog(spare)
	}); allocs != 0 {
		t.Fatalf("warm log appends and a swap allocated %.0f objects, want 0", allocs)
	}
}

func TestLowestIDReadyRunsFirst(t *testing.T) {
	e, exec := newEngine(t, pool(1, 1), nil)
	for id := int64(5); id >= 1; id-- {
		engine.AddOne(e, &engine.Task{ID: id}, nil, 0)
	}
	e.Schedule()
	var order []int64
	for {
		p, ok := exec.pop()
		if !ok {
			break
		}
		order = append(order, p.Task.ID)
		e.Complete(p.Task.ID, p.Epoch, false)
		e.Schedule()
	}
	for i, id := range order {
		if id != int64(i+1) {
			t.Fatalf("order = %v, want ascending IDs", order)
		}
	}
}

func TestHoldsDelayReadiness(t *testing.T) {
	e, exec := newEngine(t, pool(1, 4), nil)
	if ready, _ := engine.AddOne(e, &engine.Task{ID: 1}, nil, 1); ready {
		t.Fatal("held task reported ready")
	}
	e.Schedule()
	if len(exec.queue) != 0 {
		t.Fatal("held task was placed")
	}
	if !e.ReleaseHold(1) {
		t.Fatal("ReleaseHold did not ready the task")
	}
	e.Schedule()
	if len(exec.queue) != 1 {
		t.Fatal("released task was not placed")
	}
}

func TestStaleCompletionIgnoredAfterKill(t *testing.T) {
	p := pool(2, 1)
	e, exec := newEngine(t, p, nil)
	engine.AddOne(e, &engine.Task{ID: 1}, nil, 0)
	e.Schedule()
	pl, ok := exec.pop()
	if !ok {
		t.Fatal("task not placed")
	}
	node := pl.Primary().Name()
	_ = p.Remove(node)
	killed := e.KillRunningOn(node)
	if len(killed) != 1 || killed[0].ID != 1 {
		t.Fatalf("killed = %v", killed)
	}
	if _, ok := e.Complete(1, pl.Epoch, false); ok {
		t.Fatal("stale completion accepted after kill")
	}
	// Resubmit places it on the surviving node.
	e.Resubmit(1)
	e.Schedule()
	pl2, ok := exec.pop()
	if !ok {
		t.Fatal("resubmitted task not placed")
	}
	if pl2.Primary().Name() == node {
		t.Fatalf("placed on removed node %s", node)
	}
	if _, ok := e.Complete(1, pl2.Epoch, false); !ok {
		t.Fatal("live completion rejected")
	}
}

func TestResubmitRecomputesLostLineage(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	p := pool(2, 2)
	reg := transfer.NewRegistry()
	e, exec := newEngine(t, p, reg)
	k := deps.Version{Data: 1, Ver: 1}
	engine.AddOne(e, &engine.Task{ID: 1, OutputKeys: []deps.Version{k}}, nil, 0)
	engine.AddOne(e, &engine.Task{ID: 2, InputKeys: []deps.Version{k}}, []deps.TaskID{1}, 0)
	e.Schedule()

	// Run the producer to completion.
	pl, _ := exec.pop()
	if pl.Task.ID != 1 {
		t.Fatalf("first placement = %d, want 1", pl.Task.ID)
	}
	e.Complete(1, pl.Epoch, false)
	if len(reg.Where(k)) == 0 {
		t.Fatal("output replica not registered")
	}

	// Lose every replica of the producer's output, then resubmit the
	// consumer: the engine must re-run the producer first.
	reg.DropNode(pl.Primary().Name())
	e.Schedule()
	plc, _ := exec.pop() // consumer placement (already released)
	if plc.Task.ID != 2 {
		t.Fatalf("second placement = %d, want 2", plc.Task.ID)
	}
	// Kill the consumer's run so it can be resubmitted.
	_ = p.Remove(plc.Primary().Name())
	e.KillRunningOn(plc.Primary().Name())
	e.Resubmit(2)
	e.Schedule()

	pl2, ok := exec.pop()
	if !ok {
		t.Fatal("nothing placed after resubmit")
	}
	if pl2.Task.ID != 1 {
		t.Fatalf("resubmission order starts at %d, want producer 1", pl2.Task.ID)
	}
	c, _ := e.Complete(1, pl2.Epoch, false)
	if c.First {
		t.Fatal("producer re-run misreported as first completion")
	}
	e.Schedule()
	pl3, ok := exec.pop()
	if !ok || pl3.Task.ID != 2 {
		t.Fatalf("consumer not re-placed after producer recompute: %+v", pl3)
	}
}

func TestSignatureShardingBlocksOnlyOneBucket(t *testing.T) {
	// One node: 4 cores, no GPU. GPU tasks can never run here; the small
	// tasks behind them in a flat queue must still be placed.
	p := resources.NewPool()
	_ = p.Add(resources.NewNode("cpu", resources.Description{Cores: 4, MemoryMB: 8000, GPUs: 0, SpeedFactor: 1}))
	_ = p.Add(resources.NewNode("gpu", resources.Description{Cores: 4, MemoryMB: 8000, GPUs: 1, SpeedFactor: 1}))
	e, exec := newEngine(t, p, nil)
	gpu := resources.Constraints{GPUs: 1}
	// Two GPU tasks (only one fits at a time) ahead of four plain tasks.
	engine.AddOne(e, &engine.Task{ID: 1, Constraints: gpu}, nil, 0)
	engine.AddOne(e, &engine.Task{ID: 2, Constraints: gpu}, nil, 0)
	for id := int64(3); id <= 6; id++ {
		engine.AddOne(e, &engine.Task{ID: id}, nil, 0)
	}
	e.Schedule()
	// One GPU task runs; its sibling blocks that bucket only. All four
	// plain tasks and the first GPU task are placed: 5 launches.
	if len(exec.queue) != 5 {
		ids := make([]int64, 0, len(exec.queue))
		for _, pl := range exec.queue {
			ids = append(ids, pl.Task.ID)
		}
		t.Fatalf("placed %v, want 5 placements (one GPU bucket blocked)", ids)
	}
}

// TestSurplusHoldReleaseCannotEatProducerEdge: a task waiting on one
// producer and one hold is released twice (the admission promote and the
// release timer can both fire for it). The second release must be refused
// — it used to consume the producer edge and queue the task with an unmet
// input — and the task stays Pending until the producer completes.
func TestSurplusHoldReleaseCannotEatProducerEdge(t *testing.T) {
	e, exec := newEngine(t, pool(1, 2), nil)
	engine.AddOne(e, &engine.Task{ID: 1}, nil, 0)
	engine.AddOne(e, &engine.Task{ID: 2}, []deps.TaskID{1}, 1)
	if e.ReleaseHold(2) {
		t.Fatal("releasing the hold readied a task whose producer has not run")
	}
	if e.ReleaseHold(2) {
		t.Fatal("a surplus release readied the task: it ate the producer edge")
	}
	if e.ReleaseHold(99) {
		t.Fatal("releasing an unknown task reported ready")
	}
	e.Schedule()
	if len(exec.queue) != 1 || exec.queue[0].Task.ID != 1 {
		t.Fatalf("placed %d tasks before the producer completed, want only task 1", len(exec.queue))
	}
	if e.ReadyCount() != 0 {
		t.Fatal("task 2 is queued with its input unmet")
	}
	pl, _ := exec.pop()
	e.Complete(1, pl.Epoch, false)
	e.Schedule()
	if len(exec.queue) != 1 || exec.queue[0].Task.ID != 2 {
		t.Fatal("task 2 did not become ready when its producer completed")
	}
}

// TestDuplicateIDRefused: the engine refuses a second task with a
// registered ID — alone or inside a batch, dense or out-of-sequence ID —
// and the first registration keeps working.
func TestDuplicateIDRefused(t *testing.T) {
	e, exec := newEngine(t, pool(1, 4), nil)
	engine.AddOne(e, &engine.Task{ID: 1, Class: "first"}, nil, 0)
	engine.AddOne(e, &engine.Task{ID: 40}, nil, 0) // out of sequence: found through the sparse path
	for _, id := range []int64{1, 40} {
		if ready, err := engine.AddOne(e, &engine.Task{ID: id}, nil, 0); ready || !errors.Is(err, engine.ErrDuplicateID) {
			t.Fatalf("second Add of ID %d: ready=%v err=%v, want ErrDuplicateID", id, ready, err)
		}
	}
	ready, err := e.Add([]*engine.Task{{ID: 2}, {ID: 1}, {ID: 3}}, make([][]deps.TaskID, 3), nil)
	if !ready || !errors.Is(err, engine.ErrDuplicateID) {
		t.Fatalf("batch with a duplicate: ready=%v err=%v, want the rest registered and ErrDuplicateID", ready, err)
	}
	var ids []int64
	for _, tm := range e.Timings() {
		ids = append(ids, tm.ID)
		if tm.ID == 1 && tm.Class != "first" {
			ids = append(ids, -1) // the duplicate replaced the registered task
		}
	}
	if !slices.Equal(ids, []int64{1, 40, 2, 3}) {
		t.Fatalf("registered %v, want [1 40 2 3] with the first task 1 kept", ids)
	}
	e.Schedule()
	if len(exec.queue) != 4 {
		t.Fatalf("placed %d tasks, want 4", len(exec.queue))
	}
}

func TestMultiNodeGroupReservation(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	p := pool(2, 4)
	e, exec := newEngine(t, p, nil)
	engine.AddOne(e, &engine.Task{ID: 1, Constraints: resources.Constraints{Cores: 4, Nodes: 2}}, nil, 0)
	engine.AddOne(e, &engine.Task{ID: 2}, nil, 0)
	e.Schedule()
	if len(exec.queue) != 1 {
		t.Fatalf("placements = %d, want 1 (MPI task holds both nodes)", len(exec.queue))
	}
	pl := exec.queue[0]
	if pl.Task.ID != 1 || pl.Node == nil || len(pl.Peers) != 1 {
		t.Fatalf("placement = task %d with %d peers", pl.Task.ID, len(pl.Peers))
	}
	exec.queue = nil
	e.Complete(1, pl.Epoch, false)
	e.Schedule()
	if len(exec.queue) != 1 || exec.queue[0].Task.ID != 2 {
		t.Fatal("serial task not placed after MPI group released")
	}
}

func TestTransferAccounting(t *testing.T) {
	p := pool(2, 1)
	reg := transfer.NewRegistry()
	e, exec := newEngine(t, p, reg)
	k := deps.Version{Data: 9, Ver: 0}
	reg.SetSize(k, 1e6)
	reg.AddReplica(k, "b")
	// FIFO places on node "a"; the input lives on "b" ⇒ one move.
	engine.AddOne(e, &engine.Task{ID: 1, InputKeys: []deps.Version{k}}, nil, 0)
	e.Schedule()
	pl, ok := exec.pop()
	if !ok {
		t.Fatal("not placed")
	}
	if pl.TransferTime <= 0 {
		t.Fatal("staging time not modelled")
	}
	st := e.Stats()
	if st.Transfers != 1 || st.BytesMoved != 1e6 {
		t.Fatalf("stats = %+v, want 1 transfer of 1e6 bytes", st)
	}
	if !slices.Contains(reg.Where(k), "a") {
		t.Fatal("staged replica not registered")
	}
}

// TestFailNodeHammer crashes every node of a busy pool from several
// goroutines at once, round after round: each crash of a node must
// succeed exactly once — one nil error, one node_failed event — and every
// other crash of it must report ErrUnknownNode and change nothing.
func TestFailNodeHammer(t *testing.T) {
	const nodes, crashers, rounds = 8, 4, 50
	for round := 0; round < rounds; round++ {
		tr := trace.New(0)
		e := engine.New(engine.Config{
			Pool: pool(nodes, 1), Policy: sched.FIFO{}, Clock: &stubClock{},
			Executor: &collectExec{}, Tracer: tr,
		})
		for id := int64(1); id <= nodes; id++ {
			engine.AddOne(e, &engine.Task{ID: id}, nil, 0)
		}
		e.Schedule() // one running task per node, for the crashes to kill
		var mu sync.Mutex
		wins := map[string]int{}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < crashers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < nodes; i++ {
					name := string(rune('a' + i))
					_, err := e.FailNode(name, nil)
					if err != nil && !errors.Is(err, engine.ErrUnknownNode) {
						t.Errorf("FailNode(%s): %v", name, err)
					}
					if err == nil {
						mu.Lock()
						wins[name]++
						mu.Unlock()
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		events := map[string]int{}
		for _, ev := range tr.Events() {
			if ev.Kind == trace.NodeFailed {
				events[ev.Node]++
			}
		}
		for i := 0; i < nodes; i++ {
			name := string(rune('a' + i))
			if wins[name] != 1 || events[name] != 1 {
				t.Fatalf("round %d, node %s: %d crashes succeeded and %d node_failed events, want 1 and 1", round, name, wins[name], events[name])
			}
		}
	}
}
