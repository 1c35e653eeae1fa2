package engine_test

// Backend parity: the same DAG submitted through the live runtime
// (internal/core) and through the virtual-time simulator (internal/infra)
// must execute in the same order and account the same transfers, because
// both backends delegate scheduling to this package. The pools are sized
// to one core per node and the policy is the deterministic FIFO, so the
// engine's (priority, ID) head selection fully determines the order.

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
)

// dagTask describes one task of a parity DAG, backend-neutrally. Tasks are
// numbered in slice order: task i gets core ID i+2 / infra ID i+2 (ID 1 is
// the gate that holds the single core until every task is submitted).
type dagTask struct {
	// reads/writes index dag-local data by small integers.
	reads  []int
	writes []int
	// class pins the task to a node tier ("" = anywhere).
	class resources.Class
	// nodes asks for a multi-node group (0 = one node).
	nodes int
}

type parityCase struct {
	name string
	dag  []dagTask
	// nodes describes the pool: one core each, in insertion order.
	nodes []resources.Class
	// wantTransfers is the engine transfer count both backends must report.
	wantTransfers int
}

func parityCases() []parityCase {
	return []parityCase{
		{
			name: "diamond",
			dag: []dagTask{
				{writes: []int{1}},
				{reads: []int{1}, writes: []int{2}},
				{reads: []int{1}, writes: []int{3}},
				{reads: []int{2, 3}, writes: []int{4}},
			},
			nodes: []resources.Class{resources.HPC},
		},
		{
			name: "wide-fan-out",
			dag: func() []dagTask {
				dag := []dagTask{{writes: []int{1}}}
				for i := 0; i < 8; i++ {
					dag = append(dag, dagTask{reads: []int{1}, writes: []int{2 + i}})
				}
				return dag
			}(),
			nodes: []resources.Class{resources.HPC},
		},
		{
			name: "reduce",
			dag: func() []dagTask {
				var dag []dagTask
				var all []int
				for i := 0; i < 6; i++ {
					dag = append(dag, dagTask{writes: []int{1 + i}})
					all = append(all, 1+i)
				}
				return append(dag, dagTask{reads: all, writes: []int{7}})
			}(),
			nodes: []resources.Class{resources.HPC},
		},
		{
			// A chain bouncing between two pinned tiers: every hop moves
			// the intermediate value ⇒ 3 transfers on both backends.
			name: "pinned-chain",
			dag: []dagTask{
				{writes: []int{1}, class: resources.Cloud},
				{reads: []int{1}, writes: []int{2}, class: resources.HPC},
				{reads: []int{2}, writes: []int{3}, class: resources.Cloud},
				{reads: []int{3}, writes: []int{4}, class: resources.HPC},
			},
			nodes:         []resources.Class{resources.HPC, resources.Cloud},
			wantTransfers: 3,
		},
		{
			// A two-node group between single-node tasks: the group waits
			// for the gate's node, and its peer is released with it.
			name: "group",
			dag: []dagTask{
				{writes: []int{1}},
				{reads: []int{1}, writes: []int{2}, nodes: 2},
				{reads: []int{2}, writes: []int{3}},
			},
			nodes:         []resources.Class{resources.HPC, resources.HPC},
			wantTransfers: 1,
		},
	}
}

// runCore executes the DAG on the live runtime and returns the start order
// (dag indices) and the engine's transfer count.
func runCore(t *testing.T, c parityCase) ([]int, int) {
	t.Helper()
	pool := resources.NewPool()
	for i, class := range c.nodes {
		_ = pool.Add(resources.NewNode(nodeName(i), resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: class,
		}))
	}
	tr := trace.New(0)
	rt := core.New(core.Config{
		Pool:      pool,
		Policy:    sched.FIFO{},
		Tracer:    tr,
		Locations: transfer.NewRegistry(),
		Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
	})
	defer rt.Shutdown()

	release := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "gate", Fn: func(_ context.Context, _ []any) ([]any, error) {
		<-release
		return nil, nil
	}})
	mkBody := func(writes int) core.TaskFunc {
		return func(_ context.Context, _ []any) ([]any, error) {
			out := make([]any, writes)
			for i := range out {
				out[i] = 1
			}
			return out, nil
		}
	}
	for i, dt := range c.dag {
		mustRegister(t, rt, core.TaskDef{
			Name:        taskName(i),
			Fn:          mkBody(len(dt.writes)),
			Constraints: resources.Constraints{Class: dt.class, Nodes: dt.nodes},
		})
	}

	// The gate holds a core until every task is submitted, so the live
	// backend starts from the same fully-queued state the simulator sees;
	// cases with more nodes than the gate covers are serialised by their
	// data dependencies instead.
	if _, err := rt.Submit("gate"); err != nil {
		t.Fatal(err)
	}

	handles := map[int]*core.Handle{}
	h := func(d int) *core.Handle {
		if handles[d] == nil {
			handles[d] = rt.NewData()
		}
		return handles[d]
	}
	for i, dt := range c.dag {
		var params []core.Param
		for _, r := range dt.reads {
			params = append(params, core.Read(h(r)))
		}
		for _, w := range dt.writes {
			params = append(params, core.Write(h(w)))
		}
		if _, err := rt.Submit(taskName(i), params...); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	rt.Barrier()

	var order []int
	for _, ev := range tr.Events() {
		if ev.Kind != trace.TaskStarted || ev.Task == 1 {
			continue // skip the gate
		}
		order = append(order, int(ev.Task)-2)
	}
	return order, rt.EngineStats().Transfers
}

// runInfra executes the same DAG on the simulator.
func runInfra(t *testing.T, c parityCase) ([]int, int) {
	t.Helper()
	pool := resources.NewPool()
	for i, class := range c.nodes {
		_ = pool.Add(resources.NewNode(nodeName(i), resources.Description{
			Cores: 1, MemoryMB: 8000, SpeedFactor: 1, Class: class,
		}))
	}
	specs := []infra.TaskSpec{{ID: 1, Class: "gate", Duration: time.Second}}
	for i, dt := range c.dag {
		var acc []deps.Access
		for _, r := range dt.reads {
			acc = append(acc, deps.Access{Data: deps.DataID(r), Dir: deps.In})
		}
		out := map[deps.DataID]int64{}
		for _, w := range dt.writes {
			acc = append(acc, deps.Access{Data: deps.DataID(w), Dir: deps.Out})
			out[deps.DataID(w)] = 1e6
		}
		specs = append(specs, infra.TaskSpec{
			ID:          int64(i + 2),
			Class:       taskName(i),
			Duration:    time.Second,
			Accesses:    acc,
			OutputBytes: out,
			Constraints: resources.Constraints{Class: dt.class, Nodes: dt.nodes},
		})
	}
	tr := trace.New(0)
	sim, err := infra.New(infra.Config{
		Pool:   pool,
		Net:    simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy: sched.FIFO{},
		Tracer: tr,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	var order []int
	for _, ev := range tr.Events() {
		if ev.Kind != trace.TaskStarted || ev.Task == 1 {
			continue
		}
		order = append(order, int(ev.Task)-2)
	}
	return order, sim.EngineStats().Transfers
}

func TestBackendParity(t *testing.T) {
	engine.CheckTaskRecordSteps(t)
	for _, c := range parityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			coreOrder, coreTransfers := runCore(t, c)
			infraOrder, infraTransfers := runInfra(t, c)
			if len(coreOrder) != len(c.dag) {
				t.Fatalf("core started %d tasks, want %d", len(coreOrder), len(c.dag))
			}
			if len(infraOrder) != len(c.dag) {
				t.Fatalf("infra started %d tasks, want %d", len(infraOrder), len(c.dag))
			}
			for i := range coreOrder {
				if coreOrder[i] != infraOrder[i] {
					t.Fatalf("start order diverges at %d: core %v vs infra %v",
						i, coreOrder, infraOrder)
				}
			}
			if coreTransfers != infraTransfers {
				t.Fatalf("transfer counts diverge: core %d vs infra %d",
					coreTransfers, infraTransfers)
			}
			if c.wantTransfers > 0 && coreTransfers != c.wantTransfers {
				t.Fatalf("transfers = %d, want %d", coreTransfers, c.wantTransfers)
			}
		})
	}
}

func nodeName(i int) string { return "pn" + string(rune('0'+i)) }
func taskName(i int) string { return "t" + string(rune('a'+i)) }

func mustRegister(t *testing.T, rt *core.Runtime, def core.TaskDef) {
	t.Helper()
	if err := rt.Register(def); err != nil {
		t.Fatal(err)
	}
}
