package engine_test

// Commutative parity: the live runtime used to serialise COMMUTATIVE
// accesses as INOUT (a fixed member order picked at submission time);
// the value-binding path now merges unordered updates in place, so both
// backends must expose the same dependency structure — members free of
// member-member edges, later accesses gated on the whole group — while
// the live side still computes the correct merged value whatever order
// the scheduler picks.

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

// TestCommutativeParity runs the CommutativeReduce workload on both
// backends and compares dependency statistics: the simulator's member
// edges (one RAW per member off the seed, group edges into the reader)
// must now appear identically on the live runtime — the reordering
// freedom is kept, not collapsed into an INOUT chain.
func TestCommutativeParity(t *testing.T) {
	const members = 5
	specs := workloads.CommutativeReduce(members, 2*time.Second)

	config := func() host.Config {
		return host.Config{
			Pool:      commPool(1),
			Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy:    sched.FIFO{},
			Locations: transfer.NewRegistry(),
		}
	}

	// Simulator.
	sim, err := infra.New(config(), specs)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Live runtime: same accesses through the Param API.
	rt := core.New(config())
	defer rt.Shutdown()
	mustRegister(t, rt, core.TaskDef{Name: "seed", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return []any{0}, nil
	}})
	mustRegister(t, rt, core.TaskDef{Name: "update", Fn: func(_ context.Context, args []any) ([]any, error) {
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}})
	mustRegister(t, rt, core.TaskDef{Name: "read", Fn: func(_ context.Context, args []any) ([]any, error) {
		v, _ := args[0].(int)
		return []any{v}, nil
	}})
	acc, out := rt.NewData(), rt.NewData()
	if _, err := rt.Submit("seed", core.WriteSized(acc, 1e6)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		if _, err := rt.Submit("update", core.Reduce(acc)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Submit("read", core.Read(acc), core.WriteSized(out, 1e3)); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()

	liveEdges := rt.Stats().DepsEdges
	if liveEdges != simRes.DepEdges {
		t.Fatalf("dependency stats diverge: live %+v vs sim %+v (live must not serialise commutative members)",
			liveEdges, simRes.DepEdges)
	}
	// Members must not chain: exactly one RAW per member (off the seed)
	// plus the reader's RAW; an INOUT chain would add member-member RAWs.
	if want := members + 1; liveEdges.RAW != want {
		t.Fatalf("RAW edges = %d, want %d (members chained?)", liveEdges.RAW, want)
	}
	if liveEdges.Group != members {
		t.Fatalf("group edges = %d, want %d (reader must wait on every member)", liveEdges.Group, members)
	}

	// And the merged value must be the full reduction.
	v, err := rt.WaitOn(acc)
	if err != nil {
		t.Fatal(err)
	}
	if v != members {
		t.Fatalf("merged value = %v, want %d", v, members)
	}
}

// TestCommutativeMergeUnderConcurrency drives many commutative members
// over a multi-core pool, so members genuinely race: every update must
// land (no lost updates), which is exactly what the per-version merge
// lock guarantees.
func TestCommutativeMergeUnderConcurrency(t *testing.T) {
	rt := core.New(core.Config{Pool: commPool(4), Policy: sched.MinLoad{}})
	defer rt.Shutdown()
	mustRegister(t, rt, core.TaskDef{Name: "seed", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return []any{0}, nil
	}})
	mustRegister(t, rt, core.TaskDef{Name: "add", Fn: func(_ context.Context, args []any) ([]any, error) {
		v, _ := args[0].(int)
		w, _ := args[1].(int)
		return []any{v + w}, nil
	}})

	const members = 64
	acc := rt.NewData()
	if _, err := rt.Submit("seed", core.Write(acc)); err != nil {
		t.Fatal(err)
	}
	want := 0
	reqs := make([]core.TaskReq, 0, members)
	for i := 1; i <= members; i++ {
		want += i
		reqs = append(reqs, core.TaskReq{
			Name:   "add",
			Params: []core.Param{core.Reduce(acc), core.In(i)},
		})
	}
	if _, err := rt.SubmitAll(reqs); err != nil {
		t.Fatal(err)
	}
	v, err := rt.WaitOn(acc)
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("merged value = %v, want %d (lost commutative updates)", v, want)
	}
}

func commPool(cores int) *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("pn0", resources.Description{
		Cores: cores, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
	}))
	return pool
}
