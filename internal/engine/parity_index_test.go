package engine_test

// Placement-index parity: the indexed fast path (sched.IndexedPolicy
// picking straight off the pool's capability index) must make byte-
// identical placement decisions to the materialized-slice scan path
// wherever the policy is deterministic — same start order, same node per
// start, same transfer books — including under node crashes, cordons,
// partitions and checkpoint restore, the churn the index maintains
// itself through. The scan run is the oracle: the same policy wrapped in
// scanOnly, which hides PickIndexed so the engine falls back to
// Pick(fitting) — the path hinted and multi-node placements always take.

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// indexParityPool builds a heterogeneous multi-core pool: enough shape
// spread that the mix workload's constraints carve distinct signature
// sets, enough cores that load fractions differentiate MinLoad picks.
func indexParityPool() (*resources.Pool, *simnet.Network) {
	pool := resources.NewPool()
	shapes := []resources.Description{
		{Cores: 8, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC},
		{Cores: 4, MemoryMB: 16_000, SpeedFactor: 0.8, Class: resources.Cloud},
		{Cores: 2, MemoryMB: 8_000, SpeedFactor: 0.5, Class: resources.Fog},
	}
	names := []string{"ix-h0", "ix-h1", "ix-c0", "ix-c1", "ix-f0", "ix-f1"}
	for i, name := range names {
		_ = pool.Add(resources.NewNode(name, shapes[i/2]))
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return pool, net
}

type indexParityRun struct {
	events    []trace.Event
	makespan  time.Duration
	transfers int
	pool      *resources.Pool
}

// scanOnly forwards Name and Pick and nothing else: embedding the
// interface, not the concrete policy, keeps PickIndexed out of the
// method set, so the engine cannot select its indexed fast path.
type scanOnly struct{ sched.Policy }

func runIndexParity(t *testing.T, policy sched.Policy, specs []infra.TaskSpec, script faults.Scenario) indexParityRun {
	t.Helper()
	pool, net := indexParityPool()
	tr := trace.New(0)
	sim, err := infra.New(infra.Config{
		Pool: pool, Net: net, Policy: policy, Tracer: tr,
		Faults: script,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return indexParityRun{events: tr.Events(), makespan: res.Makespan, transfers: sim.EngineStats().Transfers, pool: pool}
}

func diffIndexRuns(t *testing.T, label string, indexed, scanned indexParityRun) {
	t.Helper()
	if len(indexed.events) != len(scanned.events) {
		t.Fatalf("%s: indexed run recorded %d events, scan run %d", label, len(indexed.events), len(scanned.events))
	}
	for i := range indexed.events {
		a, b := indexed.events[i], scanned.events[i]
		if a.Kind != b.Kind || a.Task != b.Task || a.Node != b.Node || a.At != b.At {
			t.Fatalf("%s: event %d diverges: indexed {%v task=%d node=%s at=%v} vs scan {%v task=%d node=%s at=%v}",
				label, i, a.Kind, a.Task, a.Node, a.At, b.Kind, b.Task, b.Node, b.At)
		}
	}
	if indexed.makespan != scanned.makespan {
		t.Fatalf("%s: makespan diverges: indexed %v vs scan %v", label, indexed.makespan, scanned.makespan)
	}
	if indexed.transfers != scanned.transfers {
		t.Fatalf("%s: transfers diverge: indexed %d vs scan %d", label, indexed.transfers, scanned.transfers)
	}
}

// checkPoolIndexConsistent asserts, for every signature the run touched,
// that the pool's index answers Fitting exactly like a from-scratch node
// scan — the post-churn invariant (crashes removed nodes, drains
// cordoned them, the run reserved and released throughout).
func checkPoolIndexConsistent(t *testing.T, pool *resources.Pool, specs []infra.TaskSpec) {
	t.Helper()
	seen := map[string]resources.Constraints{}
	for _, s := range specs {
		seen[s.Constraints.Signature()] = s.Constraints
	}
	for sig, c := range seen {
		got := pool.Fitting(c)
		var want []*resources.Node
		for _, n := range pool.Nodes() {
			if n.CanReserve(c) {
				want = append(want, n)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("sig %q: index Fitting has %d nodes, scan %d", sig, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sig %q: Fitting[%d] = %s, scan says %s", sig, i, got[i].Name(), want[i].Name())
			}
		}
	}
}

func TestIndexParitySweep(t *testing.T) {
	crashScript := faults.Scenario{
		{At: 20 * time.Second, Kind: faults.Drain, Node: "ix-c1"},
		{At: 40 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "fog"},
		{At: 60 * time.Second, Kind: faults.Crash, Node: "ix-f1"},
		{At: 90 * time.Second, Kind: faults.HealLink, Node: "hpc", Peer: "fog"},
	}
	cases := []struct {
		name   string
		specs  []infra.TaskSpec
		script faults.Scenario
	}{
		{"mix", workloads.HeterogeneousMix(120, 3), nil},
		{"mapreduce", workloads.MapReduce(24, 4, 10*time.Second, 5*time.Second, 1e6), nil},
		{"stencil", workloads.IterativeStencil(4, 12, 5*time.Second), nil},
		{"mix-churn", workloads.HeterogeneousMix(120, 5), crashScript},
	}
	for _, policy := range []sched.Policy{sched.MinLoad{}, sched.FIFO{}} {
		for _, tc := range cases {
			tc := tc
			t.Run(policy.Name()+"/"+tc.name, func(t *testing.T) {
				if _, ok := sched.Policy(scanOnly{policy}).(sched.IndexedPolicy); ok {
					t.Fatal("scanOnly still exposes PickIndexed; the oracle would run the indexed path")
				}
				indexed := runIndexParity(t, policy, tc.specs, tc.script)
				scanned := runIndexParity(t, scanOnly{policy}, tc.specs, tc.script)
				diffIndexRuns(t, policy.Name()+"/"+tc.name, indexed, scanned)
				checkPoolIndexConsistent(t, indexed.pool, tc.specs)
			})
		}
	}
}

// TestIndexSurvivesRestore halts a checkpointed run mid-flight and
// resumes it with the index enabled: the resumed run must complete, and
// the pool's index must still match a from-scratch scan afterwards —
// restore replays completions and re-seeds replicas without breaking the
// incremental maintenance.
func TestIndexSurvivesRestore(t *testing.T) {
	specs := workloads.MapReduce(24, 4, 10*time.Second, 5*time.Second, 1e6)
	dir, err := os.MkdirTemp("", "index-restore-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	pool1, net1 := indexParityPool()
	sim1, err := infra.New(infra.Config{
		Pool: pool1, Net: net1, Policy: sched.MinLoad{},
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)},
		HaltAt:     25 * time.Second,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim1.Run(); !errors.Is(err, infra.ErrHalted) {
		t.Fatalf("first incarnation: got %v, want ErrHalted", err)
	}

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Completed) == 0 {
		t.Fatal("halt landed before any completion; drill misconfigured")
	}
	pool2, net2 := indexParityPool()
	sim2, err := infra.New(infra.Config{
		Pool: pool2, Net: net2, Policy: sched.MinLoad{},
		Restore: snap,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksRestored != len(snap.Completed) {
		t.Fatalf("restored %d tasks, snapshot recorded %d", res.TasksRestored, len(snap.Completed))
	}
	checkPoolIndexConsistent(t, pool2, specs)
}
