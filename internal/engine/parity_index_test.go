package engine_test

// Placement-index parity: a policy choosing through the pool's capability
// index must make byte-identical placement decisions to a scan of the
// materialized fitting list wherever the policy is deterministic — same
// start order, same node per start, same transfer books — including under
// node crashes, cordons, partitions and checkpoint restore, the churn the
// index maintains itself through. The scan run is the oracle: scanOnly
// asks the policy's question of every fitting node, the way each policy
// picked before the index existed.

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
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

// scanOnly is the scan oracle for FIFO, MinLoad and Locality: it
// materializes the candidates the engine offers and asks every one of
// them the policy's question — the first (FIFO); the lowest busy-core
// fraction, ties by name (MinLoad); the most local input bytes, then,
// under a partition, whether every input can reach it, then the most free
// cores, the first in pool order winning a tie (Locality).
type scanOnly struct{ sched.Policy }

func (p scanOnly) Choose(t *sched.TaskView, c resources.Candidates, ctx *sched.Context) *resources.Node {
	fitting := c.Nodes()
	switch p.Policy.(type) {
	case sched.FIFO:
		return fitting[0]
	case sched.MinLoad:
		var best *resources.Node
		var bestFrac float64
		for _, n := range fitting {
			f := float64(n.BusyCores()) / float64(n.Desc().Cores)
			if best == nil || f < bestFrac || f == bestFrac && n.Name() < best.Name() {
				best, bestFrac = n, f
			}
		}
		return best
	case sched.Locality:
		return scanLocality(t, fitting, ctx)
	}
	panic("scanOnly: no scan oracle for " + p.Name())
}

func scanLocality(t *sched.TaskView, fitting []*resources.Node, ctx *sched.Context) *resources.Node {
	fed := func(n *resources.Node) bool {
		if !ctx.Net.HasCuts() {
			return true
		}
		for _, k := range t.InputKeys {
			size, holders := ctx.Registry.Row(k)
			if len(holders) == 0 || slices.Contains(holders, n.Name()) {
				continue
			}
			if _, _, ok := ctx.Net.BestSource(n.Name(), holders, size); !ok {
				return false
			}
		}
		return true
	}
	var best *resources.Node
	var bestLocal int64
	var bestFed bool
	for _, n := range fitting {
		local, f := ctx.Registry.LocalBytes(n.Name(), t.InputKeys), fed(n)
		switch {
		case best == nil, local > bestLocal:
		case local == bestLocal && f && !bestFed:
		case local == bestLocal && f == bestFed && n.FreeCores() > best.FreeCores():
		default:
			continue
		}
		best, bestLocal, bestFed = n, local, f
	}
	return best
}

func runIndexParity(t *testing.T, policy sched.Policy, specs []infra.TaskSpec, script faults.Scenario) indexParityRun {
	t.Helper()
	pool, net := indexParityPool()
	sigs := specSigs(specs)
	engine.CheckSteps(t, "placement index", func(*engine.Engine) error { return indexScanDiff(pool, sigs) })
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

// specSigs returns one representative constraint set per signature the
// specs carry, in first-seen order.
func specSigs(specs []infra.TaskSpec) []resources.Constraints {
	var out []resources.Constraints
	seen := map[string]bool{}
	for _, s := range specs {
		if sig := s.Constraints.Signature(); !seen[sig] {
			seen[sig] = true
			out = append(out, s.Constraints)
		}
	}
	return out
}

// indexScanDiff holds the pool's index to a from-scratch node scan for
// every signature in sigs: Fitting in pool order, the first candidate, and
// MinLoadFitting — the fitting node with the least busy-core fraction,
// ties by name. It uses only the pool's exported API, so it can run at
// every engine step (e.mu → pool → node → index, the engine's own order).
func indexScanDiff(pool *resources.Pool, sigs []resources.Constraints) error {
	for _, c := range sigs {
		var want []*resources.Node
		var least *resources.Node
		for _, n := range pool.Nodes() {
			if !n.CanReserve(c) {
				continue
			}
			want = append(want, n)
			if least == nil {
				least = n
				continue
			}
			l, r := n.BusyCores()*least.Desc().Cores, least.BusyCores()*n.Desc().Cores
			if l < r || l == r && n.Name() < least.Name() {
				least = n
			}
		}
		if got := pool.Fitting(c); !slices.Equal(got, want) {
			return fmt.Errorf("sig %q: index Fitting %v, scan %v", c.Signature(), names(got...), names(want...))
		}
		var first *resources.Node
		if len(want) > 0 {
			first = want[0]
		}
		si := pool.IndexFor(c)
		if got := si.Candidates(c, nil).First(); got != first {
			return fmt.Errorf("sig %q: first candidate %v, scan %v", c.Signature(), names(got), names(first))
		}
		if got := si.MinLoadFitting(c); got != least {
			return fmt.Errorf("sig %q: MinLoadFitting %v, scan %v", c.Signature(), names(got), names(least))
		}
	}
	return nil
}

func names(ns ...*resources.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		if out[i] = "<nil>"; n != nil {
			out[i] = n.Name()
		}
	}
	return out
}

// checkPoolIndexConsistent asserts indexScanDiff for every signature the
// run touched — the post-churn invariant (crashes removed nodes, drains
// cordoned them, the run reserved and released throughout).
func checkPoolIndexConsistent(t *testing.T, pool *resources.Pool, specs []infra.TaskSpec) {
	t.Helper()
	if err := indexScanDiff(pool, specSigs(specs)); err != nil {
		t.Fatal(err)
	}
}

func TestIndexParitySweep(t *testing.T) {
	engine.CheckReservationSteps(t)
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
	if len(completedIDs(snap)) == 0 {
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
	if done := completedIDs(snap); res.TasksRestored != len(done) {
		t.Fatalf("restored %d tasks, snapshot recorded %d", res.TasksRestored, len(done))
	}
	checkPoolIndexConsistent(t, pool2, specs)
}

// localityParityPool is built so that Locality's order — most local
// bytes, then most free cores, then first inserted — cannot be mistaken
// for MinLoad's (busy fraction, name): insertion order is not name order,
// and core counts differ, so "most free cores" and "least busy fraction"
// name different nodes as soon as anything runs.
func localityParityPool() (*resources.Pool, *simnet.Network) {
	pool := resources.NewPool()
	for _, n := range []struct {
		name  string
		cores int
		class resources.Class
	}{
		{"lp-m", 4, resources.Cloud}, {"lp-a", 6, resources.HPC}, {"lp-z", 2, resources.Fog},
		{"lp-c", 6, resources.HPC}, {"lp-q", 3, resources.Cloud}, {"lp-b", 2, resources.Fog},
	} {
		_ = pool.Add(resources.NewNode(n.name, resources.Description{
			Cores: n.cores, MemoryMB: 32_000, SpeedFactor: 1, Class: n.class,
		}))
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return pool, net
}

// sizedStencil is the sim-dataflow shape at test size: a double-buffered
// periodic stencil whose cells differ in size (so local-byte scores differ
// and tie), with the first buffer staged in over the nodes round-robin,
// every third cell on two of them.
func sizedStencil(cells, iters int, nodes []*resources.Node) ([]infra.TaskSpec, map[deps.DataID]int64, map[deps.DataID][]string) {
	buf := func(b, i int) deps.DataID { return deps.DataID(1 + b*cells + (i+cells)%cells) }
	size := func(i int) int64 { return int64(1+i%4) * 5_000_000 }
	stageIn := map[deps.DataID]int64{}
	holders := map[deps.DataID][]string{}
	for i := 0; i < cells; i++ {
		stageIn[buf(0, i)] = size(i)
		holders[buf(0, i)] = []string{nodes[i%len(nodes)].Name()}
		if i%3 == 0 {
			holders[buf(0, i)] = append(holders[buf(0, i)], nodes[(i+2)%len(nodes)].Name())
		}
	}
	var specs []infra.TaskSpec
	for it := 0; it < iters; it++ {
		src, dst := it%2, (it+1)%2
		for i := 0; i < cells; i++ {
			specs = append(specs, infra.TaskSpec{
				ID: int64(len(specs) + 1), Class: "stencil.cell",
				Duration: time.Duration(20+(i*7+it*13)%25) * time.Second,
				Accesses: []deps.Access{
					{Data: buf(src, i-1), Dir: deps.In}, {Data: buf(src, i), Dir: deps.In},
					{Data: buf(src, i+1), Dir: deps.In}, {Data: buf(dst, i), Dir: deps.Out},
				},
				OutputBytes: map[deps.DataID]int64{buf(dst, i): size(i + it)},
			})
		}
	}
	return specs, stageIn, holders
}

// TestLocalityIndexParity holds Locality (score the holders by name, then
// one walk) to the scan oracle (scanOnly: every fitting node asked for its
// local bytes): byte-identical event streams, makespan and transfer
// counts on sized data, through crashes, drains, a partition with its heal
// (where the walk is costed against the network over a list) under every
// availability policy, and a checkpointed halt with its restore.
func TestLocalityIndexParity(t *testing.T) {
	engine.CheckReservationSteps(t)
	scripts := map[string]faults.Scenario{
		"plain": nil,
		"crash": {{At: 45 * time.Second, Kind: faults.Crash, Node: "lp-c"}},
		"drain": {{At: 30 * time.Second, Kind: faults.Drain, Node: "lp-a"}, {At: 60 * time.Second, Kind: faults.Drain, Node: "lp-q"}},
		"partition+heal": {
			{At: 40 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "fog"},
			{At: 50 * time.Second, Kind: faults.Cut, Node: "lp-m", Peer: "lp-q"},
			{At: 160 * time.Second, Kind: faults.HealLink, Node: "hpc", Peer: "fog"},
			{At: 200 * time.Second, Kind: faults.HealLink, Node: "lp-m", Peer: "lp-q"},
		},
	}
	run := func(t *testing.T, policy sched.Policy, workload string, avail engine.Availability, script faults.Scenario, halt time.Duration, store *checkpoint.Store, restore *checkpoint.Snapshot) indexParityRun {
		t.Helper()
		pool, net := localityParityPool()
		cfg := infra.Config{
			Pool: pool, Net: net, Policy: policy, Tracer: trace.New(0),
			Faults: script, Availability: avail, HaltAt: halt, Restore: restore,
		}
		if store != nil {
			cfg.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(7)}
		}
		specs := workloads.MapReduce(18, 5, 25*time.Second, 15*time.Second, 40e6)
		if workload == "stencil" {
			specs, cfg.StageIn, cfg.StageInNodes = sizedStencil(14, 9, pool.Nodes())
		}
		sim, err := infra.New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if halt > 0 && !errors.Is(err, infra.ErrHalted) {
			t.Fatalf("got %v, want ErrHalted", err)
		} else if halt == 0 && err != nil {
			t.Fatal(err)
		}
		if sim.EngineStats().Transfers == 0 && halt == 0 {
			t.Fatal("no transfers: the workload never made locality choose")
		}
		return indexParityRun{events: cfg.Tracer.Events(), makespan: res.Makespan, transfers: sim.EngineStats().Transfers, pool: pool}
	}
	for name, script := range scripts {
		for _, workload := range []string{"stencil", "mapreduce"} {
			for _, avail := range []engine.Availability{engine.AvailRunAnyway, engine.AvailDefer, engine.AvailRecompute} {
				if avail != engine.AvailRunAnyway && name != "partition+heal" {
					continue
				}
				label := name + "/" + avail.String() + "/" + workload
				t.Run(label, func(t *testing.T) {
					indexed := run(t, sched.Locality{}, workload, avail, script, 0, nil, nil)
					scanned := run(t, scanOnly{sched.Locality{}}, workload, avail, script, 0, nil, nil)
					diffIndexRuns(t, label, indexed, scanned)
				})
			}
		}
	}
	t.Run("checkpoint-restore", func(t *testing.T) {
		var halves [2][2]indexParityRun
		for arm, policy := range []sched.Policy{sched.Locality{}, scanOnly{sched.Locality{}}} {
			store, err := checkpoint.NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			halves[arm][0] = run(t, policy, "stencil", engine.AvailRunAnyway, scripts["crash"], 70*time.Second, store, nil)
			snap, err := store.Latest()
			if err != nil {
				t.Fatal(err)
			}
			if len(completedIDs(snap)) == 0 {
				t.Fatal("halt landed before any completion; drill misconfigured")
			}
			halves[arm][1] = run(t, policy, "stencil", engine.AvailRunAnyway, nil, 0, nil, snap)
		}
		diffIndexRuns(t, "before the halt", halves[0][0], halves[1][0])
		diffIndexRuns(t, "after the restore", halves[0][1], halves[1][1])
	})
}
