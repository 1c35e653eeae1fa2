package engine_test

// Placement golden: every policy sched.ByName knows runs one seeded
// simulation whose placements reach each path a policy can be asked to
// choose on — the signature's index, a multi-node group's list, a list
// filtered by an availability-recompute hint, the feedable re-offer under
// a cut — and whose long tasks WaitFast declines. Each run's starts (task,
// time, nodes, primary first) are held byte for byte to
// testdata/placements.golden (add -update to rewrite it), so a change to
// how a policy is asked, or to what it is shown, that moves one placement
// fails here.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/placements.golden from this run")

// placementPool is two nodes per tier, neither in name order nor grouped
// by tier, the fog pair too slow for WaitFast's long tasks.
func placementPool() (*resources.Pool, *simnet.Network) {
	pool := resources.NewPool()
	hpc := resources.Description{Cores: 8, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC, ActiveWattsPerCore: 6}
	cloud := resources.Description{Cores: 4, MemoryMB: 16_000, SpeedFactor: 0.8, Class: resources.Cloud, ActiveWattsPerCore: 8}
	fog := resources.Description{Cores: 2, MemoryMB: 8_000, SpeedFactor: 0.3, Class: resources.Fog, ActiveWattsPerCore: 1}
	for _, n := range []struct {
		name string
		desc resources.Description
	}{
		{"pg-f1", fog}, {"pg-h1", hpc}, {"pg-c0", cloud}, {"pg-h0", hpc}, {"pg-f0", fog}, {"pg-c1", cloud},
	} {
		_ = pool.Add(resources.NewNode(n.name, n.desc))
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return pool, net
}

// placementSpecs is three waves over sized data: unpinned producers; then
// readers of two produced data each, every fourth pinned to the fog tier
// (whose data a cut from the HPC tier strands, so recompute resubmits the
// producer under a hint) and every fifth a two-node group; then long
// unpinned joins, which WaitFast keeps off the fog tier.
func placementSpecs() []infra.TaskSpec {
	const producers = 16
	var specs []infra.TaskSpec
	add := func(s infra.TaskSpec) {
		s.ID = int64(len(specs) + 1)
		specs = append(specs, s)
	}
	for i := 0; i < producers; i++ {
		add(infra.TaskSpec{
			Class: "pg.produce", Duration: time.Duration(8+i%5) * time.Second,
			Accesses:    []deps.Access{{Data: deps.DataID(1 + i), Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{deps.DataID(1 + i): int64(1+i%4) * 40_000_000},
		})
	}
	for i := 0; i < 2*producers; i++ {
		s := infra.TaskSpec{
			Class: "pg.read", Duration: time.Duration(6+i%7) * time.Second, Release: 30 * time.Second,
			Accesses: []deps.Access{
				{Data: deps.DataID(1 + i%producers), Dir: deps.In},
				{Data: deps.DataID(1 + (i*3+1)%producers), Dir: deps.In},
				{Data: deps.DataID(100 + i), Dir: deps.Out},
			},
			OutputBytes: map[deps.DataID]int64{deps.DataID(100 + i): 10_000_000},
		}
		switch {
		case i%4 == 0: // short: WaitFast lets it wait for no faster tier
			s.Duration, s.Constraints = 5*time.Second, resources.Constraints{Class: resources.Fog}
		case i%5 == 0:
			s.Class, s.Constraints = "pg.group", resources.Constraints{Cores: 2, Nodes: 2}
		}
		add(s)
	}
	for i := 0; i < producers; i++ {
		add(infra.TaskSpec{
			Class: "pg.join", Duration: time.Duration(20+i%4*5) * time.Second,
			Accesses: []deps.Access{
				{Data: deps.DataID(100 + 2*i), Dir: deps.In},
				{Data: deps.DataID(100 + 2*i + 1), Dir: deps.In},
			},
		})
	}
	return specs
}

// placementScript drains a cloud node, cuts the HPC tier off the fog tier
// while the readers are released, and heals it after.
var placementScript = faults.Scenario{
	{At: 25 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "fog"},
	{At: 40 * time.Second, Kind: faults.Drain, Node: "pg-c1"},
	{At: 120 * time.Second, Kind: faults.HealLink, Node: "hpc", Peer: "fog"},
}

// pickCall is one policy decision the run asked for: the task, the nodes
// offered, and the pick ("" for a decline).
type pickCall struct {
	task    int64
	offered []string
	got     string
}

// placementCounts are the cases the fixture exists to reach, counted so a
// run that reaches none of one fails instead of passing vacuously.
type placementCounts struct {
	groups, hinted, reoffers, declines int
}

// recorder collects one run's decisions and its placements as the engine
// holds them, seen at every step.
type recorder struct {
	last   *pickCall // the step's latest decision; nil when a step begins
	placed map[[2]int64]engine.Placed
	counts placementCounts
}

func (r *recorder) pick(t *sched.TaskView, offered []*resources.Node, got *resources.Node) {
	c := &pickCall{task: t.ID, offered: names(offered...)}
	if got != nil {
		c.got = got.Name()
	} else {
		r.counts.declines++
	}
	// A re-offer is the engine asking again, in the same step, about the
	// task it was just asked about, over a list without the first pick.
	if p := r.last; p != nil && p.task == c.task && p.got != "" && !slices.Contains(c.offered, p.got) {
		r.counts.reoffers++
	}
	r.last = c
}

// observeStep records the placements running at a step end.
func (r *recorder) observeStep(e *engine.Engine) {
	r.last = nil
	for _, p := range engine.RunningPlacements(e) {
		key := [2]int64{p.ID, int64(p.Epoch)}
		if _, seen := r.placed[key]; seen {
			continue
		}
		r.placed[key] = p
		if p.Hinted {
			r.counts.hinted++
		}
		if len(p.Nodes) > 1 {
			r.counts.groups++
		}
	}
}

// observed forwards every method the engine asks a policy for to the
// policy it wraps, recording each pick; a policy that does not rank ready
// tasks ranks them all 0, which orders them as no ranking does.
type observed struct {
	sched.Policy
	rec *recorder
}

func (p observed) Choose(t *sched.TaskView, c resources.Candidates, ctx *sched.Context) *resources.Node {
	n := p.Policy.Choose(t, c, ctx)
	p.rec.pick(t, c.Nodes(), n)
	return n
}

func (p observed) Priority(t *sched.TaskView, ctx *sched.Context) float64 {
	if pr, ok := p.Policy.(sched.Prioritizer); ok {
		return pr.Priority(t, ctx)
	}
	return 0
}

// runPlacements runs the fixture under policy and renders its starts.
func runPlacements(t *testing.T, policy sched.Policy, rec *recorder) string {
	t.Helper()
	pool, net := placementPool()
	tr := trace.New(0)
	sim, err := infra.New(infra.Config{
		Pool: pool, Net: net, Policy: observed{policy, rec}, Tracer: tr,
		Availability: engine.AvailRecompute, Faults: placementScript,
	}, placementSpecs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	c := rec.counts
	fmt.Fprintf(&b, "== %s: makespan %v, %d transfers, %d group placements, %d hinted\n",
		policy.Name(), res.Makespan, sim.EngineStats().Transfers, c.groups, c.hinted)
	epochs := map[int64]int64{}
	for _, ev := range tr.Events() {
		if ev.Kind != trace.TaskStarted {
			continue
		}
		epochs[ev.Task]++
		p, ok := rec.placed[[2]int64{ev.Task, epochs[ev.Task]}]
		if !ok || p.Nodes[0] != ev.Node {
			t.Fatalf("%s: task %d started on %s, the engine's books say %v", policy.Name(), ev.Task, ev.Node, p.Nodes)
		}
		hint := ""
		if p.Hinted {
			hint = " hinted"
		}
		fmt.Fprintf(&b, "%v t%d %s%s\n", ev.At, ev.Task, strings.Join(p.Nodes, "+"), hint)
	}
	return b.String()
}

// TestPlacementsMatchGolden runs every named policy over the fixture and
// holds the starts to the golden file, with the pool's reservations held
// to the engine's running tasks at every step.
func TestPlacementsMatchGolden(t *testing.T) {
	engine.CheckReservationSteps(t)
	engine.CheckTaskRecordSteps(t)
	var rec *recorder
	engine.CheckSteps(t, "placement recorder", func(e *engine.Engine) error {
		rec.observeStep(e)
		return nil
	})
	var got bytes.Buffer
	var total placementCounts
	for _, name := range strings.Split(sched.Names, " | ") {
		policy, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec = &recorder{placed: map[[2]int64]engine.Placed{}}
		got.WriteString(runPlacements(t, policy, rec))
		total.groups += rec.counts.groups
		total.hinted += rec.counts.hinted
		total.reoffers += rec.counts.reoffers
		if name == "wait-fast" {
			total.declines += rec.counts.declines
		}
	}
	t.Logf("over all policies: %d group placements, %d hinted, %d feedable re-offers, %d WaitFast declines",
		total.groups, total.hinted, total.reoffers, total.declines)
	if total.groups == 0 || total.hinted == 0 || total.reoffers == 0 || total.declines == 0 {
		t.Fatal("fixture degenerate: a case above never occurred")
	}
	path := filepath.Join("testdata", "placements.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("%s differs from this run at line %d: got %q", path, i+1, gl[i])
			}
		}
		t.Fatalf("%s has %d lines, this run %d", path, len(wl), len(gl))
	}
}
