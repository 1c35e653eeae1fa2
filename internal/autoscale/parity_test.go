// Sim-vs-live parity for the cost-aware autoscaler: both backends drive
// the same Autoscaler.Step against their own engine and pool, so for
// the same workload state the two must produce identical decision
// sequences — the property that makes a policy sweep on the simulator
// transferable to the live runtime.
//
// The protocol keeps both engines in deterministic lockstep by making
// sure no task is ever placed: the base node's capacity is reserved up
// front (it must still statically satisfy the demand signature — the
// live runtime rejects submissions no pool node could ever run), and
// every elastic node joins the pool already cordoned (autoscale.Predrain
// drains it before it joins), which makes it invisible to
// placement while still counting as capable supply and elastic fleet.
// The load signals are therefore byte-identical on both backends at
// every evaluation instant, wall clock or virtual.
package autoscale_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	rtrace "repro/internal/trace"
)

// parityBase is the static pool's node shape. It statically satisfies
// the 2-core demand signature — the live runtime rejects submissions no
// pool node could ever run — but the tests reserve both its cores up
// front, so nothing actually places on it and the backlog accumulates.
var parityBase = resources.Description{Cores: 2, SpeedFactor: 1}

// Parity tiers: a slow cheap device and a fast expensive VM, both at
// SpeedFactor 1 so reference arithmetic stays readable. Per reference
// core the device wins (0.1 vs 0.125), so small fleets stay on devices.
var (
	parityFog   = resources.Description{Cores: 2, SpeedFactor: 1}
	parityCloud = resources.Description{Cores: 8, SpeedFactor: 1}
)

func parityScaler(t *testing.T, predrain bool) *autoscale.Autoscaler {
	t.Helper()
	a, err := autoscale.New([]autoscale.Tier{
		{Name: "cloud", Desc: parityCloud, Cost: 1.0, Max: 2},
		{Name: "fog", Desc: parityFog, Cost: 0.2, Max: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if predrain {
		autoscale.Predrain(a)
	}
	return a
}

// parityHold is the reservation that keeps the base node permanently
// full during the growth test.
var parityHold = resources.Constraints{Cores: 2}

func parityPool(t *testing.T) *resources.Pool {
	t.Helper()
	pool := resources.NewPool()
	if err := pool.Add(resources.NewNode("base-0", parityBase)); err != nil {
		t.Fatal(err)
	}
	return pool
}

// comparable strips the clock-dependent fields off a decision sequence.
type parityDecision struct {
	Tier   string
	Delta  int
	Score  float64
	Reason string
}

func stripAt(ds []autoscale.Decision) []parityDecision {
	out := make([]parityDecision, len(ds))
	for i, d := range ds {
		out[i] = parityDecision{Tier: d.Tier, Delta: d.Delta, Score: d.Score, Reason: d.Reason}
	}
	return out
}

func diffDecisions(t *testing.T, sim, live []parityDecision) {
	t.Helper()
	if len(sim) != len(live) {
		t.Fatalf("decision counts differ: sim %d, live %d\nsim:  %+v\nlive: %+v", len(sim), len(live), sim, live)
	}
	for i := range sim {
		if sim[i] != live[i] {
			t.Fatalf("decision %d diverges:\n  sim:  %+v\n  live: %+v", i, sim[i], live[i])
		}
	}
}

// TestParityGrowthSequence runs the backlog growth story on both
// backends and requires the decision sequences to match one to one:
// plan-driven backlog growth, then steady holds once the fleet covers
// the plan.
func TestParityGrowthSequence(t *testing.T) {
	const tasks, steps = 12, 8
	demand := resources.Constraints{Cores: 2}

	// Simulator: the workload registers at New, so the ready queue is
	// fully loaded before the first evaluation — no Run() needed, and
	// nothing ever places (the base node is full, elastic nodes arrive
	// cordoned).
	// Both backends' options: a fresh scaler, pool and tracer each call,
	// the base node held full.
	config := func() host.Config {
		pool := parityPool(t)
		if err := pool.Nodes()[0].Reserve(parityHold); err != nil {
			t.Fatal(err)
		}
		return host.Config{
			Pool:      pool,
			Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy:    sched.MinLoad{},
			Tracer:    rtrace.New(0),
			Autoscale: parityScaler(t, true),
		}
	}
	simCfg := config()
	specs := make([]infra.TaskSpec, tasks)
	for i := range specs {
		specs[i] = infra.TaskSpec{
			ID: int64(i + 1), Class: "heavy", Duration: time.Hour, Constraints: demand,
		}
	}
	sim, err := infra.New(simCfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		sim.AutoscaleStep()
	}

	// Live runtime: the same demand shape as real blocked submissions.
	liveCfg := config()
	livePool := liveCfg.Pool
	baseNode := livePool.Nodes()[0]
	gate := make(chan struct{})
	rt := core.New(liveCfg)
	if err := rt.Register(core.TaskDef{
		Name:        "heavy",
		Constraints: demand,
		Fn: func(context.Context, []any) ([]any, error) {
			<-gate
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		if _, err := rt.Submit("heavy"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < steps; i++ {
		rt.AutoscaleStep()
	}

	simDs, liveDs := stripAt(simCfg.Autoscale.Decisions()), stripAt(liveCfg.Autoscale.Decisions())
	diffDecisions(t, simDs, liveDs)

	// The sequence itself must tell the growth story, not just agree.
	if simDs[0].Delta != +1 || simDs[0].Reason != "backlog" {
		t.Fatalf("first decision = %+v, want a backlog grow", simDs[0])
	}
	grows := 0
	for _, d := range simDs {
		if d.Delta > 0 {
			grows++
		}
	}
	if grows < 2 || simDs[len(simDs)-1].Delta != 0 {
		t.Fatalf("sequence %+v: want ≥ 2 grows settling into a hold", simDs)
	}

	// Both fleets must have bought the same nodes.
	simNames, liveNames := poolNames(simCfg.Pool), poolNames(livePool)
	if fmt.Sprint(simNames) != fmt.Sprint(liveNames) {
		t.Fatalf("pools diverge: sim %v, live %v", simNames, liveNames)
	}

	// Unblock the live workload so Shutdown can drain it.
	for _, n := range livePool.Nodes() {
		n.Undrain()
	}
	baseNode.Release(parityHold)
	close(gate)
	rt.Engine().RevalidateAvailability()
	rt.Shutdown()
}

// TestParityShrinkSequence pre-grows the same fleet on both backends,
// then lets the idle analyzer shed it: the expensive tier goes first,
// every removal is decided identically, and both pools end at the base
// node alone.
func TestParityShrinkSequence(t *testing.T) {
	const steps = 10
	// run builds both backends' options — a fresh scaler, pre-grown pool
	// and tracer each call — and ticks the backend step makes of them.
	run := func(step func(host.Config) func()) ([]parityDecision, []string) {
		scaler := parityScaler(t, false)
		pool := parityPool(t)
		for _, tier := range []string{"cloud", "fog", "fog"} {
			if _, err := autoscale.Grow(scaler, pool, tier); err != nil {
				t.Fatal(err)
			}
		}
		tick := step(host.Config{
			Pool:      pool,
			Net:       simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy:    sched.MinLoad{},
			Tracer:    rtrace.New(0),
			Autoscale: scaler,
		})
		for i := 0; i < steps; i++ {
			tick()
		}
		return stripAt(scaler.Decisions()), poolNames(pool)
	}

	simDs, simNodes := run(func(cfg host.Config) func() {
		sim, err := infra.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return func() { sim.AutoscaleStep() }
	})
	liveDs, liveNodes := run(func(cfg host.Config) func() {
		rt := core.New(cfg)
		t.Cleanup(rt.Shutdown)
		return func() { rt.AutoscaleStep() }
	})

	diffDecisions(t, simDs, liveDs)
	if fmt.Sprint(simNodes) != fmt.Sprint(liveNodes) {
		t.Fatalf("pools diverge: sim %v, live %v", simNodes, liveNodes)
	}
	if len(simNodes) != 1 || simNodes[0] != "base-0" {
		t.Fatalf("fleet not fully shed: %v", simNodes)
	}
	// The first shed must have hit the expensive tier.
	for _, d := range simDs {
		if d.Delta < 0 {
			if d.Tier != "cloud" {
				t.Fatalf("first shed hit %q, want cloud", d.Tier)
			}
			break
		}
	}
}

func poolNames(p *resources.Pool) []string {
	var names []string
	for _, n := range p.Nodes() {
		names = append(names, n.Name())
	}
	sort.Strings(names)
	return names
}
