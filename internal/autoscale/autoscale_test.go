package autoscale

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resources"
)

// Bench-shaped tiers: a fast 8-core VM at SpeedFactor 0.8 (6.4 reference
// cores, 1.0/h) and a slow 4-core device at 0.25 (1 reference core,
// 0.25/h). Per reference core the cloud is cheaper (0.156 vs 0.25), so
// sustained demand consolidates onto VMs while trickles stay on devices
// — the granularity/consolidation trade the planner exists to price.
func cloudFog(t *testing.T) (*Autoscaler, []Variant) {
	t.Helper()
	vs := []Variant{
		simVariant("cloud", resources.CloudVM, 1.0, 8),
		simVariant("fog", resources.FogDevice, 0.25, 16),
	}
	a, err := New(vs)
	if err != nil {
		t.Fatal(err)
	}
	return a, a.Variants()
}

func simVariant(name string, desc resources.Description, cost float64, max int) Variant {
	return Variant{
		Name: name,
		Desc: desc,
		Manager: resources.NewElasticManager(
			resources.NewSimProvider(name, desc, max, 0),
			resources.ScalePolicy{MaxNodes: max, TasksPerCore: 2, CostPerNodeHour: cost},
		),
	}
}

func planCost(a *Autoscaler, plan []int) float64 {
	c := 0.0
	for i, n := range plan {
		c += float64(n) * a.variants[i].Cost()
	}
	return c
}

func planRate(a *Autoscaler, plan []int) float64 {
	r := 0.0
	for i, n := range plan {
		r += float64(n) * a.variants[i].rate()
	}
	return r
}

// TestPlanFleetEconomics pins the planner's three regimes: a trickle is
// cheapest on one small device, sustained demand consolidates onto the
// big tier, and mid-range demand takes a mix when the mix is strictly
// cheaper than either pure fleet.
func TestPlanFleetEconomics(t *testing.T) {
	a, vs := cloudFog(t)
	ci, fi := 0, 1 // variants sort by name: cloud, fog
	if vs[ci].Name != "cloud" || vs[fi].Name != "fog" {
		t.Fatalf("variant order: %q, %q", vs[0].Name, vs[1].Name)
	}

	// Trickle: 0.5 reference cores. One fog device (0.25/h) beats one
	// cloud VM (1.0/h) even though the VM's per-core price is lower.
	plan, ok := a.planFleet(0.5)
	if !ok || plan[ci] != 0 || plan[fi] != 1 {
		t.Fatalf("trickle plan = %v ok=%v, want pure fog [0 1]", plan, ok)
	}

	// Sustained: 12 reference cores. Two VMs (2.0/h) beat twelve fog
	// devices (3.0/h) — consolidation where it actually saves money.
	plan, ok = a.planFleet(12)
	if !ok || plan[ci] != 2 || plan[fi] != 0 {
		t.Fatalf("sustained plan = %v ok=%v, want pure cloud [2 0]", plan, ok)
	}

	// Mid-range: 7 reference cores. One VM + one device (1.25/h,
	// 7.4 cores) undercuts two VMs (2.0/h) and seven devices (1.75/h).
	plan, ok = a.planFleet(7)
	if !ok || plan[ci] != 1 || plan[fi] != 1 {
		t.Fatalf("mid-range plan = %v ok=%v, want mixed [1 1]", plan, ok)
	}
}

// TestPlanFleetTieBreaksSmall: at exactly the break-even demand (4
// reference cores: four devices = one VM = 1.0/h) the planner must pick
// the small-node fleet — same price now, finer shed granularity later.
func TestPlanFleetTieBreaksSmall(t *testing.T) {
	a, _ := cloudFog(t)
	plan, ok := a.planFleet(4)
	if !ok || plan[0] != 0 || plan[1] != 4 {
		t.Fatalf("break-even plan = %v ok=%v, want small-node fleet [0 4]", plan, ok)
	}
}

// TestPlanFleetCoversNeed: for random demands the accepted plan always
// covers the demand, and for zero demand the plan is the empty fleet.
func TestPlanFleetCoversNeed(t *testing.T) {
	a, _ := cloudFog(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		need := rng.Float64() * 60 // max fleet: 8*6.4 + 16*1 = 67.2
		plan, ok := a.planFleet(need)
		if !ok {
			t.Fatalf("need %.2f: no plan", need)
		}
		if got := planRate(a, plan); got < need {
			t.Fatalf("need %.2f: plan %v covers only %.2f", need, plan, got)
		}
	}
	plan, ok := a.planFleet(0)
	if !ok || plan[0] != 0 || plan[1] != 0 {
		t.Fatalf("zero demand plan = %v ok=%v, want empty fleet", plan, ok)
	}
}

// TestPlanFleetInfeasible: demand beyond every tier's MaxNodes reports
// !ok instead of a silently short fleet.
func TestPlanFleetInfeasible(t *testing.T) {
	vs := []Variant{simVariant("fog", resources.FogDevice, 0.25, 2)}
	a, err := New(vs)
	if err != nil {
		t.Fatal(err)
	}
	if plan, ok := a.planFleet(5); ok {
		t.Fatalf("2-device tier planned %v for 5 reference cores", plan)
	}
}

// sig builds a one-signature Signals snapshot.
func sig(ready int, c resources.Constraints, capable, free, total int) Signals {
	s := Signals{Ready: ready, FreeCores: free, TotalCores: total}
	if ready > 0 {
		s.Sigs = []engine.SigLoad{{Sig: "s", Constraints: c, Ready: ready, Capable: capable}}
	}
	return s
}

// TestEvaluateStarved: queued work no pool node is capable of buys the
// cheapest tier per reference core whose shape can serve it.
func TestEvaluateStarved(t *testing.T) {
	a, _ := cloudFog(t)
	d := a.Evaluate(sig(3, resources.Constraints{Cores: 2}, 0, 1, 1))
	if d.Delta != +1 || d.Reason != "starved" || d.Variant != "cloud" {
		t.Fatalf("starved decision = %+v, want +1 cloud (cheapest per reference core)", d)
	}
}

// TestEvaluateStarvedNoVariant: starved demand no tier shape satisfies
// holds with "no-variant" instead of buying a useless node.
func TestEvaluateStarvedNoVariant(t *testing.T) {
	a, _ := cloudFog(t)
	d := a.Evaluate(sig(3, resources.Constraints{Cores: 64}, 0, 1, 1))
	if d.Delta != 0 || d.Reason != "no-variant" {
		t.Fatalf("unservable starvation = %+v, want no-variant hold", d)
	}
}

// TestEvaluateBacklogGrowsTowardPlan: an aggregate backlog grows the
// tier the cheapest fleet plan is missing, and once the fleet covers the
// plan the analyzer holds with "planned" while the queue drains.
func TestEvaluateBacklogGrowsTowardPlan(t *testing.T) {
	a, vs := cloudFog(t)
	pool := resources.NewPool()
	c := resources.Constraints{Cores: 1}

	d := a.Evaluate(sig(40, c, 1, 1, 1))
	if d.Delta != +1 || d.Reason != "backlog" {
		t.Fatalf("deep queue decision = %+v, want backlog grow", d)
	}
	// Execute grows until the fleet covers the plan; the analyzer must
	// then report "planned", not keep buying.
	for i := 0; i < 32; i++ {
		d = a.Evaluate(sig(40, c, 1, 1, 1))
		if d.Delta <= 0 {
			break
		}
		v := a.variant(d.Variant)
		if _, _, err := v.Manager.GrowOne(pool); err != nil {
			t.Fatal(err)
		}
	}
	if d.Reason != "planned" {
		t.Fatalf("after covering the plan: %+v, want planned hold", d)
	}
	total := 0
	for _, v := range vs {
		total += v.Manager.ElasticCount()
	}
	if total == 0 || total > 24 {
		t.Fatalf("fleet after backlog growth = %d nodes", total)
	}
}

// TestEvaluateReapsDrainedUnderLoad: a cordoned node that has bled dry
// is removed even while sub-threshold work trickles through the pool —
// it takes no placements, so keeping it is pure cost.
func TestEvaluateReapsDrainedUnderLoad(t *testing.T) {
	a, vs := cloudFog(t)
	pool := resources.NewPool()
	fog := vs[1]
	n1, _, err := fog.Manager.GrowOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	n2, _, err := fog.Manager.GrowOne(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy both devices so the shrink cordons a BUSY victim (idle
	// victims are removed in the same call), then let the victim's work
	// finish: a bled-dry cordoned node, exactly mid-drain.
	hold := resources.Constraints{Cores: 1}
	for _, n := range []*resources.Node{n1, n2} {
		if err := n.Reserve(hold); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fog.Manager.ShrinkOne(pool); err != nil {
		t.Fatal(err)
	}
	victim := n1
	if !victim.Drained() {
		victim = n2
	}
	if !victim.Drained() {
		t.Fatal("no victim cordoned")
	}
	victim.Release(hold)
	if fog.Manager.DrainedCount() != 1 {
		t.Fatalf("DrainedCount = %d, want 1", fog.Manager.DrainedCount())
	}
	// One ready task on an 9-core pool is far below the threshold:
	// neither backlog nor idle, but the corpse must still be reaped.
	d := a.Evaluate(sig(1, resources.Constraints{Cores: 1}, 2, 8, 8))
	if d.Delta != -1 || d.Reason != "reap" || d.Variant != "fog" {
		t.Fatalf("decision with drained node = %+v, want fog reap", d)
	}
}

// TestEvaluateShedsToPlanFloor: with nothing queued the fleet sheds down
// to the plan for the decayed demand peak — most expensive tier first —
// and the demand peak's decay reaches exactly zero, so the last node
// goes too instead of idling forever on an ε-demand plan.
func TestEvaluateShedsToPlanFloor(t *testing.T) {
	a, vs := cloudFog(t)
	pool := resources.NewPool()
	cloud, fog := vs[0], vs[1]
	for i := 0; i < 2; i++ {
		if _, _, err := fog.Manager.GrowOne(pool); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cloud.Manager.GrowOne(pool); err != nil {
		t.Fatal(err)
	}

	idle := Signals{FreeCores: pool.FreeCores(), TotalCores: pool.TotalCores()}
	seen := map[string]int{}
	for i := 0; i < 40; i++ {
		act := a.Step(pool, idle)
		seen[act.Decision.Reason]++
		if cloud.Manager.ElasticCount()+fog.Manager.ElasticCount() == 0 {
			break
		}
	}
	if cloud.Manager.ElasticCount() != 0 || fog.Manager.ElasticCount() != 0 {
		t.Fatalf("fleet not fully shed: cloud=%d fog=%d (reasons %v)",
			cloud.Manager.ElasticCount(), fog.Manager.ElasticCount(), seen)
	}
	// Idle victims are cordoned and removed in the same ShrinkOne call,
	// so a fully idle fleet sheds with one "idle" decision per node.
	if seen["idle"] < 3 {
		t.Fatalf("shed cycle reasons = %v, want three idle sheds", seen)
	}
	// The first shed must have targeted the expensive tier.
	for _, d := range a.Decisions() {
		if d.Delta < 0 {
			if d.Variant != "cloud" {
				t.Fatalf("first shed hit %q, want the expensive cloud tier", d.Variant)
			}
			break
		}
	}
}

// TestEvaluateMonotoneInReady: on a fresh analyzer, Delta as a function
// of the ready depth never decreases — more queued work can turn a hold
// into a grow but never a grow into a shrink.
func TestEvaluateMonotoneInReady(t *testing.T) {
	prev := -2
	for ready := 0; ready <= 100; ready++ {
		a, _ := cloudFog(t)
		d := a.Evaluate(sig(ready, resources.Constraints{Cores: 1}, 1, 2, 2))
		if d.Delta < prev {
			t.Fatalf("Ready=%d: Delta %d < previous %d", ready, d.Delta, prev)
		}
		prev = d.Delta
	}
}

// TestEvaluateDeterministic: two analyzers over identical variant state
// fed the identical Signals sequence produce identical decision
// sequences — the property the sim-vs-live parity suite stands on.
func TestEvaluateDeterministic(t *testing.T) {
	mk := func() (*Autoscaler, *resources.Pool) {
		a, _ := cloudFog(t)
		return a, resources.NewPool()
	}
	a1, p1 := mk()
	a2, p2 := mk()
	rng := rand.New(rand.NewSource(42))
	var sigs []Signals
	for i := 0; i < 300; i++ {
		s := sig(rng.Intn(30), resources.Constraints{Cores: 1 + rng.Intn(2)}, rng.Intn(3), 2, 2)
		s.At = time.Duration(i) * 10 * time.Second
		sigs = append(sigs, s)
	}
	for _, s := range sigs {
		a1.Step(p1, s)
		a2.Step(p2, s)
	}
	d1, d2 := a1.Decisions(), a2.Decisions()
	if len(d1) != len(d2) {
		t.Fatalf("decision counts differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs:\n  %+v\n  %+v", i, d1[i], d2[i])
		}
	}
}

// TestStepNeverNegativeCapacity: across a random signal storm the
// variant managers and the pool stay consistent — no negative counts,
// no pool cores below zero, and every shrink is drain-then-remove (a
// Removed action only ever reaps a node with nothing running).
func TestStepNeverNegativeCapacity(t *testing.T) {
	a, vs := cloudFog(t)
	pool := resources.NewPool()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		s := sig(rng.Intn(40), resources.Constraints{Cores: 1}, rng.Intn(2), pool.FreeCores(), pool.TotalCores())
		act := a.Step(pool, s)
		if act.Kind == Removed && act.Node.Running() != 0 {
			t.Fatalf("step %d removed node %s with %d running tasks", i, act.Node.Name(), act.Node.Running())
		}
		for _, v := range vs {
			if v.Manager.ElasticCount() < 0 || v.Manager.DrainingCount() < 0 {
				t.Fatalf("step %d: %s counts negative", i, v.Name)
			}
		}
		if pool.FreeCores() < 0 || pool.FreeCores() > pool.TotalCores() {
			t.Fatalf("step %d: pool cores inconsistent: free=%d total=%d", i, pool.FreeCores(), pool.TotalCores())
		}
	}
}

// TestNewValidation: variant sets must be non-empty, named, managed and
// unique.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New accepted an empty variant set")
	}
	if _, err := New([]Variant{{Name: "x"}}); err == nil {
		t.Fatal("New accepted a manager-less variant")
	}
	v := simVariant("dup", resources.FogDevice, 1, 1)
	if _, err := New([]Variant{v, v}); err == nil {
		t.Fatal("New accepted duplicate variant names")
	}
}
