package autoscale

import (
	"math"
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
func cloudFog(t *testing.T) (a *Autoscaler, cloud, fog *tier) {
	t.Helper()
	a, err := New([]Tier{
		{Name: "cloud", Desc: resources.CloudVM, Cost: 1.0, Max: 8},
		{Name: "fog", Desc: resources.FogDevice, Cost: 0.25, Max: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, &a.tiers[0], &a.tiers[1]
}

func planCost(a *Autoscaler, plan []int) float64 {
	c := 0.0
	for i, n := range plan {
		c += float64(n) * a.tiers[i].Cost
	}
	return c
}

func planRate(a *Autoscaler, plan []int) float64 {
	r := 0.0
	for i, n := range plan {
		r += float64(n) * a.tiers[i].rate()
	}
	return r
}

// TestPlanFleetEconomics pins the planner's three regimes: a trickle is
// cheapest on one small device, sustained demand consolidates onto the
// big tier, and mid-range demand takes a mix when the mix is strictly
// cheaper than either pure fleet.
func TestPlanFleetEconomics(t *testing.T) {
	a, cloud, fog := cloudFog(t)
	ci, fi := 0, 1 // tiers sort by name: cloud, fog
	if cloud.Name != "cloud" || fog.Name != "fog" {
		t.Fatalf("tier order: %q, %q", cloud.Name, fog.Name)
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
	a, _, _ := cloudFog(t)
	plan, ok := a.planFleet(4)
	if !ok || plan[0] != 0 || plan[1] != 4 {
		t.Fatalf("break-even plan = %v ok=%v, want small-node fleet [0 4]", plan, ok)
	}
}

// TestPlanFleetCoversNeed: for random demands the accepted plan always
// covers the demand, and for zero demand the plan is the empty fleet.
func TestPlanFleetCoversNeed(t *testing.T) {
	a, _, _ := cloudFog(t)
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

// TestPlanFleetInfeasible: demand beyond every tier's Max reports !ok
// instead of a silently short fleet.
func TestPlanFleetInfeasible(t *testing.T) {
	a, err := New([]Tier{{Name: "fog", Desc: resources.FogDevice, Cost: 0.25, Max: 2}})
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
	a, _, _ := cloudFog(t)
	d := a.decide(sig(3, resources.Constraints{Cores: 2}, 0, 1, 1))
	if d.Delta != +1 || d.Reason != "starved" || d.Tier != "cloud" {
		t.Fatalf("starved decision = %+v, want +1 cloud (cheapest per reference core)", d)
	}
}

// TestEvaluateStarvedNoVariant: starved demand no tier shape satisfies
// holds with "no-variant" instead of buying a useless node.
func TestEvaluateStarvedNoVariant(t *testing.T) {
	a, _, _ := cloudFog(t)
	d := a.decide(sig(3, resources.Constraints{Cores: 64}, 0, 1, 1))
	if d.Delta != 0 || d.Reason != "no-variant" {
		t.Fatalf("unservable starvation = %+v, want no-variant hold", d)
	}
}

// TestEvaluateBacklogGrowsTowardPlan: an aggregate backlog grows the
// tier the cheapest fleet plan is missing, and once the fleet covers the
// plan the analyzer holds with "planned" while the queue drains.
func TestEvaluateBacklogGrowsTowardPlan(t *testing.T) {
	a, _, _ := cloudFog(t)
	pool := resources.NewPool()
	c := resources.Constraints{Cores: 1}

	d := a.decide(sig(40, c, 1, 1, 1))
	if d.Delta != +1 || d.Reason != "backlog" {
		t.Fatalf("deep queue decision = %+v, want backlog grow", d)
	}
	// Execute grows until the fleet covers the plan; the analyzer must
	// then report "planned", not keep buying.
	for i := 0; i < 32; i++ {
		d = a.decide(sig(40, c, 1, 1, 1))
		if d.Delta <= 0 {
			break
		}
		if _, err := a.grow(pool, a.named(d.Tier)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Reason != "planned" {
		t.Fatalf("after covering the plan: %+v, want planned hold", d)
	}
	total := 0
	for i := range a.tiers {
		total += len(a.tiers[i].elastic)
	}
	if total == 0 || total > 24 {
		t.Fatalf("fleet after backlog growth = %d nodes", total)
	}
}

// TestEvaluateReapsDrainedUnderLoad: a cordoned node that has bled dry
// is removed even while sub-threshold work trickles through the pool —
// it takes no placements, so keeping it is pure cost.
func TestEvaluateReapsDrainedUnderLoad(t *testing.T) {
	a, _, fog := cloudFog(t)
	pool := resources.NewPool()
	n1, err := a.grow(pool, fog)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := a.grow(pool, fog)
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
	if _, err := a.shrink(pool, fog); err != nil {
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
	if fog.drained() != 1 {
		t.Fatalf("%d drained, want 1", fog.drained())
	}
	// One ready task on an 9-core pool is far below the threshold:
	// neither backlog nor idle, but the corpse must still be reaped.
	d := a.decide(sig(1, resources.Constraints{Cores: 1}, 2, 8, 8))
	if d.Delta != -1 || d.Reason != "reap" || d.Tier != "fog" {
		t.Fatalf("decision with drained node = %+v, want fog reap", d)
	}
}

// TestEvaluateShedsToPlanFloor: with nothing queued the fleet sheds down
// to the plan for the decayed demand peak — most expensive tier first —
// and the demand peak's decay reaches exactly zero, so the last node
// goes too instead of idling forever on an ε-demand plan.
func TestEvaluateShedsToPlanFloor(t *testing.T) {
	a, cloud, fog := cloudFog(t)
	pool := resources.NewPool()
	for i := 0; i < 2; i++ {
		if _, err := a.grow(pool, fog); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.grow(pool, cloud); err != nil {
		t.Fatal(err)
	}

	idle := Signals{FreeCores: pool.FreeCores(), TotalCores: pool.TotalCores()}
	seen := map[string]int{}
	for i := 0; i < 40; i++ {
		act := a.Step(pool, idle)
		seen[act.Decision.Reason]++
		if len(cloud.elastic)+len(fog.elastic) == 0 {
			break
		}
	}
	if len(cloud.elastic) != 0 || len(fog.elastic) != 0 {
		t.Fatalf("fleet not fully shed: cloud=%d fog=%d (reasons %v)",
			len(cloud.elastic), len(fog.elastic), seen)
	}
	// Idle victims are cordoned and removed in the same shrink call,
	// so a fully idle fleet sheds with one "idle" decision per node.
	if seen["idle"] < 3 {
		t.Fatalf("shed cycle reasons = %v, want three idle sheds", seen)
	}
	// The first shed must have targeted the expensive tier.
	for _, d := range a.Decisions() {
		if d.Delta < 0 {
			if d.Tier != "cloud" {
				t.Fatalf("first shed hit %q, want the expensive cloud tier", d.Tier)
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
		a, _, _ := cloudFog(t)
		d := a.decide(sig(ready, resources.Constraints{Cores: 1}, 1, 2, 2))
		if d.Delta < prev {
			t.Fatalf("Ready=%d: Delta %d < previous %d", ready, d.Delta, prev)
		}
		prev = d.Delta
	}
}

// TestEvaluateDeterministic: two analyzers over identical tier state
// fed the identical Signals sequence produce identical decision
// sequences — the property the sim-vs-live parity suite stands on.
func TestEvaluateDeterministic(t *testing.T) {
	mk := func() (*Autoscaler, *resources.Pool) {
		a, _, _ := cloudFog(t)
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
// tier books and the pool stay consistent — no tier past its Max or
// with more than one node draining, no pool cores below zero, and every
// shrink is drain-then-remove (a Removed action only ever reaps a node
// with nothing running).
func TestStepNeverNegativeCapacity(t *testing.T) {
	a, _, _ := cloudFog(t)
	pool := resources.NewPool()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		s := sig(rng.Intn(40), resources.Constraints{Cores: 1}, rng.Intn(2), pool.FreeCores(), pool.TotalCores())
		act := a.Step(pool, s)
		if act.Kind == Removed && act.Node.Running() != 0 {
			t.Fatalf("step %d removed node %s with %d running tasks", i, act.Node.Name(), act.Node.Running())
		}
		for _, tr := range a.tiers {
			if len(tr.elastic) > tr.Max || len(tr.draining) > 1 {
				t.Fatalf("step %d: %s holds %d elastic, %d draining", i, tr.Name, len(tr.elastic), len(tr.draining))
			}
		}
		if pool.FreeCores() < 0 || pool.FreeCores() > pool.TotalCores() {
			t.Fatalf("step %d: pool cores inconsistent: free=%d total=%d", i, pool.FreeCores(), pool.TotalCores())
		}
	}
}

// TestNewValidation: both constructors refuse a tier that could never
// provision a useful node — no name, a duplicate name, Max below one, a
// shape without cores, a negative or undefined cost — and New refuses
// an empty tier set. A Max-0 tier would otherwise win every starved
// evaluation, grow nothing, and still count each decision as a grow.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New accepted an empty tier set")
	}
	ok := Tier{Name: "cloud", Desc: resources.CloudVM, Cost: 1, Max: 1}
	if _, err := New([]Tier{ok}); err != nil {
		t.Fatalf("New refused a valid tier: %v", err)
	}
	if _, err := New([]Tier{ok, ok}); err == nil {
		t.Fatal("New accepted duplicate tier names")
	}
	for name, edit := range map[string]func(*Tier){
		"no name":    func(t *Tier) { t.Name = "" },
		"max 0":      func(t *Tier) { t.Max = 0 },
		"max -1":     func(t *Tier) { t.Max = -1 },
		"zero cores": func(t *Tier) { t.Desc.Cores = 0 },
		"cost -1":    func(t *Tier) { t.Cost = -1 },
		"cost NaN":   func(t *Tier) { t.Cost = math.NaN() },
	} {
		bad := ok
		edit(&bad)
		if _, err := New([]Tier{bad}); err == nil {
			t.Errorf("%s: New accepted %+v", name, bad)
		}
		if _, err := NewThreshold(bad, 2, 0); err == nil {
			t.Errorf("%s: NewThreshold accepted %+v", name, bad)
		}
	}
}
