// E16 — what the cost-aware autoscaler saves. The multi-tier planner
// (internal/autoscale) is priced against the cost-blind single-tier
// threshold planner on the generator's bursty and diurnal arrival
// shapes. Both arms replay the identical seeded trace through
// internal/infra on the virtual clock, so the scaling policy is the only
// varied dimension and the figures are byte-deterministic. Cost is
// reconstructed from the run's node trace (node_added / node_removed)
// priced at each tier's rate, plus the static base pool for the whole
// makespan; the headline is cost per 1000 completed tasks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	wtrace "repro/internal/workloads/trace"
)

// Tier prices in cost units per node-hour. The base pool is one
// always-on edge sensor — the paper's continuum story: a device that is
// simply there, with elastic fog and cloud behind it — priced identically
// in both arms, so it cancels out of the comparison.
const (
	e16CloudRate = 1.0
	e16FogRate   = 0.25
	e16EdgeRate  = 0.05

	// e16Every is the scaling evaluation period on the virtual clock.
	e16Every = 10 * time.Second
)

// e16Arm is one policy's run: completions, makespan, and the priced
// node-hours it consumed.
type e16Arm struct {
	completed int
	makespan  time.Duration
	// cost prices the run: elastic node spans from the node trace at
	// their tier rates, plus the base pool for the whole makespan.
	cost                 float64
	peak, added, removed int
}

// e16AutoscaleCost runs the two-arm comparison on the bursty and diurnal
// shapes: the cost-blind threshold baseline, which grows and shrinks the
// cloud tier only, against the multi-tier planner over cloud and fog.
// Each pair cell reads "threshold / cost-aware"; the headline is cost
// units per 1000 completed tasks. 250 tasks per shape is the regime
// where the tier decision is non-trivial: demand of a few reference
// cores, where a fog fleet can undercut a cloud VM on the baseline and
// the bursts still need real elastic response. At much higher counts
// sustained demand exceeds the fog break-even and the cost-optimal
// policy degenerates to "hold one big VM" — which the threshold baseline
// already does by accident.
func e16AutoscaleCost(tasks int, seed int64) (*Table, error) {
	t := newTable("shape", "tasks", "threshold", "cost-aware", "cheaper", "peak nodes",
		"completed", "nodes added", "nodes removed", "makespan", "cost units")
	for _, shape := range []string{wtrace.ShapePoissonBurst, wtrace.ShapeDiurnal} {
		gen := wtrace.DefaultGen(shape)
		gen.Tasks = tasks
		gen.Seed = seed
		tr, err := wtrace.Generate(gen)
		if err != nil {
			return nil, err
		}
		// The baseline scales the cloud tier only: same growth threshold,
		// shrink once a whole VM's worth of cores idles.
		cloud := autoscale.Tier{Name: "cloud", Desc: resources.CloudVM, Cost: e16CloudRate, Delay: 30 * time.Second, Max: 8}
		baseline, err := autoscale.NewThreshold(cloud, 2, 8)
		if err != nil {
			return nil, err
		}
		threshold, err := e16Run(tr, baseline)
		if err != nil {
			return nil, fmt.Errorf("%s threshold arm: %w", shape, err)
		}
		planner, err := autoscale.New([]autoscale.Tier{
			cloud,
			{Name: "fog", Desc: resources.FogDevice, Cost: e16FogRate, Delay: 5 * time.Second, Max: 16},
		})
		if err != nil {
			return nil, err
		}
		costAware, err := e16Run(tr, planner)
		if err != nil {
			return nil, fmt.Errorf("%s cost-aware arm: %w", shape, err)
		}
		per1k := func(a e16Arm) float64 {
			if a.completed == 0 {
				return 0
			}
			return a.cost * 1000 / float64(a.completed)
		}
		th, ca := threshold, costAware
		t.add(text(shape), num("%d", len(tr.Tasks)), num("%.2f", per1k(th)), num("%.2f", per1k(ca)),
			num("%.2fx", per1k(th)/per1k(ca)), num("%d / %d", th.peak, ca.peak),
			num("%d / %d", th.completed, ca.completed), num("%d / %d", th.added, ca.added),
			num("%d / %d", th.removed, ca.removed), dur(time.Second, th.makespan, ca.makespan),
			num("%.3f / %.3f", th.cost, ca.cost))
	}
	return t, nil
}

// e16Run replays one trace under one scaling policy over a one-sensor
// base pool and prices the run from its node trace.
func e16Run(tr *wtrace.Trace, scaler *autoscale.Autoscaler) (e16Arm, error) {
	pool := resources.NewPool()
	if err := pool.Add(resources.NewNode("base-0", resources.EdgeSensor)); err != nil {
		return e16Arm{}, err
	}
	tracer := trace.New(0)
	res, err := mustRun(infra.Config{
		Pool:         pool,
		Net:          simnet.New(simnet.Link{BandwidthMBps: 1000, Latency: 100 * time.Microsecond}),
		Policy:       sched.MinLoad{},
		Tracer:       tracer,
		Autoscale:    scaler,
		ElasticEvery: e16Every,
	}, tr.Specs())
	if err != nil {
		return e16Arm{}, err
	}
	arm := e16Arm{completed: res.TasksCompleted, makespan: res.Makespan, peak: res.PeakNodes}
	arm.cost = e16EdgeRate*res.Makespan.Hours() + e16PriceNodes(tracer, res.Makespan, &arm)
	return arm, nil
}

// e16PriceNodes integrates elastic node lifetimes from the run's
// node_added/node_removed events, priced by the tier encoded in the
// node-name prefix (a tier names its nodes "tier-N"). Nodes still in
// the pool when the run ends are billed to the makespan.
func e16PriceNodes(tracer *trace.Tracer, makespan time.Duration, arm *e16Arm) float64 {
	added := map[string]time.Duration{}
	cost := 0.0
	for _, e := range tracer.Events() {
		switch e.Kind {
		case trace.NodeAdded:
			added[e.Node] = e.At
			arm.added++
		case trace.NodeRemoved:
			at, ok := added[e.Node]
			if !ok {
				continue // base pool node: not elastic
			}
			cost += e16TierRate(e.Node) * (e.At - at).Hours()
			delete(added, e.Node)
			arm.removed++
		}
	}
	// Summed in name order so the float total is the same run to run.
	live := make([]string, 0, len(added))
	for node := range added {
		live = append(live, node)
	}
	sort.Strings(live)
	for _, node := range live {
		cost += e16TierRate(node) * (makespan - added[node]).Hours()
	}
	return cost
}

// e16TierRate maps a provisioned node's name prefix to its tier price.
func e16TierRate(node string) float64 {
	if strings.HasPrefix(node, "fog-") {
		return e16FogRate
	}
	return e16CloudRate
}
