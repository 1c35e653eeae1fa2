package autoscale

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/resources"
)

// TestElasticChurnProperty drives 2500 seeded random steps of the full
// elasticity surface — grow, shrink (drain-then-remove), reclaim — while
// random load reserves and releases cores across the pool, and checks
// the safety invariants after every step:
//
//   - counts never go negative and never exceed the tier's Max;
//   - at most one node drains at a time (a shrink burst cannot cordon
//     the whole pool before the first removal lands);
//   - a removed node is always bled dry (no running work was killed)
//     and is really gone from the pool;
//   - a reclaimed node has its cordon lifted and is placeable again
//     while load persists elsewhere — growth under pressure reuses the
//     draining node instead of paying for a fresh one;
//   - pool capacity stays consistent with the member nodes.
func TestElasticChurnProperty(t *testing.T) {
	const (
		steps    = 2500
		maxNodes = 12
	)
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			pool := resources.NewPool()
			base := resources.NewNode("base-0", resources.CloudVM)
			if err := pool.Add(base); err != nil {
				t.Fatal(err)
			}
			a, fog := oneTier(t, Tier{Name: "fog", Desc: resources.FogDevice, Max: maxNodes})

			// Outstanding unit reservations per node name (the node may
			// have left the pool; its reservations must have been zero
			// at removal, so only live nodes appear here).
			load := map[string][]*resources.Node{}
			hold := resources.Constraints{Cores: 1}

			for step := 0; step < steps; step++ {
				switch rng.Intn(6) {
				case 0: // grow
					if _, err := a.grow(pool, fog); err == nil && pool.Len() > maxNodes+1 {
						t.Fatalf("step %d: pool grew past the tier's Max: %d nodes", step, pool.Len())
					}
				case 1: // shrink: cordon or reap
					victim, err := a.shrink(pool, fog)
					if err != nil {
						t.Fatalf("step %d: shrink: %v", step, err)
					}
					if victim != nil {
						if victim.Running() != 0 {
							t.Fatalf("step %d: removed %s with %d running tasks", step, victim.Name(), victim.Running())
						}
						if _, still := pool.Get(victim.Name()); still {
							t.Fatalf("step %d: removed %s still in pool", step, victim.Name())
						}
						if len(load[victim.Name()]) != 0 {
							t.Fatalf("step %d: removed %s with %d live reservations", step, victim.Name(), len(load[victim.Name()]))
						}
					}
				case 2: // reclaim a draining victim back into service
					if n := fog.reclaim(); n != nil {
						if n.Drained() {
							t.Fatalf("step %d: reclaimed %s still cordoned", step, n.Name())
						}
						if _, ok := pool.Get(n.Name()); !ok {
							t.Fatalf("step %d: reclaimed %s not in pool", step, n.Name())
						}
						if n.Running() == 0 && !n.CanReserve(hold) {
							t.Fatalf("step %d: reclaimed idle %s refuses placements", step, n.Name())
						}
					}
				case 3, 4: // place load on a random placeable node
					nodes := pool.Nodes()
					n := nodes[rng.Intn(len(nodes))]
					if n.CanReserve(hold) {
						if err := n.Reserve(hold); err != nil {
							t.Fatalf("step %d: CanReserve lied for %s: %v", step, n.Name(), err)
						}
						load[n.Name()] = append(load[n.Name()], n)
					}
				case 5: // finish some running work
					for name, ns := range load {
						if len(ns) == 0 {
							delete(load, name)
							continue
						}
						ns[len(ns)-1].Release(hold)
						load[name] = ns[:len(ns)-1]
						break
					}
				}

				// Invariants, every step.
				ec, dc, bled := len(fog.elastic), len(fog.draining), fog.drained()
				if ec < 0 || ec > maxNodes {
					t.Fatalf("step %d: %d elastic nodes", step, ec)
				}
				if dc < 0 || dc > 1 {
					t.Fatalf("step %d: %d draining, want 0 or 1 (one drain at a time)", step, dc)
				}
				if bled < 0 || bled > dc {
					t.Fatalf("step %d: %d drained with %d draining", step, bled, dc)
				}
				if pool.Len() != ec+1 {
					t.Fatalf("step %d: pool has %d nodes, the tier tracks %d elastic + base", step, pool.Len(), ec)
				}
				total, free := pool.TotalCores(), pool.FreeCores()
				if free < 0 || free > total {
					t.Fatalf("step %d: cores inconsistent: free %d of %d", step, free, total)
				}
				wantTotal := base.Desc().Cores + ec*resources.FogDevice.Cores
				if total != wantTotal {
					t.Fatalf("step %d: TotalCores = %d, want %d", step, total, wantTotal)
				}
			}

			// Drain the churn to a clean end state: finish all work, then
			// shrink until the elastic fleet is gone — the books must
			// balance exactly.
			for _, ns := range load {
				for _, n := range ns {
					n.Release(hold)
				}
			}
			for i := 0; i < 4*maxNodes && len(fog.elastic) > 0; i++ {
				if _, err := a.shrink(pool, fog); err != nil {
					t.Fatal(err)
				}
			}
			if len(fog.elastic) != 0 || len(fog.draining) != 0 {
				t.Fatalf("fleet not fully shed: %d elastic, %d draining", len(fog.elastic), len(fog.draining))
			}
			if pool.Len() != 1 || pool.TotalCores() != base.Desc().Cores {
				t.Fatalf("pool not back to base: %d nodes, %d cores", pool.Len(), pool.TotalCores())
			}
		})
	}
}
