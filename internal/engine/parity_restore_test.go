package engine_test

// Restore parity: restore is one implementation (internal/host), so one
// snapshot replayed on both backends must leave both in the same state —
// the same tasks resolved, the same registry, the same versions re-staged
// onto the same nodes — whether the pool is the one that snapshotted or
// one that lost a node since. The snapshot is a mid-run capture of a live
// run (it carries values and a catalog, the superset of what the
// simulator writes); nothing below knows which backend it is looking at.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

// restoreOutcome is what a backend shows right after replaying a
// snapshot, before anything runs.
type restoreOutcome struct {
	restored []int64  // checkpoint_restored events, in order
	restaged []string // data_restaged events: "<node> <info>"
	counted  [2]int   // RestoredTasks, RestagedReplicas
	state    *checkpoint.Snapshot
}

func outcomeOf(tr *trace.Tracer, restored, restaged int, state *checkpoint.Snapshot) restoreOutcome {
	o := restoreOutcome{counted: [2]int{restored, restaged}, state: state}
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.CheckpointRestored:
			o.restored = append(o.restored, ev.Task)
		case trace.DataRestaged:
			o.restaged = append(o.restaged, ev.Node+" "+ev.Info)
		}
	}
	return o
}

func restorePool(desc resources.Description, names []string) *resources.Pool {
	pool := resources.NewPool()
	for _, n := range names {
		_ = pool.Add(resources.NewNode(n, desc))
	}
	return pool
}

// submitCase bridges a conformance case onto a live runtime, one task
// class per spec, IDs 1..n in spec order (the bridge ckptSweepLive uses,
// minus its gate).
func submitCase(t *testing.T, rt *core.Runtime, c workloads.ConformanceCase) {
	t.Helper()
	handles := map[int64]*core.Handle{}
	maxData := int64(0)
	for _, spec := range c.Specs {
		for _, a := range spec.Accesses {
			maxData = max(maxData, int64(a.Data))
		}
	}
	for d := int64(1); d <= maxData; d++ { // live handle IDs coincide with the spec's data IDs
		handles[d] = rt.NewData()
	}
	for i, spec := range c.Specs {
		var params []core.Param
		for _, a := range spec.Accesses {
			p := core.Param{Handle: handles[int64(a.Data)], Dir: a.Dir}
			if a.Dir.Writes() {
				p.Size = spec.OutputBytes[a.Data]
			}
			params = append(params, p)
		}
		writes := 0
		for _, p := range params {
			if p.Dir.Writes() {
				writes++
			}
		}
		name := fmt.Sprintf("t%d", i)
		mustRegister(t, rt, core.TaskDef{Name: name, Constraints: spec.Constraints,
			Fn: func(_ context.Context, _ []any) ([]any, error) {
				out := make([]any, writes)
				for j := range out {
					out[j] = 1
				}
				return out, nil
			}})
		if _, err := rt.Submit(name, params...); err != nil {
			t.Fatalf("%s task %d: %v", c.Name, i, err)
		}
	}
}

func TestRestoreParity(t *testing.T) {
	engine.CheckRegistrySteps(t)
	var c workloads.ConformanceCase
	for _, cc := range workloads.ConformanceSuite() {
		if cc.Name == "map-reduce" { // sized outputs, a wide first stage: sole holders mid-run
			c = cc
		}
	}
	for i := range c.Specs {
		c.Specs[i].ID = int64(i + 1)
	}
	nodes := []string{"pn0", "pn1", "pn2"}
	net := func() *simnet.Network { return simnet.New(simnet.Link{BandwidthMBps: 1000}) }

	// The snapshotting run: live, a checkpoint after every completion.
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{
		Pool: restorePool(c.Node, nodes), Policy: sched.FIFO{},
		Locations: transfer.NewRegistry(), Net: net(),
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)},
	})
	submitCase(t, rt, c)
	rt.Shutdown()

	// A mid-run snapshot in which some node is the only holder of a
	// version whose value was captured: removing that node is what makes
	// the shrunk-pool restore re-stage.
	var snap *checkpoint.Snapshot
	var lost string
	for _, s := range saveStates(t, store) {
		if done := len(completedIDs(s)); done < 2 || done == len(c.Specs) {
			continue
		}
		for _, en := range s.Catalog {
			if en.HasValue && len(en.Locations) == 1 {
				snap, lost = s, en.Locations[0]
			}
		}
		if snap != nil {
			break
		}
	}
	if snap == nil {
		t.Fatal("no mid-run snapshot with a sole-holder version; the case no longer exercises re-staging")
	}
	shrunk := slices.DeleteFunc(slices.Clone(nodes), func(n string) bool { return n == lost })

	// Both backends' options for a restore onto names: a fresh pool,
	// network, registry and tracer each call.
	config := func(names []string) host.Config {
		return host.Config{
			Pool: restorePool(c.Node, names), Net: net(), Policy: sched.FIFO{},
			Locations: transfer.NewRegistry(), Restore: snap, Tracer: trace.New(0),
		}
	}
	onSim := func(t *testing.T, names []string) restoreOutcome {
		cfg := config(names)
		sim, err := infra.New(cfg, c.Specs)
		if err != nil {
			t.Fatal(err)
		}
		o := outcomeOf(cfg.Tracer, sim.RestoredTasks(), sim.RestagedReplicas(), sim.CheckpointSnapshot())
		if _, err := sim.Run(); err != nil {
			t.Fatalf("the restored simulation did not drain: %v", err)
		}
		return o
	}
	onLive := func(t *testing.T, names []string) restoreOutcome {
		cfg := config(names)
		pool := cfg.Pool
		rt := core.New(cfg)
		// Cordoned, the pool places nothing: the capture below is the
		// state right after restore, as the unstarted simulator's is.
		for _, n := range pool.Nodes() {
			n.Drain()
		}
		submitCase(t, rt, c)
		o := outcomeOf(cfg.Tracer, rt.RestoredTasks(), rt.RestagedReplicas(), rt.CheckpointSnapshot())
		for _, n := range pool.Nodes() {
			n.Undrain()
		}
		rt.Engine().RevalidateAvailability() // a wave over the reopened pool
		rt.Shutdown()                        // returns once the resumed run has drained
		return o
	}

	for _, tc := range []struct {
		name     string
		pool     []string
		restaged bool
	}{{"original pool", nodes, false}, {"one node removed", shrunk, true}} {
		t.Run(tc.name, func(t *testing.T) {
			s, l := onSim(t, tc.pool), onLive(t, tc.pool)
			if len(s.restored) == 0 || (len(s.restaged) > 0) != tc.restaged {
				t.Fatalf("restored %d tasks, re-staged %v; the drill is vacuous", len(s.restored), s.restaged)
			}
			// Submission order is snapshot order here, so even the order agrees.
			if !slices.Equal(s.restored, l.restored) {
				t.Fatalf("restored tasks: sim %v vs live %v", s.restored, l.restored)
			}
			if !slices.Equal(s.restaged, l.restaged) {
				t.Fatalf("re-staged versions and targets: sim %v vs live %v", s.restaged, l.restaged)
			}
			if s.counted != l.counted || s.counted != [2]int{len(s.restored), len(s.restaged)} {
				t.Fatalf("books: sim %v vs live %v, traced %d/%d", s.counted, l.counted, len(s.restored), len(s.restaged))
			}
			// Registry.Entries() row for row (Equivalent forgives an unknown size; nothing here is unknown to one side only).
			if len(s.state.Catalog) != len(l.state.Catalog) {
				t.Fatalf("registry rows: sim %d vs live %d", len(s.state.Catalog), len(l.state.Catalog))
			}
			for i, a := range s.state.Catalog {
				b := l.state.Catalog[i]
				if a.Key != b.Key || a.Size != b.Size || !slices.Equal(a.Locations, b.Locations) {
					t.Fatalf("registry row %d: sim %+v %d %v vs live %+v %d %v", i, a.Key, a.Size, a.Locations, b.Key, b.Size, b.Locations)
				}
			}
			if err := checkpoint.Equivalent(s.state, l.state); err != nil {
				t.Fatalf("state after restore: %v", err)
			}
		})
	}
}
