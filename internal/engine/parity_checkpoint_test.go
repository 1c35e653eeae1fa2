package engine_test

// Checkpoint parity: both backends must write equivalent snapshots for
// the same schedule, because the snapshot is just a projection of the
// shared engine's state. Each backend checkpoints after every N
// completions — the live runtime from its execute path, the simulator
// from its completion events, both at the identical post-completion,
// pre-placement instant — and the resulting snapshot sequences are
// compared pairwise. The sweep runs the conformance generators on the
// serialised single-core rig (full structural equivalence, including
// the ready/pending frontier); a second test drives the scripted
// fault-and-steal scenario and compares the durable facts (completed
// set, data catalog, deterministic counters) at every snapshot.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

// located filters a catalog to the entries that hold at least one
// replica location.
func located(entries []checkpoint.CatalogEntry) []checkpoint.CatalogEntry {
	var out []checkpoint.CatalogEntry
	for _, e := range entries {
		if len(e.Locations) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// loadAll loads every snapshot in a store, in sequence order.
func loadAll(t *testing.T, store *checkpoint.Store) []*checkpoint.Snapshot {
	t.Helper()
	var snaps []*checkpoint.Snapshot
	for _, path := range store.Snapshots() {
		snap, err := store.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// ckptSweepConfig is both backends' options for a sweep case with an
// every-N checkpoint policy: a fresh pool, registry and store each call.
// The case's stage-in is the simulator's StageIn and the live side's
// SetInitial, so each arm sets it itself.
func ckptSweepConfig(t *testing.T, c workloads.ConformanceCase, everyN int, steal engine.StealConfig, delta bool) host.Config {
	t.Helper()
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("pn0", c.Node))
	return host.Config{
		Pool:       pool,
		Net:        simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Policy:     sched.FIFO{},
		Locations:  transfer.NewRegistry(),
		Steal:      steal,
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(everyN), Delta: delta, CompactEvery: 3},
	}
}

// ckptSweepSim runs a conformance case on the simulator and returns the
// store (delta mode persists a chain, not a flat snapshot list; use
// Latest or loadAll as fits the mode).
func ckptSweepSim(t *testing.T, c workloads.ConformanceCase, everyN int, steal engine.StealConfig, delta bool) *checkpoint.Store {
	t.Helper()
	cfg := ckptSweepConfig(t, c, everyN, steal, delta)
	cfg.StageIn = c.StageIn
	specs := []infra.TaskSpec{{ID: 1, Class: "gate", Duration: time.Second}}
	for i, spec := range c.Specs {
		spec.ID = int64(i + 2)
		specs = append(specs, spec)
	}
	sim, err := infra.New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return cfg.Checkpoint.Store
}

// ckptSweepLive bridges the same case onto the live runtime (gate task
// holding the single core until the whole workflow is queued) with the
// identical options, staging the case's data in through SetInitial.
func ckptSweepLive(t *testing.T, c workloads.ConformanceCase, everyN int, steal engine.StealConfig, delta bool) *checkpoint.Store {
	t.Helper()
	cfg := ckptSweepConfig(t, c, everyN, steal, delta)
	rt := core.New(cfg)
	defer rt.Shutdown()

	release := make(chan struct{})
	mustRegister(t, rt, core.TaskDef{Name: "gate", Fn: func(_ context.Context, _ []any) ([]any, error) {
		<-release
		return nil, nil
	}})
	for i, spec := range c.Specs {
		writes := 0
		for _, a := range spec.Accesses {
			if a.Dir.Writes() {
				writes++
			}
		}
		n := writes
		mustRegister(t, rt, core.TaskDef{
			Name: fmt.Sprintf("t%d", i),
			Fn: func(_ context.Context, _ []any) ([]any, error) {
				out := make([]any, n)
				for j := range out {
					out[j] = 1
				}
				return out, nil
			},
			Constraints: spec.Constraints,
		})
	}
	if _, err := rt.Submit("gate"); err != nil {
		t.Fatal(err)
	}
	handles := map[int64]*core.Handle{}
	h := func(d int64) *core.Handle {
		if handles[d] == nil {
			handles[d] = rt.NewData()
		}
		return handles[d]
	}
	// Pre-create handles in ascending data-ID order so live handle IDs
	// coincide with the spec's data IDs (generators number data 1..n) —
	// snapshot catalogs are compared key-for-key across backends.
	maxData := int64(0)
	for d := range c.StageIn {
		if int64(d) > maxData {
			maxData = int64(d)
		}
	}
	for _, spec := range c.Specs {
		for _, a := range spec.Accesses {
			if int64(a.Data) > maxData {
				maxData = int64(a.Data)
			}
		}
	}
	for d := int64(1); d <= maxData; d++ {
		h(d)
	}
	for d, size := range c.StageIn {
		rt.SetInitial(h(int64(d)), size, core.WithSize(size))
	}
	for i, spec := range c.Specs {
		params := make([]core.Param, 0, len(spec.Accesses))
		for _, a := range spec.Accesses {
			p := core.Param{Handle: h(int64(a.Data)), Dir: a.Dir}
			if a.Dir.Writes() {
				p.Size = spec.OutputBytes[a.Data]
			}
			params = append(params, p)
		}
		if _, err := rt.Submit(fmt.Sprintf("t%d", i), params...); err != nil {
			t.Fatalf("%s task %d: %v", c.Name, i, err)
		}
	}
	close(release)
	rt.Barrier()
	return cfg.Checkpoint.Store
}

// TestCheckpointParitySweep: full structural snapshot equivalence —
// completed set, ready/running/pending frontier, data catalog and
// deterministic counters — at every every-2-completions checkpoint,
// across every conformance generator, with work stealing armed (the
// FIFO policy never declines, so the knob must be a no-op in the books).
func TestCheckpointParitySweep(t *testing.T) {
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			simSnaps := loadAll(t, ckptSweepSim(t, c, 2, steal, false))
			liveSnaps := loadAll(t, ckptSweepLive(t, c, 2, steal, false))
			if len(simSnaps) == 0 {
				t.Fatal("simulator persisted no snapshots")
			}
			if len(simSnaps) != len(liveSnaps) {
				t.Fatalf("snapshot counts diverge: sim %d vs live %d", len(simSnaps), len(liveSnaps))
			}
			for i := range simSnaps {
				if err := checkpoint.Equivalent(simSnaps[i], liveSnaps[i]); err != nil {
					t.Fatalf("snapshot %d not equivalent: %v", i+1, err)
				}
			}
		})
	}
}

// TestCheckpointParityWithFaultsAndSteal: the scripted slow/cut/crash
// scenario of the fault-parity suite, re-run with work stealing on and a
// checkpoint after every completion. The scheduling frontier legitimately
// differs mid-script (the live side submits incrementally), so each
// snapshot pair is compared on its durable facts: the completed set with
// its outputs, the full data catalog, and the deterministic counters.
func TestCheckpointParityWithFaultsAndSteal(t *testing.T) {
	simStore, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	liveStore, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	runFaultScriptSim(t, faultScriptConfig(steal, &checkpoint.Config{Store: simStore, Policy: checkpoint.EveryN(1)}))
	runFaultScriptLive(t, faultScriptConfig(steal, &checkpoint.Config{Store: liveStore, Policy: checkpoint.EveryN(1)}))

	simSnaps := loadAll(t, simStore)
	liveSnaps := loadAll(t, liveStore)
	if len(simSnaps) == 0 {
		t.Fatal("simulator persisted no snapshots")
	}
	if len(simSnaps) != len(liveSnaps) {
		t.Fatalf("snapshot counts diverge: sim %d vs live %d", len(simSnaps), len(liveSnaps))
	}
	for i := range simSnaps {
		a, b := simSnaps[i], liveSnaps[i]
		if len(a.Completed) != len(b.Completed) {
			t.Fatalf("snapshot %d: completed %d vs %d", i+1, len(a.Completed), len(b.Completed))
		}
		for j := range a.Completed {
			if a.Completed[j].ID != b.Completed[j].ID {
				t.Fatalf("snapshot %d: completed[%d] task %d vs %d",
					i+1, j, a.Completed[j].ID, b.Completed[j].ID)
			}
		}
		// The live side declares output sizes lazily (at submission), so
		// compare only materialised entries — versions that actually hold
		// a replica somewhere; declared-but-unproduced data is not yet a
		// durable fact.
		ma, mb := located(a.Catalog), located(b.Catalog)
		if len(ma) != len(mb) {
			t.Fatalf("snapshot %d: %d vs %d materialised catalog entries", i+1, len(ma), len(mb))
		}
		for j := range ma {
			ca, cb := ma[j], mb[j]
			if ca.Key != cb.Key || ca.Size != cb.Size {
				t.Fatalf("snapshot %d catalog[%d]: %+v/%d vs %+v/%d",
					i+1, j, ca.Key, ca.Size, cb.Key, cb.Size)
			}
			if fmt.Sprint(ca.Locations) != fmt.Sprint(cb.Locations) {
				t.Fatalf("snapshot %d catalog %+v: locations %v vs %v",
					i+1, ca.Key, ca.Locations, cb.Locations)
			}
		}
		sa, sb := a.Stats, b.Stats
		if sa.Launched != sb.Launched || sa.Completed != sb.Completed ||
			sa.Reexecuted != sb.Reexecuted || sa.Steals != sb.Steals ||
			sa.Transfers != sb.Transfers || sa.BytesMoved != sb.BytesMoved {
			t.Fatalf("snapshot %d stats diverge: sim %+v vs live %+v", i+1, sa, sb)
		}
	}
	// The final snapshot seals the whole scripted run: every task done.
	last := simSnaps[len(simSnaps)-1]
	if len(last.Completed) != 4 {
		t.Fatalf("final snapshot records %d completed tasks, want 4", len(last.Completed))
	}
}
