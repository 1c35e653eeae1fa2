package engine_test

// Checkpoint parity: both backends must write equivalent snapshots for
// the same schedule, because the snapshot is just a projection of the
// shared engine's state. Each backend checkpoints after every N
// completions — the live runtime from its execute path, the simulator
// from its completion events, both at the identical post-completion,
// pre-placement instant — and the states on disk after each save (the
// chain up to it, reconstructed) are compared pairwise. The sweep runs
// the conformance generators on the serialised single-core rig (full
// structural equivalence, including the ready/pending frontier); a
// second test drives the scripted fault-and-steal scenario and compares
// the durable facts (completed set, data catalog, deterministic
// counters) at every save.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// saveStates returns the state each save in a store left on disk, in
// sequence order: for every save, what Store.Latest reconstructs from the
// directory as it stood right after that save was written — its base and
// the frames of the base's log up to it.
func saveStates(t *testing.T, store *checkpoint.Store) []*checkpoint.Snapshot {
	t.Helper()
	var states []*checkpoint.Snapshot
	for _, base := range store.Snapshots() {
		data, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(logOf(base))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		seq, _ := strconv.Atoi(strings.Split(filepath.Base(base), "-")[1])
		for k, end := range append([]int{0}, frameEnds(t, logOf(base))...) {
			prefix, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(prefix.Dir(), filepath.Base(base)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(prefix.Dir(), filepath.Base(logOf(base))), log[:end], 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := prefix.Latest()
			if err != nil {
				t.Fatalf("%s and %d frames of its log: %v", filepath.Base(base), k, err)
			}
			if snap.Seq != seq+k {
				t.Fatalf("%s and %d frames of its log reconstruct only to seq %d", filepath.Base(base), k, snap.Seq)
			}
			states = append(states, snap)
		}
	}
	return states
}

// ckptSweepConfig is both backends' options for a sweep case with an
// every-N checkpoint policy: a fresh pool, registry and store each call.
// The case's stage-in is the simulator's StageIn and the live side's
// SetInitial, so each arm sets it itself.
func ckptSweepConfig(t *testing.T, c workloads.ConformanceCase, everyN int, steal engine.StealConfig) host.Config {
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
		Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(everyN)},
	}
}

// ckptSweepSim runs a conformance case on the simulator and returns the
// store and the state the run drained to, probed without touching the
// dirty sets.
func ckptSweepSim(t *testing.T, c workloads.ConformanceCase, everyN int, steal engine.StealConfig) (*checkpoint.Store, *checkpoint.Snapshot) {
	t.Helper()
	cfg := ckptSweepConfig(t, c, everyN, steal)
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
	return cfg.Checkpoint.Store, sim.CheckpointSnapshot()
}

// ckptSweepLive bridges the same case onto the live runtime (gate task
// holding the single core until the whole workflow is queued) with the
// identical options, staging the case's data in through SetInitial.
func ckptSweepLive(t *testing.T, c workloads.ConformanceCase, everyN int, steal engine.StealConfig) *checkpoint.Store {
	t.Helper()
	cfg := ckptSweepConfig(t, c, everyN, steal)
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
// deterministic counters — of the state on disk after every
// every-2-completions save, across every conformance generator, with
// work stealing armed (the FIFO policy never declines, so the knob must
// be a no-op in the books).
func TestCheckpointParitySweep(t *testing.T) {
	engine.CheckLogSteps(t)
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			simStore, _ := ckptSweepSim(t, c, 2, steal)
			simSnaps := saveStates(t, simStore)
			liveSnaps := saveStates(t, ckptSweepLive(t, c, 2, steal))
			if len(simSnaps) == 0 {
				t.Fatal("simulator persisted no snapshots")
			}
			if len(simSnaps) != len(liveSnaps) {
				t.Fatalf("save counts diverge: sim %d vs live %d", len(simSnaps), len(liveSnaps))
			}
			for i := range simSnaps {
				if err := checkpoint.Equivalent(simSnaps[i], liveSnaps[i]); err != nil {
					t.Fatalf("save %d not equivalent: %v", i+1, err)
				}
			}
		})
	}
}

// TestCheckpointParityWithFaultsAndSteal: the scripted slow/cut/crash
// scenario of the fault-parity suite, re-run with work stealing on and a
// checkpoint after every completion. The scheduling frontier legitimately
// differs mid-script (the live side submits incrementally), so the
// states after each save are compared on their durable facts: the completed set with
// its outputs, the full data catalog, and the deterministic counters.
func TestCheckpointParityWithFaultsAndSteal(t *testing.T) {
	engine.CheckLogSteps(t)
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

	simSnaps := saveStates(t, simStore)
	liveSnaps := saveStates(t, liveStore)
	if len(simSnaps) == 0 {
		t.Fatal("simulator persisted no snapshots")
	}
	if len(simSnaps) != len(liveSnaps) {
		t.Fatalf("snapshot counts diverge: sim %d vs live %d", len(simSnaps), len(liveSnaps))
	}
	for i := range simSnaps {
		a, b := simSnaps[i], liveSnaps[i]
		if da, db := completedIDs(a), completedIDs(b); !slices.Equal(da, db) {
			t.Fatalf("snapshot %d: completed %v vs %v", i+1, da, db)
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
	if done := completedIDs(last); len(done) != 4 {
		t.Fatalf("final snapshot records %d completed tasks, want 4", len(done))
	}
}

// TestCheckpointLogRecordsParking: the availability drill under defer —
// a reader parked behind a cut until the heal — with a checkpoint after
// every completion on both backends, under the log's step check, so the
// log is held to a Ready→Parked→Ready round trip the sweeps above never
// make. Both backends' last saves reconstruct the same state.
func TestCheckpointLogRecordsParking(t *testing.T) {
	engine.CheckLogSteps(t)
	var snaps []*checkpoint.Snapshot
	for _, run := range []func(*testing.T, host.Config, bool) availOutcome{runAvailSim, runAvailLive} {
		store, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
		if err != nil {
			t.Fatal(err)
		}
		cfg := availConfig(engine.AvailDefer)
		cfg.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)}
		if st := run(t, cfg, true).stats; st.Deferred != 1 || st.Woken != 1 {
			t.Fatalf("deferred/woken = %d/%d, want 1/1: the drill no longer parks a task", st.Deferred, st.Woken)
		}
		snap, err := store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if err := checkpoint.Equivalent(snaps[0], snaps[1]); err != nil {
		t.Fatalf("sim and live last saves differ: %v", err)
	}
}

// completedIDs lists the tasks a snapshot records as completed, in
// registration order: the ones a restore resolves.
func completedIDs(s *checkpoint.Snapshot) []int64 {
	var ids []int64
	for _, t := range s.Tasks {
		if t.Restorable() {
			ids = append(ids, t.ID)
		}
	}
	return ids
}
