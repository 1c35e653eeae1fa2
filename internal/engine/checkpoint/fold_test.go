package checkpoint_test

// The writer's compacting bases are folds of the captured deltas, not
// captures: these tests pin that a fold is the capture it replaces, byte
// for byte, and that the writer behind the queue neither loses a save nor
// outlives its run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

// probeBases captures, side-effect-free, the state at every queued
// snapshot save — the instant the writer's base describes — keyed by the
// sequence number the store gives that save.
func probeBases(t *testing.T, capture func() *checkpoint.Snapshot) map[int]*checkpoint.Snapshot {
	t.Helper()
	probes := map[int]*checkpoint.Snapshot{}
	t.Cleanup(checkpoint.SetBaseQueued(func(seq int) { probes[seq] = capture() }))
	return probes
}

// sameBases fails unless every snapshot file in the store is the bytes
// its probe encodes to under the file's sequence number, and returns how
// many of them came after the first base (compactions and full saves).
// wall says the backend's clock is the wall's: no two captures share an
// instant there, so the probe takes the file's capture time first.
func sameBases(t *testing.T, store *checkpoint.Store, probes map[int]*checkpoint.Snapshot, wall bool) (folded int) {
	t.Helper()
	first := true
	for _, path := range store.Snapshots() {
		name := filepath.Base(path)
		if !strings.HasPrefix(name, "snap-") {
			continue
		}
		seq, err := strconv.Atoi(strings.Split(name, "-")[1])
		if err != nil {
			t.Fatal(err)
		}
		probe := probes[seq]
		if probe == nil {
			t.Fatalf("%s: no capture probed at its queueing", name)
		}
		if wall {
			snap, err := store.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			probe.At = snap.At
		}
		want, err := checkpoint.EncodeSnapshot(probe, seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			snap, _ := store.Load(path)
			t.Fatalf("%s is not the capture of its instant (equivalence: %v)", name, checkpoint.Equivalent(snap, probe))
		}
		if !first {
			folded++
		}
		first = false
	}
	return folded
}

// everyOne is the sweep's cadence: a save after every completion, so
// every case longer than one chain folds a base.
func everyOne(store *checkpoint.Store) *checkpoint.Config {
	return &checkpoint.Config{Store: store, Policy: checkpoint.EveryN(1)}
}

func newStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.NewStore(t.TempDir(), checkpoint.Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func onePool(desc resources.Description) *resources.Pool {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("pn0", desc))
	return pool
}

// foldSim runs a conformance case on the simulator behind a gate task,
// as the checkpoint parity sweep does.
func foldSim(t *testing.T, c workloads.ConformanceCase) (folded int) {
	store := newStore(t)
	specs := []infra.TaskSpec{{ID: 1, Class: "gate", Duration: time.Second}}
	for i, spec := range c.Specs {
		spec.ID = int64(i + 2)
		specs = append(specs, spec)
	}
	sim, err := infra.New(infra.Config{
		Pool: onePool(c.Node), Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Policy: sched.FIFO{},
		StageIn: c.StageIn, Checkpoint: everyOne(store),
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeBases(t, func() *checkpoint.Snapshot { return sim.CheckpointSnapshot() })
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sameBases(t, store, probes, false)
}

// foldLive runs the same case on the live runtime: a gate task holds the
// single core until the whole workflow is queued, every task writes the
// value 1 to each output, so the catalog carries encoded values.
func foldLive(t *testing.T, c workloads.ConformanceCase) (folded int) {
	store := newStore(t)
	rt := core.New(core.Config{
		Pool: onePool(c.Node), Policy: sched.FIFO{}, Locations: transfer.NewRegistry(),
		Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Checkpoint: everyOne(store),
	})
	defer rt.Shutdown()
	probes := probeBases(t, func() *checkpoint.Snapshot { return rt.CheckpointSnapshot() })
	release := make(chan struct{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.Register(core.TaskDef{Name: "gate", Fn: func(context.Context, []any) ([]any, error) {
		<-release
		return nil, nil
	}}))
	_, err := rt.Submit("gate")
	must(err)
	handles := map[deps.DataID]*core.Handle{}
	handle := func(d deps.DataID) *core.Handle {
		if handles[d] == nil {
			handles[d] = rt.NewData()
		}
		return handles[d]
	}
	for i, spec := range c.Specs {
		var params []core.Param
		for _, a := range spec.Accesses {
			p := core.Param{Handle: handle(a.Data), Dir: a.Dir}
			if a.Dir.Writes() {
				p.Size = spec.OutputBytes[a.Data]
			}
			params = append(params, p)
		}
		name := fmt.Sprintf("t%d", i)
		must(rt.Register(core.TaskDef{Name: name, Constraints: spec.Constraints, Fn: func(_ context.Context, _ []any) ([]any, error) {
			var out []any
			for _, p := range params {
				if p.Dir.Writes() {
					out = append(out, 1)
				}
			}
			return out, nil
		}}))
		_, err := rt.Submit(name, params...)
		must(err)
	}
	close(release)
	rt.Barrier()
	return sameBases(t, store, probes, true)
}

// TestFoldedBaseIsTheCapturedBase: every base the writer writes — the
// first, captured, and every compaction, folded from the deltas since —
// is byte-identical to a side-effect-free Capture taken at the instant
// its save was queued and encoded under the same sequence number. It runs
// every conformance case on both backends (the live arm with encoded
// values) and a 1024×12 stencil on the simulator with interval deltas, so
// the fold sees multi-node holder lists and thousands of rows per chain.
// A mismatch means a change since the last capture left no record in the
// log.
func TestFoldedBaseIsTheCapturedBase(t *testing.T) {
	folded := 0
	for _, c := range workloads.ConformanceSuite() {
		t.Run(c.Name+"/sim", func(t *testing.T) { folded += foldSim(t, c) })
		t.Run(c.Name+"/live", func(t *testing.T) { folded += foldLive(t, c) })
	}
	t.Run("stencil-1024x12", func(t *testing.T) {
		store := newStore(t)
		pool := resources.NewPool()
		for i := 0; i < 4; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i), resources.Description{Cores: 16, MemoryMB: 64_000, SpeedFactor: 1}))
		}
		specs := workloads.IterativeStencil(12, 1024, time.Second)
		sim, err := infra.New(infra.Config{
			Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Policy: sched.Locality{},
			Checkpoint: &checkpoint.Config{Store: store, Policy: checkpoint.Interval(20 * time.Second)},
		}, specs)
		if err != nil {
			t.Fatal(err)
		}
		probes := probeBases(t, func() *checkpoint.Snapshot { return sim.CheckpointSnapshot() })
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		n := sameBases(t, store, probes, false)
		if n < 2 {
			t.Fatalf("%d folded bases, want several", n)
		}
		folded += n
	})
	if folded == 0 {
		t.Fatal("no base was folded: the sweep never compacted")
	}
}

// stencilSim builds a 256×12 stencil on four nodes with interval delta
// checkpoints every 10 virtual seconds into store.
func stencilSim(t *testing.T, store *checkpoint.Store, cfg infra.Config) *infra.Sim {
	t.Helper()
	cfg.Pool = resources.NewPool()
	for i := 0; i < 4; i++ {
		_ = cfg.Pool.Add(resources.NewNode(fmt.Sprintf("n%d", i), resources.Description{Cores: 8, MemoryMB: 64_000, SpeedFactor: 1}))
	}
	cfg.Net = simnet.New(simnet.Link{BandwidthMBps: 1000})
	cfg.Policy = sched.Locality{}
	cfg.Checkpoint = &checkpoint.Config{Store: store, Policy: checkpoint.Interval(10 * time.Second), Metrics: cfg.Checkpoint.Metrics}
	sim, err := infra.New(cfg, workloads.IterativeStencil(12, 256, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestCheckpointWriterDrains: whoever reads the store after Run sees every
// save the run queued, the writer goroutine is gone, and a writer whose
// directory vanished mid-run fails its saves without holding Run up —
// and Run reports the failure.
func TestCheckpointWriterDrains(t *testing.T) {
	t.Run("halted", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		store := newStore(t)
		met := obsv.NewCkptMetrics(obsv.NewRegistry())
		sim := stencilSim(t, store, infra.Config{HaltAt: 60 * time.Second, Checkpoint: &checkpoint.Config{Metrics: met}})
		if _, err := sim.Run(); !errors.Is(err, infra.ErrHalted) {
			t.Fatalf("Run: %v, want ErrHalted", err)
		}
		saves := int(met.Saves.Value())
		if bases := saves - int(met.DeltaSaves.Value()); saves < 4 || len(store.Snapshots()) != bases {
			t.Fatalf("%d saves counted, %d of them bases; %d bases on disk right after Run", saves, bases, len(store.Snapshots()))
		}
		snap, err := store.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq != saves {
			t.Fatalf("Latest reads seq %d after Run, but the run saved %d", snap.Seq, saves)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Run, %d before: the writer outlived its queue", runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("directory gone", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		store, err := checkpoint.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		met := obsv.NewCkptMetrics(obsv.NewRegistry())
		sim := stencilSim(t, store, infra.Config{Checkpoint: &checkpoint.Config{Metrics: met}})
		gone := false
		sim.Every(45*time.Second, func() bool {
			if !gone { // a file where the directory was: every later write fails
				gone = true
				if err := os.Rename(dir, dir+".old"); err != nil { // atomic, whatever the writer is doing
					t.Error(err)
				}
				if err := os.WriteFile(dir, nil, 0o644); err != nil {
					t.Error(err)
				}
			}
			return false
		})
		_, err = sim.Run()
		var errno syscall.Errno // the operating system's refusal, whichever call met it
		if !errors.As(err, &errno) {
			t.Fatalf("Run: %v, want the failed write's error", err)
		}
		if met.Saves.Value() == 0 {
			t.Fatal("no save landed before the directory went")
		}
	})
}

// TestCheckpointTraceDeterministic: the CheckpointSaved events are
// recorded where the saves are queued, at the capture's instant, naming
// the save by kind and sequence number — so two identical runs trace
// identically, whenever the writer gets to each save.
func TestCheckpointTraceDeterministic(t *testing.T) {
	run := func() []trace.Event {
		tr := trace.New(0)
		sim := stencilSim(t, newStore(t), infra.Config{Tracer: tr, Checkpoint: &checkpoint.Config{}})
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.Events()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs traced differently")
	}
	var names []string
	for _, e := range a {
		if e.Kind == trace.CheckpointSaved {
			names = append(names, e.Info)
		}
	}
	if len(names) < 10 || names[0] != "snap-000001" || names[1] != "frame-000002" || names[8] != "frame-000009" || names[9] != "snap-000010" {
		t.Fatalf("checkpoint events %v, want snap-000001, frame-000002..9, snap-000010 (compacted), ...", names)
	}
}
