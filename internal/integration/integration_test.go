// Package integration_test exercises cross-module behaviour: the public
// programming model over the storage backends, the live runtime with
// locality scheduling, workflow execution across REST agents, and global
// invariants of the simulator (determinism, makespan bounds).
package integration_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/compss"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/storage/hecuba"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

// TestTasksPersistIntoHecuba runs a compss workflow whose tasks write
// their results into a Hecuba dict through the SOI, then verifies the
// runtime-facing SRI facts (locations, replication).
func TestTasksPersistIntoHecuba(t *testing.T) {
	cluster, err := hecuba.NewCluster([]string{"cass0", "cass1", "cass2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dict := cluster.Dict("results")

	c := compss.New(compss.WithNodes(compss.NodeSpec{Name: "w", Cores: 4}))
	defer c.Shutdown()
	if err := c.RegisterTask("computeAndPersist", func(_ context.Context, args []any) ([]any, error) {
		key, ok := args[0].(string)
		if !ok {
			return nil, errors.New("want key")
		}
		n, _ := args[1].(int)
		val, err := json.Marshal(n * n)
		if err != nil {
			return nil, err
		}
		if err := dict.Put(key, val); err != nil {
			return nil, err
		}
		return []any{key}, nil
	}); err != nil {
		t.Fatal(err)
	}

	outs := make([]*compss.Object, 20)
	for i := range outs {
		outs[i] = c.NewObject()
		if _, err := c.Call("computeAndPersist",
			compss.In(fmt.Sprintf("row%02d", i)), compss.In(i), compss.Write(outs[i])); err != nil {
			t.Fatal(err)
		}
	}
	c.Barrier()

	if dict.Len() != 20 {
		t.Fatalf("dict has %d entries, want 20", dict.Len())
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("row%02d", i)
		raw, err := dict.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got != i*i {
			t.Fatalf("%s = %d, want %d", key, got, i*i)
		}
		if locs := dict.Locations(key); len(locs) != 2 {
			t.Fatalf("%s replicated on %v, want 2 nodes", key, locs)
		}
	}
	// The data survives a single storage-node failure (replication 2).
	cluster.FailNode("cass1")
	for i := 0; i < 20; i++ {
		if _, err := dict.Get(fmt.Sprintf("row%02d", i)); err != nil {
			t.Fatalf("row%02d lost after single node failure", i)
		}
	}
}

// TestRuntimeLocalityFollowsValues wires the live runtime's value-location
// registry into the Locality policy and checks consumers co-locate with
// their producers.
func TestRuntimeLocalityFollowsValues(t *testing.T) {
	pool := resources.NewPool()
	for _, name := range []string{"alpha", "beta"} {
		_ = pool.Add(resources.NewNode(name, resources.Description{Cores: 8, MemoryMB: 8000}))
	}
	reg := transfer.NewRegistry()
	tr := trace.New(0)
	rt := core.New(core.Config{Pool: pool, Policy: sched.Locality{}, Locations: reg, Tracer: tr})
	defer rt.Shutdown()

	if err := rt.Register(core.TaskDef{Name: "produce", Fn: func(_ context.Context, _ []any) ([]any, error) {
		return []any{make([]byte, 1<<20)}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(core.TaskDef{Name: "consume", Fn: func(_ context.Context, args []any) ([]any, error) {
		raw, ok := args[0].([]byte)
		if !ok {
			return nil, errors.New("want bytes")
		}
		return []any{len(raw)}, nil
	}}); err != nil {
		t.Fatal(err)
	}

	// Sequential produce→consume pairs so the consumer schedules after
	// the producer's location is registered.
	matches := 0
	const pairs = 10
	for i := 0; i < pairs; i++ {
		h := rt.NewData()
		f, err := rt.Submit("produce", core.Write(h))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		// Give every producer's output a size so locality scoring sees it.
		v := rt.CurrentVersion(h)
		reg.SetSize(transfer.KeyOf(v), 1<<20)

		out := rt.NewData()
		f2, err := rt.Submit("consume", core.Read(h), core.Write(out))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f2.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Pair up start events: consume must run where produce ran.
	events := tr.Events()
	nodeOf := make(map[int64]string)
	var seq []int64
	for _, e := range events {
		if e.Kind == trace.TaskStarted {
			nodeOf[e.Task] = e.Node
			seq = append(seq, e.Task)
		}
	}
	if len(seq) != 2*pairs {
		t.Fatalf("started %d tasks, want %d", len(seq), 2*pairs)
	}
	for i := 0; i < len(seq); i += 2 {
		if nodeOf[seq[i]] == nodeOf[seq[i+1]] {
			matches++
		}
	}
	if matches != pairs {
		t.Fatalf("only %d/%d consumers co-located with their producers", matches, pairs)
	}
}

// TestWorkflowAcrossAgents orchestrates a dependent chain where each stage
// runs on whichever agent is least loaded, with values flowing through the
// client — the "application on the fog orchestrating agents" pattern.
func TestWorkflowAcrossAgents(t *testing.T) {
	reg := agent.NewRegistry()
	reg.Register("double", func(args []json.RawMessage) (json.RawMessage, error) {
		var x float64
		if len(args) != 1 || json.Unmarshal(args[0], &x) != nil {
			return nil, errors.New("double wants a number")
		}
		return json.Marshal(2 * x)
	})
	a1, err := agent.New(agent.Config{Name: "a1", Registry: reg, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := agent.New(agent.Config{Name: "a2", Registry: reg, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	a1.SetPeers([]string{a2.URL()})

	val := 1.0
	for step := 0; step < 8; step++ {
		arg, err := json.Marshal(val)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a1.RunAnywhere("double", []json.RawMessage{arg})
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(res, &val); err != nil {
			t.Fatal(err)
		}
	}
	if val != 256 {
		t.Fatalf("chained doubling = %v, want 256", val)
	}
}

// TestSimulatorIsDeterministic runs the same configuration twice and
// demands identical results — the property virtual time buys us.
func TestSimulatorIsDeterministic(t *testing.T) {
	run := func() infra.Result {
		pool := resources.NewPool()
		for i := 0; i < 4; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i), resources.MareNostrumNode))
		}
		cfg := workloads.GWASConfig{
			Chromosomes: 4, ImputationsPerChrom: 25, MeanTaskSeconds: 30,
			LowMemMB: 2000, HighMemMB: 8000, HighMemFrac: 0.3, InputFileMB: 20, Seed: 5,
		}
		specs, stageIn := workloads.GWAS(cfg)
		sim, err := infra.New(infra.Config{
			Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1000}),
			Policy: sched.Locality{}, StageIn: stageIn,
		}, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Makespan != r2.Makespan || r1.BytesMoved != r2.BytesMoved ||
		r1.BusyCoreSeconds != r2.BusyCoreSeconds {
		t.Fatalf("nondeterministic simulation:\n%+v\n%+v", r1, r2)
	}
}

// TestMakespanBounds checks the fundamental scheduling invariant on a
// batch of generated workflows: critical path ≤ makespan ≤ serial time.
func TestMakespanBounds(t *testing.T) {
	cases := map[string][]infra.TaskSpec{
		"mapreduce": workloads.MapReduce(12, 3, 2*time.Second, 4*time.Second, 1e6),
		"stencil":   workloads.IterativeStencil(4, 8, 3*time.Second),
		"mix":       workloads.HeterogeneousMix(40, 17),
	}
	for name, specs := range cases {
		specs := specs
		t.Run(name, func(t *testing.T) {
			// Derive the DAG exactly as the simulator will. Registration
			// order is a topological order (a producer registers before
			// its consumers), so one pass finds the longest weighted path.
			proc := deps.NewProcessor()
			finish := make(map[deps.TaskID]time.Duration, len(specs))
			var cp, serial time.Duration
			for _, s := range specs {
				var start time.Duration
				for _, d := range proc.Register(deps.TaskID(s.ID), s.Accesses).Deps {
					start = max(start, finish[d])
				}
				finish[deps.TaskID(s.ID)] = start + s.Duration
				cp = max(cp, start+s.Duration)
				serial += s.Duration
			}

			pool := resources.NewPool()
			for i := 0; i < 2; i++ {
				_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i),
					resources.Description{Cores: 8, MemoryMB: 64000, SpeedFactor: 1}))
			}
			sim, err := infra.New(infra.Config{
				Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 1e6}),
				Policy: sched.MinLoad{},
			}, specs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < cp {
				t.Fatalf("makespan %v below critical path %v", res.Makespan, cp)
			}
			if res.Makespan > serial {
				t.Fatalf("makespan %v above serial time %v", res.Makespan, serial)
			}
		})
	}
}

// TestStorageBackendsAreInterchangeable runs the same SOI code against the
// memory backend and the Hecuba cluster.
func TestStorageBackendsAreInterchangeable(t *testing.T) {
	cluster, err := hecuba.NewCluster([]string{"c0", "c1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]storage.Backend{
		"memory": storage.NewMemory("local"),
		"hecuba": cluster,
	}
	for name, backend := range backends {
		backend := backend
		t.Run(name, func(t *testing.T) {
			doc := &jsonDoc{Value: 41}
			var h storage.Handle
			if err := h.MakePersistent(backend, "obj1", doc); err != nil {
				t.Fatal(err)
			}
			doc.Value = 42
			if err := h.Sync(doc); err != nil {
				t.Fatal(err)
			}
			var back jsonDoc
			if err := h.Load(&back); err != nil {
				t.Fatal(err)
			}
			if back.Value != 42 {
				t.Fatalf("loaded %d, want 42", back.Value)
			}
			if locs := backend.Locations("obj1"); len(locs) == 0 {
				t.Fatal("getLocations returned nothing")
			}
			if err := h.DeletePersistent(); err != nil {
				t.Fatal(err)
			}
			if backend.Exists("obj1") {
				t.Fatal("object survives DeletePersistent")
			}
		})
	}
}

type jsonDoc struct {
	Value int `json:"value"`
}

func (d *jsonDoc) MarshalBinary() ([]byte, error)   { return json.Marshal(d) }
func (d *jsonDoc) UnmarshalBinary(raw []byte) error { return json.Unmarshal(raw, d) }
