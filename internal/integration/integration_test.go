// Package integration_test exercises cross-module behaviour: the live
// runtime with locality scheduling, workflow execution across REST agents, and global
// invariants of the simulator (determinism, makespan bounds).
package integration_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transfer"
	"repro/internal/workloads"
)

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
