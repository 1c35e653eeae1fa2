package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/compss"
	"repro/dislib"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/storage/dataclay"
	"repro/internal/workloads"
)

// --- E5: dataClay method shipping ----------------------------------------

// E5Result compares in-store execution against fetch-then-compute.
type E5Result struct {
	ObjectMB     int64
	Operations   int
	ShippedBytes int64 // method-shipping traffic
	FetchedBytes int64 // fetch-based traffic
	Ratio        float64
}

// E5MethodShipping stores a large vector and runs `ops` aggregations both
// ways ("executed within the object store transparently … minimizes the
// number of data transfers", paper Sec. VI-A-1).
func E5MethodShipping(objectMB int64, ops int) (E5Result, error) {
	store := dataclay.NewStore()
	store.RegisterClass(dataclay.Class{
		Name: "vector",
		Methods: map[string]dataclay.Method{
			"sum": func(state, _ any) (any, any, error) {
				v, ok := state.([]float64)
				if !ok {
					return state, nil, errors.New("bad state")
				}
				s := 0.0
				for _, x := range v {
					s += x
				}
				return state, s, nil
			},
		},
		Size: func(state any) int64 {
			v, _ := state.([]float64)
			return int64(8 * len(v))
		},
	})
	vec := make([]float64, objectMB*1e6/8)
	for i := range vec {
		vec[i] = 1
	}
	id, err := store.NewObject("vector", vec)
	if err != nil {
		return E5Result{}, err
	}

	// Method shipping.
	for i := 0; i < ops; i++ {
		if _, err := store.Call(id, "sum", nil, 16); err != nil {
			return E5Result{}, err
		}
	}
	shipped := store.Stats().BytesShipped

	// Fetch then compute.
	for i := 0; i < ops; i++ {
		state, err := store.Fetch(id)
		if err != nil {
			return E5Result{}, err
		}
		v, ok := state.([]float64)
		if !ok {
			return E5Result{}, fmt.Errorf("fetch returned %T", state)
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		_ = s
	}
	fetched := store.Stats().BytesFetched

	r := E5Result{ObjectMB: objectMB, Operations: ops, ShippedBytes: shipped, FetchedBytes: fetched}
	if shipped > 0 {
		r.Ratio = float64(fetched) / float64(shipped)
	}
	return r, nil
}

// --- E6: fog-to-cloud offloading ------------------------------------------

// E6Result compares running a task batch on a constrained fog device alone
// against offloading to peers (Fig. 5's fog-to-fog / fog-to-cloud paths).
type E6Result struct {
	Tasks      int
	LocalOnly  time.Duration
	WithPeers  time.Duration
	Speedup    float64
	PeerAgents int
}

// E6FogOffload runs real agents over loopback HTTP.
func E6FogOffload(tasks, peers int, taskDur time.Duration) (E6Result, error) {
	reg := agent.NewRegistry()
	reg.Register("work", func(_ []json.RawMessage) (json.RawMessage, error) {
		time.Sleep(taskDur)
		return json.Marshal(true)
	})

	runBatch := func(a *agent.Agent, offload bool) (time.Duration, error) {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, tasks)
		for i := 0; i < tasks; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if offload {
					_, err = a.RunAnywhere("work", nil)
				} else {
					_, err = a.RunLocal("work", nil)
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	// Local only: a 1-core fog device.
	solo, err := agent.New(agent.Config{Name: "fog-solo", Registry: reg, Cores: 1})
	if err != nil {
		return E6Result{}, err
	}
	defer solo.Close()
	localTime, err := runBatch(solo, false)
	if err != nil {
		return E6Result{}, err
	}

	// With peers: same device plus `peers` 4-core agents.
	origin, err := agent.New(agent.Config{Name: "fog-origin", Registry: reg, Cores: 1})
	if err != nil {
		return E6Result{}, err
	}
	defer origin.Close()
	var urls []string
	for i := 0; i < peers; i++ {
		p, err := agent.New(agent.Config{Name: fmt.Sprintf("peer%d", i), Registry: reg, Cores: 4})
		if err != nil {
			return E6Result{}, err
		}
		defer p.Close()
		urls = append(urls, p.URL())
	}
	origin.SetPeers(urls)
	peerTime, err := runBatch(origin, true)
	if err != nil {
		return E6Result{}, err
	}

	return E6Result{
		Tasks:      tasks,
		LocalOnly:  localTime,
		WithPeers:  peerTime,
		Speedup:    float64(localTime) / float64(peerTime),
		PeerAgents: peers,
	}, nil
}

// --- E12: abstraction levels ----------------------------------------------

// E12Result reports the same computation expressed at four abstraction
// levels (paper Sec. V, Fig. 2): all must agree; overheads are relative to
// plain Go.
type E12Result struct {
	Level    string
	Value    float64
	Elapsed  time.Duration
	Overhead float64 // vs plain Go
}

// E12AbstractionLevels sums a rows×cols matrix at the HLA (dislib), the
// patterns (Map+ReduceTree), the
// general-purpose (compss tasks) and the runtime-API (internal/core)
// levels.
func E12AbstractionLevels(rows, cols, rowsPerBlock int) ([]E12Result, error) {
	// Build a deterministic matrix.
	data := make([][]float64, rows)
	var want float64
	for i := range data {
		data[i] = make([]float64, cols)
		for j := range data[i] {
			v := float64((i*cols + j) % 17)
			data[i][j] = v
			want += v
		}
	}

	// Level 0: plain Go (reference, not part of the stack).
	start := time.Now()
	var plain float64
	for _, row := range data {
		for _, v := range row {
			plain += v
		}
	}
	plainT := time.Since(start)
	if plainT <= 0 {
		plainT = time.Nanosecond
	}

	var out []E12Result

	// Level HLA: dislib.
	{
		c := compss.New(compss.WithNodes(compss.NodeSpec{Name: "n", Cores: 4}))
		l, err := dislib.New(c)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		start := time.Now()
		arr, err := l.FromSlice(data, rowsPerBlock)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		got, err := arr.Sum()
		el := time.Since(start)
		c.Shutdown()
		if err != nil {
			return nil, err
		}
		out = append(out, E12Result{Level: "HLA (dislib)", Value: got, Elapsed: el,
			Overhead: float64(el) / float64(plainT)})
	}

	// Level patterns: MapReduceTree over the blocks.
	{
		c := compss.New(compss.WithNodes(compss.NodeSpec{Name: "n", Cores: 4}))
		err := c.RegisterTask("sumBlock", func(_ context.Context, args []any) ([]any, error) {
			block, ok := args[0].([][]float64)
			if !ok {
				return nil, errors.New("want block")
			}
			s := 0.0
			for _, row := range block {
				for _, v := range row {
					s += v
				}
			}
			return []any{s}, nil
		})
		if err == nil {
			err = c.RegisterTask("plus", func(_ context.Context, args []any) ([]any, error) {
				a, aok := args[0].(float64)
				b, bok := args[1].(float64)
				if !aok || !bok {
					return nil, errors.New("want floats")
				}
				return []any{a + b}, nil
			})
		}
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		start := time.Now()
		var blocks []any
		for b := 0; b < rows; b += rowsPerBlock {
			end := b + rowsPerBlock
			if end > rows {
				end = rows
			}
			blocks = append(blocks, data[b:end])
		}
		reduced, err := c.MapReduceTree("sumBlock", "plus", blocks)
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		v, err := c.WaitOn(reduced)
		el := time.Since(start)
		c.Shutdown()
		if err != nil {
			return nil, err
		}
		got, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("patterns level returned %T", v)
		}
		out = append(out, E12Result{Level: "patterns (map+reduce-tree)", Value: got, Elapsed: el,
			Overhead: float64(el) / float64(plainT)})
	}

	// Level general-purpose: hand-written compss tasks.
	{
		c := compss.New(compss.WithNodes(compss.NodeSpec{Name: "n", Cores: 4}))
		err := c.RegisterTask("sumBlock", func(_ context.Context, args []any) ([]any, error) {
			block, ok := args[0].([][]float64)
			if !ok {
				return nil, errors.New("want block")
			}
			s := 0.0
			for _, row := range block {
				for _, v := range row {
					s += v
				}
			}
			return []any{s}, nil
		})
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		start := time.Now()
		var parts []*compss.Object
		for b := 0; b < rows; b += rowsPerBlock {
			end := b + rowsPerBlock
			if end > rows {
				end = rows
			}
			o := c.NewObject()
			if _, err := c.Call("sumBlock", compss.In(data[b:end]), compss.Write(o)); err != nil {
				c.Shutdown()
				return nil, err
			}
			parts = append(parts, o)
		}
		var got float64
		for _, p := range parts {
			v, err := c.WaitOn(p)
			if err != nil {
				c.Shutdown()
				return nil, err
			}
			f, ok := v.(float64)
			if !ok {
				c.Shutdown()
				return nil, fmt.Errorf("sumBlock returned %T", v)
			}
			got += f
		}
		el := time.Since(start)
		c.Shutdown()
		out = append(out, E12Result{Level: "general purpose (compss)", Value: got, Elapsed: el,
			Overhead: float64(el) / float64(plainT)})
	}

	// Level runtime API: direct internal/core usage.
	{
		rt := core.New(core.Config{})
		err := rt.Register(core.TaskDef{
			Name:        "sumBlock",
			Constraints: resources.Constraints{Cores: 1},
			Fn: func(_ context.Context, args []any) ([]any, error) {
				block, ok := args[0].([][]float64)
				if !ok {
					return nil, errors.New("want block")
				}
				s := 0.0
				for _, row := range block {
					for _, v := range row {
						s += v
					}
				}
				return []any{s}, nil
			},
		})
		if err != nil {
			rt.Shutdown()
			return nil, err
		}
		start := time.Now()
		var futures []*core.Future
		for b := 0; b < rows; b += rowsPerBlock {
			end := b + rowsPerBlock
			if end > rows {
				end = rows
			}
			h := rt.NewData()
			f, err := rt.Submit("sumBlock", core.In(data[b:end]), core.Write(h))
			if err != nil {
				rt.Shutdown()
				return nil, err
			}
			futures = append(futures, f)
		}
		var got float64
		for _, f := range futures {
			vals, err := f.Wait()
			if err != nil {
				rt.Shutdown()
				return nil, err
			}
			f64, ok := vals[0].(float64)
			if !ok {
				rt.Shutdown()
				return nil, fmt.Errorf("core sumBlock returned %T", vals[0])
			}
			got += f64
		}
		el := time.Since(start)
		rt.Shutdown()
		out = append(out, E12Result{Level: "runtime API (core)", Value: got, Elapsed: el,
			Overhead: float64(el) / float64(plainT)})
	}

	for _, r := range out {
		if r.Value != want {
			return nil, fmt.Errorf("level %q computed %v, want %v", r.Level, r.Value, want)
		}
	}
	return out, nil
}

// --- E13: engine-level work stealing --------------------------------------

// E13Result is one row of the work-stealing comparison: the same skewed
// workload under one steal mode.
type E13Result struct {
	Mode     string
	Makespan time.Duration
	Steals   int
	Util     float64
}

// E13WorkSteal runs the SkewedTiers workload (long tasks that only the
// fast tier may run, then a deep tail of short ones, all in one signature
// bucket) on a 1-HPC + 8-fog pool under the tier-guarding WaitFast
// policy, sweeping the engine's steal modes. Stealing-off shows the
// head-of-line blocking: the fog tier idles while the short tail waits
// behind the long head; stealing-on reclaims it.
func E13WorkSteal(nLong, nShort int) ([]E13Result, error) {
	mkPool := func() *resources.Pool {
		pool := resources.NewPool()
		_ = pool.Add(resources.NewNode("hpc0", resources.Description{
			Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
		}))
		for i := 0; i < 8; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("fog%d", i), resources.Description{
				Cores: 4, MemoryMB: 8_000, SpeedFactor: 0.25, Class: resources.Fog,
			}))
		}
		return pool
	}
	specs := workloads.SkewedTiers(nLong, nShort, 100*time.Second, 5*time.Second)
	modes := []struct {
		name  string
		steal engine.StealConfig
	}{
		{"off", engine.StealConfig{}},
		{"on-idle", engine.StealConfig{Mode: engine.StealOnIdle}},
		{"threshold:50", engine.StealConfig{Mode: engine.StealThreshold, Threshold: 50}},
	}
	var out []E13Result
	for _, m := range modes {
		pool := mkPool()
		sim, err := infra.New(infra.Config{
			Pool:   pool,
			Net:    hpcNet(pool),
			Policy: sched.WaitFast{Inner: sched.MinLoad{}, MaxSlowdown: 2, MinWait: 10 * time.Second},
			Steal:  m.steal,
		}, specs)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		out = append(out, E13Result{
			Mode:     m.name,
			Makespan: res.Makespan,
			Steals:   sim.EngineStats().Steals,
			Util:     res.Utilization,
		})
	}
	return out, nil
}
