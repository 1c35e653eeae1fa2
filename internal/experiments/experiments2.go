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

// e5MethodShipping stores an objectMB vector and runs ops aggregations
// in the store and by fetch-then-compute ("executed within the object
// store transparently … minimizes the number of data transfers", paper
// Sec. VI-A-1), comparing the bytes each moves.
func e5MethodShipping(objectMB int64, ops int) (*Table, error) {
	sum := func(state any) (float64, error) {
		v, ok := state.([]float64)
		if !ok {
			return 0, fmt.Errorf("vector state is %T", state)
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s, nil
	}
	store := dataclay.NewStore()
	store.RegisterClass(dataclay.Class{
		Name: "vector",
		Methods: map[string]dataclay.Method{
			"sum": func(state, _ any) (any, any, error) {
				s, err := sum(state)
				return state, s, err
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
		return nil, err
	}
	for i := 0; i < ops; i++ {
		if _, err := store.Call(id, "sum", nil, 16); err != nil {
			return nil, err
		}
	}
	for i := 0; i < ops; i++ {
		state, err := store.Fetch(id)
		if err == nil {
			_, err = sum(state)
		}
		if err != nil {
			return nil, err
		}
	}
	shipped, fetched := store.Stats().BytesShipped, store.Stats().BytesFetched
	ratio := 0.0
	if shipped > 0 {
		ratio = float64(fetched) / float64(shipped)
	}
	t := newTable("access style", "bytes moved")
	t.add(text("method shipping"), num("%d", shipped))
	t.add(text("fetch-then-compute"), num("%d", fetched))
	t.add(text("ratio"), num("%.0fx", ratio))
	return t, nil
}

// --- E6: fog-to-cloud offloading ------------------------------------------

// e6FogOffload runs a batch of tasks on a 1-core fog agent alone and
// then offloading to peer 4-core agents (Fig. 5's fog-to-fog /
// fog-to-cloud paths), real agents over loopback HTTP.
func e6FogOffload(tasks, peers int, taskDur time.Duration) (*Table, error) {
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
			wg.Add(1)
			go func() {
				defer wg.Done()
				if offload {
					_, errs[i] = a.RunAnywhere("work", nil)
				} else {
					_, errs[i] = a.RunLocal("work", nil)
				}
			}()
		}
		wg.Wait()
		return time.Since(start), errors.Join(errs...)
	}

	solo, err := agent.New(agent.Config{Name: "fog-solo", Registry: reg, Cores: 1})
	if err != nil {
		return nil, err
	}
	defer solo.Close()
	localTime, err := runBatch(solo, false)
	if err != nil {
		return nil, err
	}

	origin, err := agent.New(agent.Config{Name: "fog-origin", Registry: reg, Cores: 1})
	if err != nil {
		return nil, err
	}
	defer origin.Close()
	var urls []string
	for i := 0; i < peers; i++ {
		p, err := agent.New(agent.Config{Name: fmt.Sprintf("peer%d", i), Registry: reg, Cores: 4})
		if err != nil {
			return nil, err
		}
		defer p.Close()
		urls = append(urls, p.URL())
	}
	origin.SetPeers(urls)
	peerTime, err := runBatch(origin, true)
	if err != nil {
		return nil, err
	}

	t := newTable("mode", "wall time", "speedup").wallClock("wall time", "speedup")
	t.add(text("1-core fog device alone"), dur(time.Millisecond, localTime), num("%.2f", 1.0))
	t.add(text(fmt.Sprintf("offloading to %d peers", peers)), dur(time.Millisecond, peerTime),
		num("%.2f", float64(localTime)/float64(peerTime)))
	return t, nil
}

// --- E12: abstraction levels ----------------------------------------------

// e12AbstractionLevels sums a rows×cols matrix at the HLA (dislib), the
// patterns (Map+ReduceTree), the general-purpose (compss tasks) and the
// runtime-API (internal/core) levels (paper Sec. V, Fig. 2). All must
// agree; each level's wall time is compared with plain Go's.
func e12AbstractionLevels(rows, cols, rowsPerBlock int) (*Table, error) {
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
	// Plain Go is the reference, not a level of the stack.
	start := time.Now()
	var plain float64
	for _, row := range data {
		for _, v := range row {
			plain += v
		}
	}
	plainT := max(time.Since(start), time.Nanosecond)

	var blocks []any
	for b := 0; b < rows; b += rowsPerBlock {
		blocks = append(blocks, data[b:min(b+rowsPerBlock, rows)])
	}
	sumBlock := func(_ context.Context, args []any) ([]any, error) {
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
	}
	plus := func(_ context.Context, args []any) ([]any, error) {
		a, aok := args[0].(float64)
		b, bok := args[1].(float64)
		if !aok || !bok {
			return nil, errors.New("want floats")
		}
		return []any{a + b}, nil
	}
	newCOMPSs := func() *compss.COMPSs {
		return compss.New(compss.WithNodes(compss.NodeSpec{Name: "n", Cores: 4}))
	}
	asFloat := func(v any, err error) (float64, error) {
		if err != nil {
			return 0, err
		}
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("a block sum is %T", v)
		}
		return f, nil
	}

	// Each level reports its sum and the wall time of the computation,
	// setup and shutdown excluded.
	levels := []struct {
		name string
		run  func() (float64, time.Duration, error)
	}{
		{"HLA (dislib)", func() (float64, time.Duration, error) {
			c := newCOMPSs()
			defer c.Shutdown()
			l, err := dislib.New(c)
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			arr, err := l.FromSlice(data, rowsPerBlock)
			if err != nil {
				return 0, 0, err
			}
			got, err := arr.Sum()
			return got, time.Since(start), err
		}},
		{"patterns (map+reduce-tree)", func() (float64, time.Duration, error) {
			c := newCOMPSs()
			defer c.Shutdown()
			if err := errors.Join(c.RegisterTask("sumBlock", sumBlock), c.RegisterTask("plus", plus)); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			reduced, err := c.MapReduceTree("sumBlock", "plus", blocks)
			if err != nil {
				return 0, 0, err
			}
			got, err := asFloat(c.WaitOn(reduced))
			return got, time.Since(start), err
		}},
		{"general purpose (compss)", func() (float64, time.Duration, error) {
			c := newCOMPSs()
			defer c.Shutdown()
			if err := c.RegisterTask("sumBlock", sumBlock); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			parts := make([]*compss.Object, len(blocks))
			for i, b := range blocks {
				parts[i] = c.NewObject()
				if _, err := c.Call("sumBlock", compss.In(b), compss.Write(parts[i])); err != nil {
					return 0, 0, err
				}
			}
			var got float64
			for _, p := range parts {
				f, err := asFloat(c.WaitOn(p))
				if err != nil {
					return 0, 0, err
				}
				got += f
			}
			return got, time.Since(start), nil
		}},
		{"runtime API (core)", func() (float64, time.Duration, error) {
			rt := core.New(core.Config{})
			defer rt.Shutdown()
			err := rt.Register(core.TaskDef{Name: "sumBlock", Constraints: resources.Constraints{Cores: 1}, Fn: sumBlock})
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			futures := make([]*core.Future, len(blocks))
			for i, b := range blocks {
				if futures[i], err = rt.Submit("sumBlock", core.In(b), core.Write(rt.NewData())); err != nil {
					return 0, 0, err
				}
			}
			var got float64
			for _, f := range futures {
				vals, err := f.Wait()
				if err != nil {
					return 0, 0, err
				}
				v, err := asFloat(vals[0], nil)
				if err != nil {
					return 0, 0, err
				}
				got += v
			}
			return got, time.Since(start), nil
		}},
	}

	t := newTable("level", "result", "wall time", "overhead vs plain Go").wallClock("wall time", "overhead vs plain Go")
	for _, l := range levels {
		got, el, err := l.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
		if got != want || plain != want {
			return nil, fmt.Errorf("level %q computed %v, want %v", l.name, got, want)
		}
		t.add(text(l.name), num("%.0f", got), dur(time.Microsecond, el), num("%.1fx", float64(el)/float64(plainT)))
	}
	return t, nil
}

// --- E13: engine-level work stealing --------------------------------------

// e13WorkSteal runs the SkewedTiers workload (long tasks that only the
// fast tier may run, then a deep tail of short ones, all in one signature
// bucket) on a 1-HPC + 8-fog pool under the tier-guarding WaitFast
// policy, sweeping the engine's steal modes. Stealing-off shows the
// head-of-line blocking: the fog tier idles while the short tail waits
// behind the long head; stealing-on reclaims it.
func e13WorkSteal(nLong, nShort int) (*Table, error) {
	specs := workloads.SkewedTiers(nLong, nShort, 100*time.Second, 5*time.Second)
	t := newTable("steal mode", "makespan", "tasks stolen", "utilisation")
	for _, m := range []struct {
		name  string
		steal engine.StealConfig
	}{
		{"off", engine.StealConfig{}},
		{"on-idle", engine.StealConfig{Mode: engine.StealOnIdle}},
		{"threshold:50", engine.StealConfig{Mode: engine.StealOnIdle, Threshold: 50}},
	} {
		cfg := rig(sched.WaitFast{Inner: sched.MinLoad{}, MaxSlowdown: 2, MinWait: 10 * time.Second},
			group{"hpc%d", 1, resources.Description{Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC}},
			group{"fog%d", 8, resources.Description{Cores: 4, MemoryMB: 8_000, SpeedFactor: 0.25, Class: resources.Fog}})
		cfg.Steal = m.steal
		sim, err := infra.New(cfg, specs)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		t.add(text(m.name), dur(time.Second, res.Makespan), num("%d", sim.EngineStats().Steals), num("%.1f%%", 100*res.Utilization))
	}
	return t, nil
}
