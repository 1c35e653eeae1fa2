package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
)

// liveSpec is the generated input of live-dag: the order in which the chains
// of one layer are submitted, and each chain's starting value. The shape
// (chains x layers) is fixed; the seed decides only what the runtime cannot
// foresee.
type liveSpec struct {
	layers int
	trips  int
	order  []int // a permutation of the chains, repeated for every layer
	start  []int // initial value per chain
}

func liveSpecFor(seed int64, layers, trips int) liveSpec {
	rng := rand.New(rand.NewSource(seed))
	s := liveSpec{layers: layers, trips: trips, order: rng.Perm(liveChains), start: make([]int, liveChains)}
	for i := range s.start {
		s.start[i] = rng.Intn(1_000_000)
	}
	return s
}

func (s liveSpec) tasks() int { return liveChains * s.layers }

func livePool() *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < liveNodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("live%d", i), resources.Description{
			Cores: liveCores, MemoryMB: 8_000, Class: resources.Cloud, SpeedFactor: 1,
		}))
	}
	return pool
}

func inc(_ context.Context, args []any) ([]any, error) {
	v, _ := args[0].(int)
	return []any{v + 1}, nil
}

// liveRep is one timed repetition on a fresh runtime.
type liveRep struct {
	sec   section
	trips []time.Duration
}

// liveRun executes the DAG phase and the round-trip phase on a new runtime
// and checks every value it produced.
func (b *bench) liveRun(sp *spanRec, spec liveSpec, reg *obsv.Registry) (liveRep, *core.Runtime) {
	var r liveRep
	n := spec.tasks()
	rt := core.New(core.Config{Pool: livePool(), Metrics: reg})
	if err := rt.Register(core.TaskDef{Name: "inc", Fn: inc}); err != nil {
		b.failf(n, "register: %v", err)
		return r, rt
	}
	handles := make([]*core.Handle, liveChains)
	for c := range handles {
		handles[c] = rt.NewData()
		rt.SetInitial(handles[c], spec.start[c])
	}

	root := sp.begin("rep", 0)
	reqs := make([]core.TaskReq, liveBatch)
	params := make([]core.Param, liveBatch)
	var submitErr error
	r.sec = timeSection(func() {
		fill := 0
		flush := func() {
			id := sp.begin("SubmitAll", root)
			_, err := rt.SubmitAll(reqs[:fill])
			sp.end(id)
			if err != nil && submitErr == nil {
				submitErr = err
			}
			fill = 0
		}
		for layer := 0; layer < spec.layers; layer++ {
			for _, c := range spec.order {
				params[fill] = core.Update(handles[c])
				reqs[fill] = core.TaskReq{Name: "inc", Params: params[fill : fill+1]}
				if fill++; fill == liveBatch {
					flush()
				}
			}
		}
		if fill > 0 {
			flush()
		}
		id := sp.begin("Barrier", root)
		rt.Barrier()
		sp.end(id)
	})

	// Every handle must have been incremented once per layer.
	b.attempt(n)
	if submitErr != nil {
		b.failf(n, "SubmitAll: %v", submitErr)
	}
	for c, h := range handles {
		v, err := rt.WaitOn(h)
		if got, _ := v.(int); err != nil || got != spec.start[c]+spec.layers {
			b.failf(spec.layers, "chain %d ended at %v (err %v), want %d", c, v, err, spec.start[c]+spec.layers)
		}
	}

	// Single submissions on the now idle runtime, each waited for before the
	// next: the per-task overhead that sets the smallest useful task grain.
	h := rt.NewData()
	rt.SetInitial(h, 0)
	r.trips = make([]time.Duration, 0, spec.trips)
	b.attempt(spec.trips)
	for i := 0; i < spec.trips; i++ {
		t0 := time.Now()
		id := sp.begin("Submit", root)
		f, err := rt.Submit("inc", core.Update(h))
		sp.end(id)
		if err != nil {
			b.failf(1, "Submit: %v", err)
			continue
		}
		id = sp.begin("Future.Wait", root)
		vals, err := f.Wait()
		sp.end(id)
		r.trips = append(r.trips, time.Since(t0))
		if err != nil || len(vals) != 1 || vals[0] != i+1 {
			b.failf(1, "round trip %d returned %v (err %v)", i, vals, err)
		}
	}
	sp.end(root)
	return r, rt
}

func runLiveDag(b *bench) {
	layers := scaled(liveLayers, b.scale, 4)
	trips := scaled(liveRoundTrips, b.scale, 200)
	var spec liveSpec
	b.setUp(func() {
		spec = liveSpecFor(b.seed, layers, trips)
		warm := liveSpecFor(b.seed, scaled(layers, 0.1, 2), scaled(trips, 0.1, 20))
		_, rt := b.liveRun(nil, warm, nil)
		rt.Shutdown()
	})
	n := spec.tasks()

	var reps []liveRep
	b.repeat(func(rep int) {
		sp := b.armSpans(rep)
		reg := registryFor(sp)
		r, rt := b.liveRun(sp, spec, reg)
		reps = append(reps, r)
		if sp != nil {
			b.liveLayers(rt, reg, spec, r)
		}
		rt.Shutdown()
	})

	var perS, allocs, bytes, p50, p99, cost []float64
	for i, r := range reps {
		cost = append(cost, r.sec.wall.Seconds())
		if !b.endToEndSample(i) {
			continue
		}
		perS = append(perS, float64(n)/r.sec.wall.Seconds())
		allocs = append(allocs, float64(r.sec.mallocs)/float64(n))
		bytes = append(bytes, float64(r.sec.bytes)/float64(n))
		us := durationsUS(r.trips)
		p50 = append(p50, quantile(us, 0.50))
		p99 = append(p99, quantile(us, 0.99))
	}
	b.setMedian("tasks_per_s", perS)
	b.setMedian("allocs_per_task", allocs)
	b.setMedian("bytes_per_task", bytes)
	b.setMedian("op_p50_us", p50)
	b.setMedian("core.submit_wait_p50_us", p50)
	b.setMedian("core.submit_wait_p99_us", p99)
	b.note("op_samples", float64(trips))
	b.setTraceOverhead(cost, true)
}

// liveLayers derives live-dag's per-layer figures from the traced
// repetition's spans, the runtime's own timings and the layer replays.
func (b *bench) liveLayers(rt *core.Runtime, reg *obsv.Registry, spec liveSpec, r liveRep) {
	n := spec.tasks()
	sp := b.spans
	b.set("core.submitall_ns_per_task", float64(sp.total("SubmitAll").Nanoseconds())/float64(n))
	b.set("core.submit_ns", median(durationsUS(sp.durations("Submit")))*1e3)
	b.set("core.wait_ns", median(durationsUS(sp.durations("Future.Wait")))*1e3)
	b.set("core.barrier_s", sp.total("Barrier").Seconds())
	var queued []time.Duration
	for _, t := range rt.Timings() {
		if t.Start >= 0 && t.Ready >= 0 {
			queued = append(queued, t.Start-t.Ready)
		}
	}
	us := durationsUS(queued)
	b.set("core.queue_wait_p50_us", quantile(us, 0.50))
	b.set("core.queue_wait_p99_us", quantile(us, 0.99))

	// The stream the runtime saw, as the layers below it see it: one
	// read-modify-write access per task on its chain's datum.
	specs := make([]infra.TaskSpec, 0, n)
	for layer := 0; layer < spec.layers; layer++ {
		for _, c := range spec.order {
			specs = append(specs, infra.TaskSpec{
				ID: int64(len(specs) + 1), Class: "inc",
				Accesses: []deps.Access{{Data: deps.DataID(c + 1), Dir: deps.InOut}},
			})
		}
	}
	l := newLayers(b, n)
	results := l.deps(accessesOf(specs))
	l.engine(engineReplay{specs: specs, deps: results, pool: livePool, policy: sched.MinLoad{}, instant: true})
	l.resources(livePool(), specs)
	l.schedMinLoad(livePool(), specs)
	l.obsv()
	l.counts(reg, campaign{})
	l.attribute(r.sec.wall)
}
