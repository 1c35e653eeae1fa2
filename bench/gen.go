package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/deps"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/simnet"
)

// Full-size inputs (ISSUE 12). A scale below 1 shrinks the task counts and
// nothing else: pools, links and the constraint mix stay as they are, so a
// 1/10 warm-up and a 1/100 test run take the same code paths as a full run.
const (
	wideTasks = 500_000
	wideNodes = 512

	stencilCells     = 1024
	stencilNodes     = 128
	dataflowIters    = 200
	restartIters     = 100
	reduceEvery      = 8
	reduceWays       = 32
	ckptEvery        = 300 * time.Second
	haltFraction     = 0.6
	stencilLinkMBps  = 1000
	stencilLinkDelay = time.Millisecond

	liveChains     = 1024
	liveLayers     = 400
	liveBatch      = 256
	liveRoundTrips = 20_000
	liveNodes      = 4
	liveCores      = 4

	agentCores    = 2
	agentPoll     = 200 * time.Microsecond
	agentPayloads = 4096
)

// scaled shrinks a full-size count, never below lo.
func scaled(n int, scale float64, lo int) int {
	v := int(float64(n)*scale + 0.5)
	if v < lo {
		return lo
	}
	return v
}

// nodeKinds are the four node flavours of the heterogeneous sim-wide pool,
// one quarter of the pool each. Only the first carries GPUs, so the GPU
// signature fits a quarter of the pool.
var nodeKinds = [4]resources.Description{
	{Cores: 48, MemoryMB: 96_000, GPUs: 2, Class: resources.HPC, SpeedFactor: 1.0, IdleWatts: 150, ActiveWattsPerCore: 6},
	{Cores: 32, MemoryMB: 64_000, Class: resources.HPC, SpeedFactor: 0.9, IdleWatts: 110, ActiveWattsPerCore: 6},
	{Cores: 16, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 0.8, IdleWatts: 60, ActiveWattsPerCore: 8},
	{Cores: 8, MemoryMB: 16_000, Class: resources.Cloud, SpeedFactor: 0.6, IdleWatts: 40, ActiveWattsPerCore: 8},
}

// wideSigs are sim-wide's six constraint signatures with their share of the
// task mix. The GPU signature is kept at the share a quarter of the pool can
// absorb, so it loads the index without setting the makespan alone.
var wideSigs = [6]struct {
	c     resources.Constraints
	share float64
}{
	{resources.Constraints{}, 0.30},
	{resources.Constraints{Cores: 2}, 0.20},
	{resources.Constraints{Cores: 1, MemoryMB: 2_000}, 0.20},
	{resources.Constraints{Cores: 4, MemoryMB: 8_000}, 0.15},
	{resources.Constraints{Cores: 8, MemoryMB: 16_000}, 0.10},
	{resources.Constraints{Cores: 2, GPUs: 1}, 0.05},
}

// widePool builds sim-wide's pool: n nodes cycling through nodeKinds.
func widePool(n int) *resources.Pool {
	pool := resources.NewPool()
	for i := 0; i < n; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("w%04d", i), nodeKinds[i%len(nodeKinds)]))
	}
	return pool
}

// wideSpecs generates n independent tasks over the six signatures.
func wideSpecs(seed int64, n int) []infra.TaskSpec {
	rng := rand.New(rand.NewSource(seed))
	classes := [len(wideSigs)]string{"wide.any", "wide.c2", "wide.m2", "wide.c4", "wide.c8", "wide.gpu"}
	specs := make([]infra.TaskSpec, n)
	for i := range specs {
		u, k := rng.Float64(), 0
		for k < len(wideSigs)-1 && u >= wideSigs[k].share {
			u -= wideSigs[k].share
			k++
		}
		specs[i] = infra.TaskSpec{
			ID:          int64(i + 1),
			Class:       classes[k],
			Duration:    time.Duration((30 + 60*rng.Float64()) * float64(time.Second)),
			Constraints: wideSigs[k].c,
		}
	}
	return specs
}

// stencil is a generated Jacobi workflow with everything a run needs
// besides the pool: specs, staged-in inputs and their locations.
type stencil struct {
	specs        []infra.TaskSpec
	stageIn      map[deps.DataID]int64
	stageInNodes map[deps.DataID][]string
	iters        int
	reduces      int
}

// stencilNodeName names node i of the stencil pool.
func stencilNodeName(i int) string { return fmt.Sprintf("s%03d", i) }

// stencilPool builds the 128-node homogeneous pool of the stencil workloads:
// 8 cores each, so one iteration (1024 cells) is exactly one pool wide.
func stencilPool() *resources.Pool {
	pool := resources.NewPool()
	desc := resources.Description{
		Cores: 8, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 1,
		IdleWatts: 40, ActiveWattsPerCore: 8,
	}
	for i := 0; i < stencilNodes; i++ {
		_ = pool.Add(resources.NewNode(stencilNodeName(i), desc))
	}
	return pool
}

// stencilNet is the flat 1 GB/s + 1 ms network of the stencil workloads.
func stencilNet() *simnet.Network {
	return simnet.New(simnet.Link{BandwidthMBps: stencilLinkMBps, Latency: stencilLinkDelay})
}

// stencilSpecs generates a double-buffered (Jacobi) periodic stencil: cell i
// of iteration t reads cells i-1, i, i+1 of buffer t%2 and overwrites cell i
// of buffer (t+1)%2. Double buffering is what keeps it parallel — an in-place
// stencil serialises into a single chain. Every reduceEvery-th iteration,
// reduceWays tasks each fold cells/reduceWays fresh cells into a partial sum.
// Outputs are sized (1–64 MB per cell, fixed per cell) and the initial buffer
// is staged in round-robin over the pool, so a locality policy has real bytes
// to weigh; without sizes and spread it piles the whole DAG onto one node.
func stencilSpecs(seed int64, cells, iters int) stencil {
	rng := rand.New(rand.NewSource(seed))
	cellBytes := make([]int64, cells)
	for i := range cellBytes {
		cellBytes[i] = int64(1+rng.Intn(64)) * 1_000_000
	}
	buf := func(b, i int) deps.DataID { return deps.DataID(1 + b*cells + (i+cells)%cells) }
	nextPartial := deps.DataID(1 + 2*cells)

	st := stencil{
		stageIn:      make(map[deps.DataID]int64, cells),
		stageInNodes: make(map[deps.DataID][]string, cells),
		iters:        iters,
	}
	for i := 0; i < cells; i++ {
		st.stageIn[buf(0, i)] = cellBytes[i]
		st.stageInNodes[buf(0, i)] = []string{stencilNodeName(i % stencilNodes)}
	}
	group := cells / reduceWays
	if group < 1 {
		group = 1
	}
	var id int64
	for t := 0; t < iters; t++ {
		src, dst := t%2, (t+1)%2
		for i := 0; i < cells; i++ {
			id++
			out := buf(dst, i)
			st.specs = append(st.specs, infra.TaskSpec{
				ID:       id,
				Class:    "stencil.cell",
				Duration: time.Duration((80 + 80*rng.Float64()) * float64(time.Second)),
				Accesses: []deps.Access{
					{Data: buf(src, i-1), Dir: deps.In},
					{Data: buf(src, i), Dir: deps.In},
					{Data: buf(src, i+1), Dir: deps.In},
					{Data: out, Dir: deps.Out},
				},
				OutputBytes: map[deps.DataID]int64{out: cellBytes[i]},
			})
		}
		if t%reduceEvery != reduceEvery-1 {
			continue
		}
		st.reduces++
		for g := 0; g*group < cells; g++ {
			id++
			acc := make([]deps.Access, 0, group+1)
			for i := g * group; i < (g+1)*group && i < cells; i++ {
				acc = append(acc, deps.Access{Data: buf(dst, i), Dir: deps.In})
			}
			acc = append(acc, deps.Access{Data: nextPartial, Dir: deps.Out})
			st.specs = append(st.specs, infra.TaskSpec{
				ID:          id,
				Class:       "stencil.reduce",
				Duration:    time.Duration((20 + 20*rng.Float64()) * float64(time.Second)),
				Accesses:    acc,
				OutputBytes: map[deps.DataID]int64{nextPartial: 1_000_000},
			})
			nextPartial++
		}
	}
	return st
}

// criticalPath returns the longest dependency chain (in tasks) of a spec
// list, derived by the access processor itself — the same analysis infra.New
// performs — so a generator that accidentally serialises is caught by the
// layer that would serialise it.
func criticalPath(specs []infra.TaskSpec) int {
	batch := make([]deps.TaskAccesses, len(specs))
	index := make(map[deps.TaskID]int, len(specs))
	for i, s := range specs {
		batch[i] = deps.TaskAccesses{Task: deps.TaskID(s.ID), Accesses: s.Accesses}
		index[deps.TaskID(s.ID)] = i
	}
	depth := make([]int, len(specs))
	longest := 0
	for i, res := range deps.NewProcessor().RegisterBatch(batch) {
		d := 0
		for _, p := range res.Deps {
			if pd := depth[index[p]]; pd > d {
				d = pd
			}
		}
		depth[i] = d + 1
		if depth[i] > longest {
			longest = depth[i]
		}
	}
	return longest
}

// agentPayloadRing generates the payloads the closed-loop callers cycle
// through: 56-byte JSON objects, the size of a small control message.
func agentPayloadRing(seed int64) []json.RawMessage {
	rng := rand.New(rand.NewSource(seed))
	ring := make([]json.RawMessage, agentPayloads)
	for i := range ring {
		ring[i] = json.RawMessage(fmt.Sprintf(`{"seq":"%08d","node":"s%04d","temp":"%013.6f"}`,
			i, rng.Intn(10_000), rng.Float64()*100_000))
	}
	return ring
}
