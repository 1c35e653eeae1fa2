package engine_test

import (
	"slices"
	"testing"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

// stencilRig drives a double-buffered 1-D stencil on an engine by hand:
// task (l, i) reads cells i-1..i+1 of buffer l%2 and writes cell i of the
// other buffer. Version 0 of buffer 0 is staged on every node.
type stencilRig struct {
	e     *engine.Engine
	exec  *collectExec
	proc  *deps.Processor
	done  []int64 // accepted completions, in order
	held  []engine.Placement
	width int
}

func newStencilRig(t *testing.T, width int) *stencilRig {
	t.Helper()
	p := pool(3, 2)
	reg := transfer.NewRegistry()
	for i := 0; i < width; i++ {
		for _, n := range p.Nodes() {
			reg.AddReplica(deps.Version{Data: deps.DataID(i + 1)}, n.Name())
		}
	}
	exec := &collectExec{}
	e := engine.New(engine.Config{
		Pool: p, Policy: sched.FIFO{}, Clock: &stubClock{}, Executor: exec,
		Registry: reg, Net: simnet.New(simnet.Link{BandwidthMBps: 1000}),
		Availability: engine.AvailDefer,
	})
	return &stencilRig{e: e, exec: exec, proc: deps.NewProcessor(), width: width}
}

// addLayer registers layer l in one batch.
func (r *stencilRig) addLayer(t *testing.T, l int) {
	t.Helper()
	cell := func(buf, i int) deps.DataID { return deps.DataID(buf*r.width + i + 1) }
	var ts []*engine.Task
	var prods [][]deps.TaskID
	for i := 0; i < r.width; i++ {
		var acc []deps.Access
		for j := max(i-1, 0); j <= min(i+1, r.width-1); j++ {
			acc = append(acc, deps.Access{Data: cell(l%2, j), Dir: deps.In})
		}
		acc = append(acc, deps.Access{Data: cell((l+1)%2, i), Dir: deps.Out})
		id := int64(l*r.width + i + 1)
		res := r.proc.AppendBatch(nil, []deps.TaskAccesses{{Task: deps.TaskID(id), Accesses: acc}})[0]
		ts = append(ts, &engine.Task{ID: id, Constraints: resources.Constraints{Cores: 1},
			InputKeys: res.Reads, OutputKeys: res.Writes})
		prods = append(prods, res.Deps)
	}
	if _, err := r.e.Add(ts, prods, nil); err != nil {
		t.Fatal(err)
	}
}

// drive completes placements in launch order until none is left, holding
// (not completing) those of tasks with an ID above holdAbove.
func (r *stencilRig) drive(holdAbove int64) {
	for {
		r.e.Schedule()
		pl, ok := r.exec.pop()
		if !ok {
			return
		}
		if pl.Task.ID > holdAbove {
			r.held = append(r.held, pl)
			continue
		}
		if _, ok := r.e.Complete(pl.Task.ID, pl.Epoch, false); ok {
			r.done = append(r.done, pl.Task.ID)
		}
	}
}

// release completes the held placements; a fault made some of them stale.
func (r *stencilRig) release() {
	held := r.held
	r.held = nil
	for _, pl := range held {
		if _, ok := r.e.Complete(pl.Task.ID, pl.Epoch, false); ok {
			r.done = append(r.done, pl.Task.ID)
		}
	}
}

// TestProducerIndexBuiltOnlyOnRecovery: the engine's producer index is
// built by the first recovery query, never by a fault-free run. A node
// crash after the first three layers' registrations builds it then; the
// layers added afterwards keep it current (checked at every step), and
// the recovery re-executes exactly what it did when the index was kept
// from the first registration on.
func TestProducerIndexBuiltOnlyOnRecovery(t *testing.T) {
	engine.CheckProducerIndexSteps(t)
	const width, layers = 4, 6
	clean := newStencilRig(t, width)
	for l := 0; l < layers; l++ {
		clean.addLayer(t, l)
	}
	clean.drive(width * layers)
	if len(clean.done) != width*layers || engine.ProducerIndexBuilt(clean.e) {
		t.Fatalf("fault-free run: %d of %d tasks done, index built %v; want all done and no index",
			len(clean.done), width*layers, engine.ProducerIndexBuilt(clean.e))
	}

	r := newStencilRig(t, width)
	for l := 0; l < 3; l++ {
		r.addLayer(t, l)
	}
	r.drive(2 * width) // layer 2 is left running
	if len(r.held) != width || engine.ProducerIndexBuilt(r.e) {
		t.Fatalf("before the crash: %d tasks running, index built %v; want %d and no index",
			len(r.held), engine.ProducerIndexBuilt(r.e), width)
	}
	rep, err := r.e.FailNode("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ProducerIndexBuilt(r.e) {
		t.Fatal("the crash's lineage recovery did not build the producer index")
	}
	r.release()
	for l := 3; l < layers; l++ {
		r.addLayer(t, l)
	}
	r.drive(width * layers)

	// Pinned from the same drive on the tree that kept the index from the
	// first registration on: the crash kills tasks 9 and 10 on node a and
	// loses the outputs of 1 and 5 with it, which re-run before 9 and 10.
	wantDone := []int64{1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 1, 16, 5, 9, 10, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24}
	st := r.e.Stats()
	if len(rep.Killed) != 2 || st.Reexecuted != 2 || !slices.Equal(r.done, wantDone) {
		t.Fatalf("recovery: killed %d, re-executed %d, completions %v; want 2, 2 and %v",
			len(rep.Killed), st.Reexecuted, r.done, wantDone)
	}
}
