package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/deps"
	"repro/internal/resources"
)

// ProducerIndexBuilt reports whether a recovery or availability query has
// built the producer index yet.
func ProducerIndexBuilt(e *Engine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.producer != nil
}

// AddOne registers one task through Add, as a batch of one.
func AddOne(e *Engine, t *Task, producers []deps.TaskID, holds int) (bool, error) {
	return e.Add([]*Task{t}, [][]deps.TaskID{producers}, []int{holds})
}

// LogTask appends task id's record to the checkpoint log, as a change to
// it does: the mark path alone.
func (e *Engine) LogTask(id int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logLocked(e.tasks.get(id))
}

// KillRunningOn, DropReadyMissingInputs and Resubmit are FailNode's three
// steps, reached one at a time by the tests.
func (e *Engine) KillRunningOn(name string) []*Task { return e.killRunningOn(name) }
func (e *Engine) DropReadyMissingInputs() []*Task   { return e.dropReadyMissingInputs() }
func (e *Engine) Resubmit(id int64)                 { e.resubmit(id) }

// checkProducerIndex holds a built producer index to a rebuild from the
// task table in registration order: every version maps to its
// last-registered writer and to nothing else. Caller holds e.mu.
func checkProducerIndex(e *Engine) error {
	if e.producer == nil {
		return nil
	}
	want := make(map[deps.Version]*Task, len(e.producer))
	for _, t := range e.tasks.all {
		for _, k := range t.OutputKeys {
			want[k] = t
		}
	}
	for k, t := range want {
		if got := e.producer[k]; got != t {
			return fmt.Errorf("producer of %v: index names %v, the task table task %d", k, got, t.ID)
		}
	}
	if len(e.producer) != len(want) {
		return fmt.Errorf("index holds %d versions, the task table %d", len(e.producer), len(want))
	}
	return nil
}

// CheckSteps runs check at every release of any engine's lock by an
// engine call until the test ends, with the lock still held, then fails
// the test with the first error it returned (or if no step was checked at
// all), naming it by name. Checks installed by one test compose: each
// step runs them all.
func CheckSteps(t testing.TB, name string, check func(*Engine) error) {
	var mu sync.Mutex
	var first error
	steps := 0
	prev := stepCheck.Load()
	step := func(e *Engine) {
		if prev != nil {
			(*prev)(e)
		}
		err := check(e)
		mu.Lock()
		defer mu.Unlock()
		steps++
		if first == nil && err != nil {
			first = fmt.Errorf("step %d: %w", steps, err)
		}
	}
	stepCheck.Store(&step)
	t.Cleanup(func() {
		stepCheck.Store(prev)
		mu.Lock()
		defer mu.Unlock()
		if first != nil {
			t.Errorf("%s: %v", name, first)
		} else if steps == 0 {
			t.Errorf("%s: no engine step was checked", name)
		}
	})
}

// CheckProducerIndexSteps holds the producer index to checkProducerIndex
// at every engine step until the test ends.
func CheckProducerIndexSteps(t testing.TB) {
	CheckSteps(t, "producer index", checkProducerIndex)
}

// checkTaskRecords holds every task record to its lifecycle: the parked
// counter, the tasks in state Parked and the tasks whose cold record
// holds availability keys are one set; a task holds a node exactly while
// Running, and peers only while Running a multi-node group; no
// registration leaves a fanOut unwired; the task table finds every
// task by its ID; and the ready count is the number of tasks queued in
// the buckets, which the per-signature ready-depth series read. Caller
// holds e.mu.
func checkTaskRecords(e *Engine) error {
	parked := 0
	for _, t := range e.tasks.all {
		keys := 0
		if t.cold != nil {
			keys = len(t.cold.availKeys)
		}
		if (t.state == Parked) != (keys > 0) {
			return fmt.Errorf("task %d: state %d, %d availability keys", t.ID, t.state, keys)
		}
		if keys > 0 {
			parked++
		}
		if (t.state == Running) != (t.node != nil) {
			return fmt.Errorf("task %d: state %d, holds a node: %v", t.ID, t.state, t.node != nil)
		}
		if len(t.peers()) > 0 && (t.state != Running || t.Constraints.EffectiveNodes() < 2) {
			return fmt.Errorf("task %d: %d peers in state %d, %d nodes wanted", t.ID, len(t.peers()), t.state, t.Constraints.EffectiveNodes())
		}
		if t.fanOut != 0 {
			return fmt.Errorf("task %d: fanOut %d left at a release", t.ID, t.fanOut)
		}
		if got := e.tasks.get(t.ID); got != t {
			return fmt.Errorf("task %d: the task table finds %p, the record is %p", t.ID, got, t)
		}
	}
	if parked != e.parked {
		return fmt.Errorf("parked counter %d, %d tasks parked", e.parked, parked)
	}
	queued := 0
	for _, b := range e.sigs {
		queued += len(b.q)
	}
	if n := e.readyN.Load(); n != int64(queued) {
		return fmt.Errorf("ready count %d, %d tasks queued in the buckets", n, queued)
	}
	return nil
}

// CheckTaskRecordSteps holds the task records to checkTaskRecords at
// every engine step until the test ends.
func CheckTaskRecordSteps(t testing.TB) {
	CheckSteps(t, "task records", checkTaskRecords)
}

// CheckRegistrySteps holds the engine's registry to its layout
// (transfer.Registry.CheckLayout) at every engine step until the test
// ends, and holds it to copy-on-write: every holder list the registry
// published at one step must read the same at every later step — a writer
// installs a new list, it never edits one a reader may hold.
func CheckRegistrySteps(t testing.TB) {
	type list struct {
		first *string
		n     int
	}
	type view struct{ list, was []string } // a published list, and what it read when first seen
	var mu sync.Mutex
	seen := map[list]bool{}
	var views []view
	CheckSteps(t, "registry", func(e *Engine) error {
		reg := e.cfg.Registry
		if reg == nil {
			return nil
		}
		if err := reg.CheckLayout(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, v := range views {
			if !slices.Equal(v.list, v.was) {
				return fmt.Errorf("a published holder list was written through: reads %v, was %v", v.list, v.was)
			}
		}
		for _, en := range reg.Entries() {
			if l := en.Locations; len(l) > 0 && !seen[list{&l[0], len(l)}] {
				seen[list{&l[0], len(l)}] = true
				views = append(views, view{l, slices.Clone(l)})
			}
		}
		return nil
	})
}

// CheckLogSteps holds the checkpoint log to the state it records at every
// engine step until the test ends: once a base capture has opened the
// log, each task's newest logged record — since the base, across every
// swap — equals its record now (snapLocked), and the registry's newest
// logged row for each key equals the row (transfer.Registry.CheckLayout).
// A change that logs nothing, or logs before it is done, fails the step it
// happens in.
func CheckLogSteps(t testing.TB) {
	type shadow struct {
		newest map[int64]TaskSnap // each logged task's newest record since the base
		seen   int                // how much of the current log newest holds
	}
	var mu sync.Mutex
	shadows := map[*Engine]*shadow{}
	CheckSteps(t, "checkpoint log", func(e *Engine) error {
		if e.log == nil {
			return nil
		}
		if reg := e.cfg.Registry; reg != nil {
			if err := reg.CheckLayout(); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		sh := shadows[e]
		if sh == nil {
			sh = &shadow{newest: map[int64]TaskSnap{}}
			shadows[e] = sh
		}
		if len(e.log) < sh.seen { // swapped out since the last step
			sh.seen = 0
		}
		for _, r := range e.log[sh.seen:] {
			sh.newest[r.ID] = r
		}
		sh.seen = len(e.log)
		for id, r := range sh.newest {
			t := e.tasks.get(id)
			if t == nil {
				return fmt.Errorf("task %d is logged but not registered", id)
			}
			if now := snapLocked(t); now.State != r.State || now.Epoch != r.Epoch || now.Completed != r.Completed || !slices.Equal(now.OutputKeys, r.OutputKeys) {
				return fmt.Errorf("task %d: newest logged record %+v, the task is %+v", id, r, now)
			}
		}
		return nil
	})
}

// checkReservations holds every pool node's books to the engine's: its
// busy cores and its reservation count equal the sums over the engine's
// Running tasks placed on it, primary and group peers both. A node clamps
// an over-release at its capacity (resources.Node.Release), so a
// reservation released twice, or never, is silent there; here it fails
// the step it happens in. Only runs whose every reservation the engine
// makes may install it: an autoscaler's provisioning hold is invisible to
// the engine. Caller holds e.mu.
func checkReservations(e *Engine) error {
	type held struct{ cores, n int }
	want := map[*resources.Node]held{}
	for _, t := range e.tasks.all {
		if t.state != Running {
			continue
		}
		for _, n := range append([]*resources.Node{t.node}, t.peers()...) {
			h := want[n]
			h.cores += t.Constraints.EffectiveCores()
			h.n++
			want[n] = h
		}
	}
	for _, n := range e.cfg.Pool.Nodes() {
		h := want[n]
		if busy, running := n.BusyCores(), n.Running(); busy != h.cores || running != h.n {
			return fmt.Errorf("node %s: %d busy cores in %d reservations, the engine's running tasks hold %d in %d",
				n.Name(), busy, running, h.cores, h.n)
		}
	}
	return nil
}

// CheckReservationSteps holds the pool's reservations to
// checkReservations at every engine step until the test ends.
func CheckReservationSteps(t testing.TB) {
	CheckSteps(t, "reservations", checkReservations)
}

// Placed is one task the engine holds Running: its ID, its placement
// epoch, whether it was placed under an availability-recompute hint, and
// the names of the nodes it holds, primary first.
type Placed struct {
	ID     int64
	Epoch  int
	Hinted bool
	Nodes  []string
}

// RunningPlacements lists the tasks Running at a step, in registration
// order. Caller holds e.mu (a CheckSteps check).
func RunningPlacements(e *Engine) []Placed {
	var out []Placed
	for _, t := range e.tasks.all {
		if t.state != Running {
			continue
		}
		p := Placed{ID: t.ID, Epoch: int(t.epoch), Hinted: t.availNeed() != "", Nodes: []string{t.node.Name()}}
		for _, n := range t.peers() {
			p.Nodes = append(p.Nodes, n.Name())
		}
		out = append(out, p)
	}
	return out
}
