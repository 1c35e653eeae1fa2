// The ready queue and its placement waves: registration (Add, the shared
// constraint records and the edge wiring), dependency release into
// per-signature buckets and their load readout (SigLoads), the wave loop
// that places bucket heads, and the work-stealing phase after it.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/deps"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/trace"
)

// bucket is one signature's ready FIFO. blocked marks the wave in which
// the head failed to place, parking the whole bucket for that wave; seen
// marks the wave whose candidate view currently holds the bucket, so a
// mid-wave refill re-admits it exactly once. The per-signature
// ready-depth series reads len(q) (see pushReadyLocked).
//
// q is a window over a backing array that starts at base, off slots before
// q[0]: popping the head advances the window instead of giving the front
// capacity away, and insert slides the window back before it would grow.
// Every other site edits q in place, which keeps the window's start.
type bucket struct {
	idx     resources.SigIndex // the signature's placement-index view (and label)
	q       []*Task
	base    []*Task // q's backing array from its first slot (length 0)
	off     int     // popped slots between base and q
	blocked int
	seen    int
}

// pop removes the head; an emptied queue rewinds to the array's start.
func (b *bucket) pop() {
	b.q, b.off = b.q[1:], b.off+1
	if len(b.q) == 0 {
		b.q, b.off = b.base, 0
	}
}

// insert places t at position at. A window that has run into the end of
// its array with at least as many popped slots in front as live entries
// slides down over them (amortised O(1) per pop) rather than reallocating
// — on a dataflow graph, where tasks become ready one completion at a
// time, that is every push.
func (b *bucket) insert(at int, t *Task) {
	if len(b.q) == cap(b.q) && b.off >= len(b.q) {
		b.q = b.base[:copy(b.base[:cap(b.base)], b.q)]
		b.off = 0
	}
	was := cap(b.q)
	b.q = slices.Insert(b.q, at, t)
	if cap(b.q) != was { // grown into a fresh array
		b.base, b.off = b.q[:0], 0
	}
}

// ErrDuplicateID refuses a task whose ID is already registered.
var ErrDuplicateID = errors.New("engine: duplicate task ID")

// Add registers tasks under a single lock acquisition, in slice order,
// so dependencies may point at earlier batch members. producers[i] lists
// the tasks ts[i] must wait for (from the access processor); producers
// already completed — or unknown to the engine — count as satisfied.
// holds[i] adds synthetic dependencies on ts[i], cleared later through
// ReleaseHold (delayed-release arrivals, admission-queued submissions); a
// nil holds means none anywhere. Add does not trigger placement — it
// reports whether any task went straight to the ready queue, so the caller
// knows whether a Schedule is worthwhile — and returns the first refused
// task's error; the rest of the batch is registered regardless.
func (e *Engine) Add(ts []*Task, producers [][]deps.TaskID, holds []int) (ready bool, err error) {
	e.mu.Lock()
	defer e.unlock()
	for i, t := range ts {
		h := 0
		if holds != nil {
			h = holds[i]
		}
		r, addErr := e.addLocked(t, producers[i], h)
		ready = ready || r
		if err == nil {
			err = addErr
		}
	}
	e.wireLocked()
	return ready, err
}

// edge is one resolved dependency: t waits for p.
type edge struct{ p, t *Task }

// addLocked registers t and counts its edges; the caller follows its last
// addLocked with wireLocked, which hangs every counted edge on its
// producer. Splitting the two lets a batch size each producer's list once.
func (e *Engine) addLocked(t *Task, producers []deps.TaskID, holds int) (bool, error) {
	if e.tasks.get(t.ID) != nil {
		return false, fmt.Errorf("%w: %d", ErrDuplicateID, t.ID)
	}
	e.shareLocked(t)
	t.state = Pending
	t.submitAt = e.cfg.Clock.Now()
	t.readyAt, t.firstStart, t.doneAt = -1, -1, -1
	e.logLocked(t)
	for _, d := range producers {
		if p := e.tasks.get(int64(d)); p != nil && !p.completed {
			if p.fanOut++; len(p.dependents) == 0 {
				e.freshEdges++
			}
			e.edges = append(e.edges, edge{p, t})
			t.waitCount++
		}
	}
	t.holds = int32(holds)
	if early := e.earlyHolds[t.ID]; early > 0 { // releases that overtook this registration
		delete(e.earlyHolds, t.ID)
		t.holds = max(t.holds-early, 0)
	}
	t.waitCount += t.holds
	if e.producer != nil {
		for _, k := range t.OutputKeys {
			e.producer[k] = t
		}
	}
	e.tasks.add(t)
	if t.waitCount == 0 {
		t.state = Ready
		e.pushReadyLocked(t)
		return true, nil
	}
	return false, nil
}

// shareLocked interns t's signature and points t at the signature's one
// constraint record, made from t's set when the signature is new. The
// record owns its Software list, so no caller's edit reaches it.
func (e *Engine) shareLocked(t *Task) {
	var c resources.Constraints
	switch r := t.Constraints.(type) {
	case *resources.Constraints:
		if r != nil {
			c = *r
		}
	case resources.Constraints:
		c = r
	}
	t.sig = e.cfg.Pool.IndexFor(c).ID()
	for int(t.sig) >= len(e.cons) {
		e.cons = append(e.cons, nil)
	}
	if e.cons[t.sig] == nil {
		rec := new(resources.Constraints)
		*rec, rec.Software = c, slices.Clone(c.Software)
		e.cons[t.sig] = rec
	}
	t.Constraints = e.cons[t.sig]
}

// cons returns t's shared constraint record; Add installed it.
func (t *Task) cons() *resources.Constraints {
	return t.Constraints.(*resources.Constraints)
}

// wireLocked hangs the edges addLocked counted on their producers, in
// registration order. A producer with no dependents yet gets its list
// carved — cap == len, so a later append copies out — from one array shared
// by the whole call; one that has some grows once, by what the call adds.
func (e *Engine) wireLocked() {
	room := make([]*Task, e.freshEdges)
	for _, ed := range e.edges {
		p := ed.p
		if n := int(p.fanOut); n > 0 { // first sighting: make room for all n
			if len(p.dependents) == 0 {
				p.dependents, room = room[:0:n], room[n:]
			} else {
				p.dependents = slices.Grow(p.dependents, n)
			}
			p.fanOut = 0
		}
		p.dependents = append(p.dependents, ed.t)
	}
	clear(e.edges) // scratch must not pin tasks
	e.edges, e.freshEdges = e.edges[:0], 0
}

// ReleaseHold clears one synthetic dependency of a pending task and
// reports whether the task became ready (in which case the caller should
// Schedule). Holds are counted apart from producer edges, so a surplus
// release is refused instead of eating an unmet input. A release for an
// ID not registered yet is banked for its Add, which then reports the
// task ready itself.
func (e *Engine) ReleaseHold(id int64) bool {
	e.mu.Lock()
	defer e.unlock()
	t := e.tasks.get(id)
	if t == nil {
		if e.earlyHolds == nil {
			e.earlyHolds = make(map[int64]int32)
		}
		e.earlyHolds[id]++
		return false
	}
	if t.holds == 0 {
		return false
	}
	t.holds--
	return e.edgeClearedLocked(t)
}

// edgeClearedLocked drops one of t's waits and queues it when that was
// the last; it reports whether t became ready.
func (e *Engine) edgeClearedLocked(t *Task) bool {
	t.waitCount--
	if t.waitCount != 0 || t.state != Pending {
		return false
	}
	t.state = Ready
	e.pushReadyLocked(t)
	return true
}

// pushReadyLocked inserts a ready task into its signature bucket, keeping
// the bucket ordered by (priority desc, ID asc). Priority is evaluated
// once, at push time (for prioritising policies). The push logs the task's
// record (a Pending→Ready transition is snapshot-relevant) and, mid-wave,
// re-admits a refilled bucket into the wave's candidate view.
func (e *Engine) pushReadyLocked(t *Task) {
	e.logLocked(t)
	if t.readyAt < 0 {
		t.readyAt = e.cfg.Clock.Now()
	}
	if e.prio != nil {
		t.prio = e.prio.Priority(e.viewLocked(t), e.cfg.SchedContext)
	}
	for int(t.sig) >= len(e.ready) {
		e.ready = append(e.ready, nil)
	}
	b := e.ready[t.sig]
	if b == nil {
		idx := e.cfg.Pool.IndexFor(*t.cons())
		b = &bucket{idx: idx}
		e.ready[t.sig] = b
		if reg := e.cfg.Metrics; reg != nil {
			reg.GaugeFunc("flowgo_ready_depth", "Ready-queue depth per constraint signature.",
				obsv.Labels("sig", idx.Label()), e.read(func() int64 { return int64(len(b.q)) }))
		}
		pos := sort.Search(len(e.sigs), func(i int) bool { return e.sigs[i].idx.Label() >= idx.Label() })
		e.sigs = slices.Insert(e.sigs, pos, b)
	}
	if e.waveActive && b.seen != e.wave && b.blocked != e.wave {
		// A bucket that drained (or never existed) earlier in this wave
		// just refilled — availability recomputes resubmit producers into
		// the running wave. Blocked buckets stay out: nothing unblocks a
		// signature until the next wave.
		b.seen = e.wave
		e.cand = append(e.cand, b)
	}
	// The common case (ascending IDs, equal priority) belongs at the tail
	// and costs one comparison; only an out-of-order push searches.
	at := len(b.q)
	if at > 0 && headLess(t, b.q[at-1]) {
		at = sort.Search(at, func(i int) bool { return headLess(t, b.q[i]) })
	}
	b.insert(at, t)
	e.readyN.Add(1)
}

// SigLoad is one non-empty ready bucket's demand and supply snapshot:
// how many tasks of the signature are queued, and how many pool nodes
// could currently fit one (Fit, the index's exact saturation counter)
// or are capable at all (Capable, cordons and load ignored). A starved
// signature — Ready > 0, Capable == 0 — is the autoscaler's strongest
// grow signal: queued work no pool node could ever take. Fit == 0 with
// Capable > 0 is mere saturation.
type SigLoad struct {
	Sig         string
	Constraints resources.Constraints
	Ready       int
	Fit         int
	Capable     int
}

// SigLoads returns one entry per non-empty ready bucket, in signature
// order — deterministic for a given engine state. Constraints are the
// signature's shared record, read through the bucket's head task.
func (e *Engine) SigLoads() []SigLoad {
	e.mu.Lock()
	defer e.unlock()
	out := make([]SigLoad, 0, len(e.sigs))
	for _, b := range e.sigs {
		if len(b.q) == 0 {
			continue
		}
		out = append(out, SigLoad{
			Sig: b.idx.Label(), Constraints: *b.q[0].cons(),
			Ready: len(b.q), Fit: b.idx.FitCount(), Capable: b.idx.Len(),
		})
	}
	return out
}

// headLess orders bucket heads: multi-node first, then higher priority,
// then lower ID. Tasks of one signature want as many nodes.
func headLess(a, b *Task) bool {
	if a.sig != b.sig {
		if an, bn := a.cons().EffectiveNodes(), b.cons().EffectiveNodes(); an != bn {
			return an > bn
		}
	}
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.ID < b.ID
}

// viewLocked fills the scratch scheduler-facing summary of a task. The
// returned pointer is only valid until the next call; policies read it
// during the decision and never retain it.
func (e *Engine) viewLocked(t *Task) *sched.TaskView {
	e.view = sched.TaskView{
		ID:          t.ID,
		Class:       t.Class,
		Constraints: *t.cons(),
		EstDuration: t.EstDuration,
		InputKeys:   t.InputKeys,
		InputBytes:  t.InputBytes,
	}
	return &e.view
}

// Schedule runs one placement wave: best queue head first, until every
// signature is blocked or the buckets drain. Executor.Launch is invoked
// after the engine lock is released, in placement order. An empty ready
// set returns without touching either lock — the common case on a
// completion storm whose successors are not yet released, and the reason
// a million-task drain does not serialise on wave setup.
func (e *Engine) Schedule() {
	if e.readyN.Load() == 0 {
		return
	}
	e.launchMu.Lock()
	e.mu.Lock()
	e.launch = e.placeWaveLocked(e.launch[:0])
	e.unlock()
	for _, p := range e.launch {
		e.cfg.Executor.Launch(p)
	}
	e.launchMu.Unlock()
}

// placeWaveLocked is the placement loop, appending into placed. A head
// that cannot be placed blocks its whole signature for the rest of the
// wave: placeability depends only on the constraint signature, so its
// siblings cannot be placed either — except through a policy decline,
// which is task-specific; the steal phase below revisits those. A wave
// whose placements staged replicas some parked task is waiting for wakes
// those waiters and runs again (fresh wave, blocked flags reset), so
// data made reachable by ordinary staging releases deferred work without
// waiting for a heal.
func (e *Engine) placeWaveLocked(placed []Placement) []Placement {
	if e.readyN.Load() == 0 {
		return placed
	}
	e.waveActive = true
	defer func() { e.waveActive = false }()
	m := e.met
	for {
		e.wave++
		// Wave shape metrics. Duration is on the engine clock: zero in the
		// simulator (virtual time stands still inside a wave), wall time
		// live. The Now() calls are skipped entirely when metrics are off.
		var waveStart time.Duration
		if m.WaveSeconds != nil {
			waveStart = e.cfg.Clock.Now()
		}
		waveBase := len(placed)
		// Build this wave's candidate view once: every non-empty bucket.
		// The selection loop below scans and compacts this view instead of
		// rescanning every signature ever registered per placement — on a
		// graph that has accumulated thousands of signatures but has a
		// handful live, that is the difference between O(placements ×
		// live) and O(placements × everything).
		e.cand = e.cand[:0]
		for _, b := range e.sigs {
			if len(b.q) > 0 {
				b.seen = e.wave
				e.cand = append(e.cand, b)
			}
		}
		for {
			var bestB *bucket
			var best *Task
			live := e.cand[:0]
			for _, b := range e.cand {
				if b.blocked == e.wave {
					continue // parked for the wave; drops out of the view
				}
				if len(b.q) == 0 {
					b.seen = 0 // drained; a mid-wave refill re-admits it
					continue
				}
				live = append(live, b)
				if t := b.q[0]; best == nil || headLess(t, best) {
					bestB, best = b, t
				}
			}
			e.cand = live
			if best == nil {
				break
			}
			p, outcome := e.placeLocked(best)
			switch outcome {
			case placeOK:
				placed = append(placed, p)
				bestB.pop()
				e.readyN.Add(-1)
			case placeUnavailable:
				// The head's inputs are unreachable: divert it onto the
				// parked list (which may resubmit producers into
				// this very wave) and keep placing — unavailability is
				// task-specific, so the bucket is not blocked.
				bestB.pop()
				e.readyN.Add(-1)
				m.DeclineUnavailable.Inc()
				e.divertUnavailableLocked(best)
			case placeNoCapacity:
				bestB.blocked = e.wave
				m.DeclineNoCapacity.Inc()
			default:
				bestB.blocked = e.wave
				m.DeclineDeclined.Inc()
			}
		}
		if e.cfg.Steal.Mode != StealOff && e.readyN.Load() > 0 {
			placed = e.stealWaveLocked(placed)
		}
		m.WaveSize.Observe(float64(len(placed) - waveBase))
		if m.WaveSeconds != nil {
			m.WaveSeconds.ObserveDuration(e.cfg.Clock.Now() - waveStart)
		}
		if len(e.pendingWakes) == 0 {
			return placed
		}
		woken := 0
		for _, k := range e.pendingWakes {
			woken += e.wakeKeyLocked(k)
		}
		e.pendingWakes = e.pendingWakes[:0]
		if woken == 0 {
			return placed
		}
	}
}

// stealWaveLocked is the work-stealing phase of a placement wave: every
// bucket the wave parked is re-scanned from the tail (the deepest,
// lowest-priority entry) towards — but never including — the head, and
// each entry is offered to whatever capacity the wave left idle through
// the ordinary placement path. The head is never stolen: it keeps its
// priority claim on the tier it is waiting for, and everything that is
// not stolen keeps its bucket order. A signature-wide capacity failure
// ends the bucket's scan at once — nothing shallower can fit either.
//
// A stolen task is indistinguishable from a normally placed one to the
// rest of the engine: same reservation, staging, epoch and trace
// choreography, so FailNode/Partition recovery applies to it unchanged.
func (e *Engine) stealWaveLocked(placed []Placement) []Placement {
	for _, b := range e.sigs {
		if b.blocked != e.wave || len(b.q)-1 <= e.cfg.Steal.Threshold {
			continue
		}
		for i := len(b.q) - 1; i >= 1; i-- {
			t := b.q[i]
			e.met.StealAttempts.Inc()
			p, outcome := e.placeLocked(t)
			if outcome == placeNoCapacity {
				break
			}
			if outcome == placeDeclined || outcome == placeUnavailable {
				// Unavailable entries are left queued rather than parked:
				// diverting would mutate the bucket mid-scan, and the
				// entry is classified properly once it reaches the head.
				continue
			}
			b.q = append(b.q[:i], b.q[i+1:]...)
			e.readyN.Add(-1)
			e.stats.Steals++
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Record(trace.Event{
					At: e.cfg.Clock.Now(), Kind: trace.TaskStolen, Task: t.ID,
					Node: p.Primary().Name(), Info: b.idx.Label(),
				})
			}
			placed = append(placed, p)
		}
	}
	return placed
}
