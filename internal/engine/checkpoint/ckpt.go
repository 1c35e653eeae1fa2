// The Checkpointer: who captures, who folds and writes, and when the
// store may be read.
//
// Capturing is the backend's: the goroutine that drives the engine (the
// simulator's, or whichever live goroutine completed the triggering task)
// takes the first base with CheckpointBase and, at every trigger after
// it, a delta with CheckpointDelta — O(changes), compactions and full
// mode included. It queues the capture and goes on. One writer goroutine
// takes the queue in capture order: it folds every delta into a running
// state with the merger Store.Latest reconstructs with, writes the delta
// as it stands, or — when the cadence calls for a base (the chain holds
// CompactEvery deltas, or every save in full mode) — writes the fold as
// that base. The fold of a clean chain is the state a CaptureBase would
// have found at that instant, so the file is the same bytes. At most
// maxUnwritten saves wait for the writer; a capture blocks only beyond
// that. The writer exists only while saves are queued: it is started by
// the save that finds none running and exits when the queue is empty.
//
// The store holds every queued save once Flush, Drained or Stop returns —
// the host reaches them at the end of a simulation run, at the live
// runtime's Barrier and at Shutdown — so that is when a caller may read it.
package checkpoint

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// Source produces snapshots. internal/host implements it once for both
// backends: the shared engine's state plus the location registry, with
// the live runtime's encoded output values attached through a hook.
type Source interface {
	// CheckpointSnapshot captures the full state without touching the
	// dirty sets (the on-demand and drain saves).
	CheckpointSnapshot() *Snapshot
	// CheckpointBase captures the full state and resets the dirty sets,
	// starting a delta chain.
	CheckpointBase() *Snapshot
	// CheckpointDelta drains the dirty sets into a delta.
	CheckpointDelta() *Delta
	// CheckpointDirty reports how many records changed since the last
	// base or delta capture — zero means a capture would be a no-op.
	CheckpointDirty() int
}

// DefaultCompactEvery is the delta-chain length at which the
// Checkpointer writes a fresh base when Config.CompactEvery is unset:
// long enough that base cost amortises to a small constant per capture,
// short enough that reconstruction replays a bounded chain.
const DefaultCompactEvery = 8

// maxUnwritten is how many captured saves may wait for the writer before
// the next capture blocks.
const maxUnwritten = 2

// Config wires a Checkpointer into a backend.
type Config struct {
	// Store receives snapshots. Required.
	Store *Store
	// Policy decides when snapshots are taken automatically.
	Policy Policy
	// Delta switches automatic saves to incremental mode: a full base
	// first, then deltas carrying only the changes since the previous
	// save, with a fresh base (compaction) every CompactEvery deltas.
	// On-demand Save and the drain save always write full snapshots.
	Delta bool
	// CompactEvery is the number of consecutive deltas after which the
	// next automatic save writes a full base instead (default
	// DefaultCompactEvery).
	CompactEvery int
	// Metrics, when set, records capture wall time, per-delta dirty-set
	// size and save counts. Capture cost is real serialization work, so
	// it is measured on the wall clock even under the simulator — these
	// are the one engine-metric family that is NOT deterministic in sim
	// (the CI determinism smoke runs checkpoint-free). Optional.
	Metrics *obsv.CkptMetrics
}

// save is one queued write: a full capture written as it stands (seed:
// the first base, which also starts the fold), or a delta the writer
// folds and then writes — as itself, or with compact as the fold.
type save struct {
	snap    *Snapshot
	d       *Delta
	seed    bool
	compact bool
	done    chan error // an on-demand Save waiting for its own write
}

// Checkpointer drives a Source against a Store under a Policy. The host
// calls TaskCompleted after every completion, Drained when the run
// finishes and Tick every Policy.Every of backend time. It is safe for
// concurrent use — wall timers fire from their own goroutines.
type Checkpointer struct {
	cfg    Config
	src    Source
	tracer *trace.Tracer

	completions atomic.Int64

	// capture serialises a capture with its queueing, so the queue holds
	// saves in capture order. It guards the cadence and seq.
	capture  sync.Mutex
	haveBase bool
	chainLen int // deltas since the last base
	seq      int // the store sequence number of the newest queued save

	mu         sync.Mutex
	written    *sync.Cond // broadcast on every finished write; waits on mu
	queue      []save
	unwritten  int   // queued or being written
	writing    bool  // the writer goroutine is running
	unreported error // an automatic save's failure the next Save returns
	stopped    bool

	fold *merger // the writer's running state; only the writer touches it
}

// baseQueued, set by tests, runs on the capturing goroutine for every
// queued save the writer will write as a snapshot file, with the sequence
// number the store will give it.
var baseQueued func(seq int)

// NewCheckpointer returns a checkpointer over src. tracer, the backend's,
// gets a CheckpointSaved event per queued save; nil records nothing.
func NewCheckpointer(cfg Config, src Source, tracer *trace.Tracer) *Checkpointer {
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewCkptMetrics(nil) // inert: nil instruments discard
	}
	c := &Checkpointer{cfg: cfg, src: src, tracer: tracer, seq: cfg.Store.lastSeq()}
	c.written = sync.NewCond(&c.mu)
	return c
}

// Tick is the ModeInterval trigger: the host's periodic tick calls it
// every Policy.Every on the backend's clock — virtual time on the
// simulator (liveness-gated, so a self-re-arming interval cannot keep a
// drained or wedged simulation ticking), a wall timer live.
func (c *Checkpointer) Tick() {
	if c.cfg.Policy.Mode == ModeInterval {
		c.autoSave()
	}
}

// TaskCompleted notifies the checkpointer of one task completion (the
// ModeEveryN trigger). Backends call it after the engine completion, so
// the snapshot includes the just-finished task.
func (c *Checkpointer) TaskCompleted() {
	if c.cfg.Policy.Mode != ModeEveryN || c.cfg.Policy.N <= 0 {
		return
	}
	if c.completions.Add(1)%int64(c.cfg.Policy.N) == 0 {
		c.autoSave()
	}
}

// Drained notifies the checkpointer that every submitted task has
// finished (the ModeOnDrain trigger) and returns once every queued save
// is written.
func (c *Checkpointer) Drained() {
	if c.cfg.Policy.Mode == ModeOnDrain {
		_ = c.Save()
		return
	}
	c.Flush()
}

// Save captures and persists one full snapshot immediately, regardless
// of policy — the on-demand checkpoint — and returns its write's error,
// or else the failure of an automatic save not yet reported. The capture
// is side-effect-free (dirty sets are left alone), so an explicit Save
// never perturbs a running delta chain: the next delta simply carries a
// superset of the changes, and absolute records make re-application
// harmless.
func (c *Checkpointer) Save() error {
	c.capture.Lock()
	if !c.reserve() {
		c.capture.Unlock()
		return nil
	}
	start := time.Now()
	snap := c.src.CheckpointSnapshot()
	c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
	done := make(chan error, 1)
	c.enqueue(save{snap: snap, done: done}, snap.At)
	c.capture.Unlock()
	return <-done
}

// autoSave is the policy-triggered capture. It is change-aware: the first
// save captures a base, an idle trigger (no changes since the last
// capture) is skipped outright, and every later one captures a delta the
// writer folds — and writes as a compacting base every CompactEvery
// deltas in delta mode, every time in full mode.
func (c *Checkpointer) autoSave() {
	c.capture.Lock()
	defer c.capture.Unlock()
	if c.haveBase && c.src.CheckpointDirty() == 0 {
		return
	}
	if !c.reserve() {
		return
	}
	start := time.Now()
	if !c.haveBase {
		snap := c.src.CheckpointBase()
		c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
		c.haveBase = true
		c.enqueue(save{snap: snap, seed: true}, snap.At)
		return
	}
	compactEvery := c.cfg.CompactEvery
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	compact := !c.cfg.Delta || c.chainLen >= compactEvery
	if !compact {
		c.cfg.Metrics.DirtyRecords.Observe(float64(c.src.CheckpointDirty()))
	}
	d := c.src.CheckpointDelta()
	c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
	if d.Empty() { // an idle trigger that raced the dirty check
		return
	}
	if compact {
		c.chainLen = 0
	} else {
		c.chainLen++
	}
	c.enqueue(save{d: d, compact: compact}, d.At)
}

// reserve waits until the queue has room for one more save; false once
// stopped. Caller holds c.capture.
func (c *Checkpointer) reserve() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.stopped && c.unwritten >= maxUnwritten {
		c.written.Wait()
	}
	return !c.stopped
}

// enqueue hands sv to the writer, starting it when none is running, and
// records the save at its capture instant under the file name the store
// will give it, less the digest only the writer learns. Caller holds
// c.capture, so names follow the store's sequence. A save that meets Stop
// here is dropped: Stop waits for nothing queued after it.
func (c *Checkpointer) enqueue(sv save, at time.Duration) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		if sv.done != nil {
			sv.done <- nil
		}
		return
	}
	c.queue = append(c.queue, sv)
	c.unwritten++
	start := !c.writing
	c.writing = true
	c.mu.Unlock()
	c.seq++
	prefix := snapPrefix
	if sv.d != nil && !sv.compact {
		prefix = deltaPrefix
	}
	if prefix == snapPrefix && baseQueued != nil {
		baseQueued(c.seq)
	}
	c.tracer.Record(trace.Event{At: at, Kind: trace.CheckpointSaved, Info: fileStem(prefix, c.seq)})
	if start {
		go c.write()
	}
}

// write is the writer goroutine: it persists the queue in order and exits
// when it is empty.
func (c *Checkpointer) write() {
	c.mu.Lock()
	for len(c.queue) > 0 {
		sv := c.queue[0]
		c.queue[0] = save{}
		c.queue = c.queue[1:]
		c.mu.Unlock()
		delta, err := c.persist(sv)
		c.mu.Lock()
		c.unwritten--
		switch {
		case err == nil:
			c.cfg.Metrics.Saves.Inc()
			if delta {
				c.cfg.Metrics.DeltaSaves.Inc()
			}
		case sv.done == nil:
			c.unreported = err
		}
		if sv.done != nil {
			if err == nil {
				err = c.unreported
			}
			c.unreported = nil
			sv.done <- err
		}
		c.written.Broadcast()
	}
	c.writing = false
	c.mu.Unlock()
}

// persist folds and writes one save, reporting whether it wrote a delta.
func (c *Checkpointer) persist(sv save) (delta bool, err error) {
	switch {
	case sv.d == nil:
		_, err = c.cfg.Store.Save(sv.snap)
		if sv.seed {
			c.fold = newMerger(sv.snap)
		}
	case sv.compact:
		c.fold.apply(sv.d)
		_, err = c.cfg.Store.Save(c.fold.snapshot())
	default:
		c.fold.apply(sv.d)
		_, err = c.cfg.Store.SaveDelta(sv.d)
		delta = true
	}
	return delta, err
}

// Flush returns once every save queued so far is written and the writer
// has left.
func (c *Checkpointer) Flush() {
	c.mu.Lock()
	for c.writing {
		c.written.Wait()
	}
	c.mu.Unlock()
}

// Stop disables further snapshots (armed interval callbacks become
// no-ops) and returns once the saves already queued are written. Pending
// wall timers are not cancelled, only neutered.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.written.Broadcast() // a capture waiting for room gives up
	c.mu.Unlock()
	c.Flush()
}
