// The Checkpointer: who captures, who folds and writes, and when the
// store may be read.
//
// Every trigger — the interval tick, every N completions, the drain —
// takes the one save path. Capturing is the backend's: the goroutine that
// drives the engine takes the first base with CheckpointBase and, at
// every trigger after it, a delta with CheckpointDelta — a swap of the
// logs, compactions included; a swap that finds nothing is an idle
// trigger, dropped. It queues the capture and goes on. One writer
// goroutine takes the queue in capture order: it coalesces each group,
// folds it into a running state with the merger Store.Latest uses, and
// appends it to the base's log or — once the log holds compactEvery
// groups — writes the fold, the bytes a CaptureBase of that instant would
// give, as a fresh base. A written delta's arrays go back to the next
// capture. At most maxUnwritten saves wait for the writer; a capture
// blocks only beyond that. The writer runs only while saves are queued.
//
// The store holds every queued save once Flush, Drained or Stop returns —
// the host reaches them at the end of a simulation run, at the live
// runtime's Barrier and at Shutdown — so that is when a caller may read
// it. A write that fails is kept, the first one only, and Flush and
// Drained return it: the simulator's Run joins it to its own error, and a
// live caller reads it from the host's FlushCheckpoints.
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
	// CheckpointBase captures the full state and opens the logs empty.
	CheckpointBase() *Snapshot
	// CheckpointDelta swaps the logs out into spare, a delta the writer
	// is done with (nil for a new one): CaptureDeltaInto.
	CheckpointDelta(spare *Delta) *Delta
}

// compactEvery is the number of groups in a log after which the writer
// writes its fold as a fresh base: long enough that base cost amortises
// to a small constant per save, short enough that reconstruction replays
// a bounded log.
const compactEvery = 8

// maxUnwritten is how many captured saves may wait for the writer before
// the next capture blocks.
const maxUnwritten = 2

// Config wires a Checkpointer into a backend.
type Config struct {
	// Store receives snapshots. Required.
	Store *Store
	// Policy decides when snapshots are taken.
	Policy Policy
	// Delta is read by nothing: every save is a base or a delta folded
	// on the one cadence. It stays because the benchmark harness
	// (bench/sim.go) sets it, and goes when that harness next changes.
	Delta bool
	// Metrics, when set, records capture wall time, per-delta logged
	// records and save counts. Capture cost is real serialization work, so
	// it is measured on the wall clock even under the simulator — these
	// are the one engine-metric family that is NOT deterministic in sim
	// (the CI determinism smoke runs checkpoint-free). Optional.
	Metrics *obsv.CkptMetrics
}

// save is one queued write: the first base (snap), written as it stands
// and seeding the fold, or a delta the writer coalesces and folds and then
// writes — as a frame of the log, or with compact as the fold.
type save struct {
	snap    *Snapshot
	d       *Delta
	compact bool
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
	logLen   int // groups logged since the last base
	seq      int // the store sequence number of the newest queued save

	mu        sync.Mutex
	written   *sync.Cond // broadcast on every finished write; waits on mu
	queue     []save
	unwritten int   // queued or being written
	writing   bool  // the writer goroutine is running
	failed    error // the first write that failed; Flush and Drained return it
	stopped   bool
	spare     []*Delta // written deltas, whose arrays the next captures reuse

	// The writer's running state and scratch; only the writer touches them.
	fold *merger
	co   coalescer
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
// finished (the ModeOnDrain trigger), returns once every queued save is
// written, and reports the first write that failed, as Flush does.
func (c *Checkpointer) Drained() error {
	if c.cfg.Policy.Mode == ModeOnDrain {
		c.autoSave()
	}
	return c.Flush()
}

// autoSave is every trigger's one save. The first save captures a base;
// every later one swaps the logs out into a delta and, when nothing was
// logged since the last capture, drops it (an idle trigger). The writer
// appends the rest to the log, and writes its fold as a compacting base
// once the log holds compactEvery groups.
func (c *Checkpointer) autoSave() {
	c.capture.Lock()
	defer c.capture.Unlock()
	if !c.reserve() {
		return
	}
	start := time.Now()
	if !c.haveBase {
		snap := c.src.CheckpointBase()
		c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
		c.haveBase = true
		c.enqueue(save{snap: snap}, snap.At)
		return
	}
	var spare *Delta
	c.mu.Lock()
	if n := len(c.spare); n > 0 {
		spare, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	c.mu.Unlock()
	d := c.src.CheckpointDelta(spare)
	records := len(d.Tasks) + len(d.Catalog)
	if records == 0 {
		return
	}
	c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
	compact := c.logLen >= compactEvery
	if compact {
		c.logLen = 0
	} else {
		c.cfg.Metrics.LoggedRecords.Observe(float64(records))
		c.logLen++
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
		prefix = "frame-" // a group has no file of its own
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
		delta, w, err := c.persist(sv)
		c.cfg.Metrics.RecordsWritten.Add(int64(w.records))
		c.cfg.Metrics.BytesWritten.Add(int64(w.bytes))
		c.cfg.Metrics.Syncs.Add(int64(w.syncs))
		c.mu.Lock()
		c.unwritten--
		if sv.d != nil {
			c.spare = append(c.spare, sv.d)
		}
		switch {
		case err == nil:
			c.cfg.Metrics.Saves.Inc()
			if delta {
				c.cfg.Metrics.DeltaSaves.Inc()
			}
		case c.failed == nil:
			c.failed = err
		}
		c.written.Broadcast()
	}
	c.writing = false
	c.mu.Unlock()
}

// persist folds and writes one save, reporting whether it appended a
// group to the log and what it put on disk.
func (c *Checkpointer) persist(sv save) (delta bool, w written, err error) {
	switch {
	case sv.snap != nil:
		_, w, err = c.cfg.Store.save(sv.snap)
		c.fold = newMerger(sv.snap)
	case sv.compact:
		c.co.coalesce(sv.d)
		c.fold.apply(sv.d)
		_, w, err = c.cfg.Store.save(c.fold.snapshot())
	default:
		_, w, err = c.cfg.Store.saveDelta(sv.d) // coalesces it
		c.fold.apply(sv.d)
		delta = true
	}
	return delta, w, err
}

// Flush returns once every save queued so far is written and the writer
// has left, with the first write that failed (nil when none has). The
// failure is kept: every later Flush reports it again.
func (c *Checkpointer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.writing {
		c.written.Wait()
	}
	return c.failed
}

// Stop disables further snapshots (armed interval callbacks become
// no-ops) and returns once the saves already queued are written; a failed
// one stays for Flush to report. Pending wall timers are not cancelled,
// only neutered.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.written.Broadcast() // a capture waiting for room gives up
	c.mu.Unlock()
	_ = c.Flush() // a failed write is kept for the next Flush
}
