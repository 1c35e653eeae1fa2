package checkpoint

import (
	"sync"
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
	// starting (or compacting) a delta chain.
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

// Checkpointer drives a Source against a Store under a Policy. The host
// calls TaskCompleted after every completion, Drained when the run
// finishes and Tick every Policy.Every of backend time. It is safe for
// concurrent use — wall timers fire from their own goroutines.
type Checkpointer struct {
	cfg    Config
	src    Source
	tracer *trace.Tracer

	mu          sync.Mutex
	completions int
	saves       int
	deltaSaves  int // saves that were deltas (subset of saves)
	skipped     int // automatic captures skipped because nothing changed
	chainLen    int // deltas since the last base
	haveBase    bool
	lastErr     error
	stopped     bool
}

// NewCheckpointer returns a checkpointer over src. tracer, the backend's,
// gets a CheckpointSaved event per snapshot; nil records nothing.
func NewCheckpointer(cfg Config, src Source, tracer *trace.Tracer) *Checkpointer {
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewCkptMetrics(nil) // inert: nil instruments discard
	}
	return &Checkpointer{cfg: cfg, src: src, tracer: tracer}
}

// Tick is the ModeInterval trigger: the host's periodic tick calls it
// every Policy.Every on the backend's clock — virtual time on the
// simulator (liveness-gated, so a self-re-arming interval cannot keep a
// drained or wedged simulation ticking), a wall timer live.
func (c *Checkpointer) Tick() {
	if c.cfg.Policy.Mode == ModeInterval {
		_ = c.autoSave()
	}
}

// TaskCompleted notifies the checkpointer of one task completion (the
// ModeEveryN trigger). Backends call it after the engine completion, so
// the snapshot includes the just-finished task.
func (c *Checkpointer) TaskCompleted() {
	if c.cfg.Policy.Mode != ModeEveryN || c.cfg.Policy.N <= 0 {
		return
	}
	c.mu.Lock()
	c.completions++
	due := c.completions%c.cfg.Policy.N == 0
	c.mu.Unlock()
	if due {
		_ = c.autoSave()
	}
}

// Drained notifies the checkpointer that every submitted task has
// finished (the ModeOnDrain trigger).
func (c *Checkpointer) Drained() {
	if c.cfg.Policy.Mode == ModeOnDrain {
		_ = c.Save()
	}
}

// Save captures and persists one full snapshot immediately, regardless
// of policy — the on-demand checkpoint. The capture is side-effect-free
// (dirty sets are left alone), so an explicit Save never perturbs a
// running delta chain: the next delta simply carries a superset of the
// changes, and absolute records make re-application harmless.
func (c *Checkpointer) Save() error {
	start := time.Now()
	snap := c.src.CheckpointSnapshot()
	c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
	return c.commit(snap, nil, false)
}

// autoSave is the policy-triggered capture path. It is change-aware:
// the first save writes a base, an idle trigger (no changes since the
// last capture) is skipped outright instead of paying a full graph walk
// for a no-op snapshot, and — in delta mode — the steady state writes
// chained deltas with a compacting base every CompactEvery.
func (c *Checkpointer) autoSave() error {
	compact := c.cfg.CompactEvery
	if compact <= 0 {
		compact = DefaultCompactEvery
	}
	c.mu.Lock()
	if c.haveBase && c.src.CheckpointDirty() == 0 {
		c.skipped++
		c.mu.Unlock()
		return nil
	}
	delta := c.haveBase && c.cfg.Delta && c.chainLen < compact // else a base: to start a chain, or to compact it
	c.mu.Unlock()
	if !delta {
		start := time.Now()
		snap := c.src.CheckpointBase()
		c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
		return c.commit(snap, nil, true)
	}
	c.cfg.Metrics.DirtyRecords.Observe(float64(c.src.CheckpointDirty()))
	start := time.Now()
	d := c.src.CheckpointDelta()
	c.cfg.Metrics.CaptureSeconds.ObserveDuration(time.Since(start))
	return c.commit(nil, d, false)
}

// commit is the one persist path. Exactly one of snap and d is set: a
// full snapshot — starting (or compacting) a delta chain when base is
// set, because its capture reset the dirty sets, and leaving the chain
// bookkeeping alone otherwise (explicit Save) — or one delta, skipped
// when empty (an idle interval that raced the dirty check).
func (c *Checkpointer) commit(snap *Snapshot, d *Delta, base bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return nil
	}
	var (
		path string
		err  error
		at   time.Duration
	)
	switch {
	case d == nil:
		path, err = c.cfg.Store.Save(snap)
		at = snap.At
	case d.Empty():
		c.skipped++
		return nil
	default:
		path, err = c.cfg.Store.SaveDelta(d)
		at = d.At
	}
	if err != nil {
		c.lastErr = err
		return err
	}
	c.saves++
	c.cfg.Metrics.Saves.Inc()
	switch {
	case d != nil:
		c.deltaSaves++
		c.cfg.Metrics.DeltaSaves.Inc()
		c.chainLen++
	case base:
		c.haveBase = true
		c.chainLen = 0
	}
	c.tracer.Record(trace.Event{At: at, Kind: trace.CheckpointSaved, Info: path})
	return nil
}

// Stop disables further snapshots (armed interval callbacks become
// no-ops). Pending wall timers are not cancelled, only neutered.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
}

// Saves returns how many snapshots have been persisted (full and delta).
func (c *Checkpointer) Saves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

// DeltaSaves returns how many of the persisted saves were deltas.
func (c *Checkpointer) DeltaSaves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deltaSaves
}

// Skipped returns how many automatic captures were skipped because
// nothing changed since the previous one.
func (c *Checkpointer) Skipped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}

// Err returns the most recent save error, if any.
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}
