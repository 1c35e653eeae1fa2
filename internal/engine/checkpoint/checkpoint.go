// Package checkpoint persists the scheduling engine's state — completed
// tasks, the ready/pending frontier, the data catalog and activity
// counters — to a versioned, content-addressed on-disk format, and
// replays a snapshot into a fresh engine so a crashed run resumes with
// only its unfinished tasks re-executing. Lineage recovery
// (internal/engine/faults) survives losing a node; this package is the
// durability layer that survives losing the whole process: the paper's
// long-running scientific campaigns (multi-day GWAS sweeps, forecast
// cycles) cannot afford to replay hours of completed work after a
// runtime crash.
//
// The subsystem is backend-agnostic by the same construction as the
// fault subsystem: the control plane both backends embed (internal/host)
// implements Source once — engine.SnapshotTasks plus the location
// registry, with the live runtime's gob-encoded output values attached
// so futures can be re-seeded on restore — and drives the policies
// (Off, Interval, EveryN, OnDrain) on the backend's clock: Tick from its
// liveness-gated periodic timer (so a self-re-arming interval cannot
// keep a drained or wedged simulation ticking), TaskCompleted after each
// completion and before the next placement wave, so an every-N snapshot
// captures the identical post-completion, pre-placement state on either
// backend — the invariant the checkpoint parity suite compares with
// Equivalent.
//
// On disk a snapshot is a JSON projection (Snapshot) written through
// Store: content-addressed names (snap-<seq>-<sha256:16>.ckpt), atomic
// temp-and-rename writes, format versioning (Format), bounded retention
// (Keep), and a Latest that skips corrupt or truncated files back to
// the previous valid snapshot, so damage costs one checkpoint interval
// rather than the run.
//
// Restore is cooperative and placement-aware: the application
// re-registers the same workflow (same order, so task IDs line up), the
// backend seeds the location registry from the snapshot's catalog —
// keeping replicas on nodes the new pool still holds, and re-staging
// versions whose every recorded node has vanished from the persist tier
// (or, live, from the snapshot's encoded values) onto a surviving node
// ahead of demand — then marks recorded completions through
// engine.RestoreCompleted; the ordinary transfer planner covers any
// later miss. A task whose recorded outputs cannot be restored (value
// not serialisable, no tier holding it) is simply left to re-run —
// restore degrades to recompute, never to wrong answers. The restore
// may therefore target a different pool than the one that snapshotted:
// experiment E15b asserts a shrunk-pool restore recomputes nothing.
package checkpoint

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/transfer"
)

// Format is the snapshot format version. Loaders reject snapshots from a
// different format rather than guessing at field semantics.
const Format = 1

// CatalogKey names one immutable data version inside a snapshot: it IS
// deps.Version, whose JSON tags are part of Format.
type CatalogKey = deps.Version

// TaskRecord is one completed task in a snapshot.
type TaskRecord struct {
	// ID is the task's graph-unique ID (stable across restarts as long
	// as the workflow is re-submitted in the same order).
	ID int64 `json:"id"`
	// Epoch is the placement counter at capture time.
	Epoch int `json:"epoch"`
	// Outputs lists the data versions the task produced (the engine
	// task's own immutable list when captured, not a copy).
	Outputs []deps.Version `json:"outputs,omitempty"`
}

// CatalogEntry records one data version: its size, its replica
// locations, and — on the live backend — the encoded value itself.
type CatalogEntry struct {
	Key       deps.Version `json:"key"`
	Size      int64        `json:"size,omitempty"`
	Locations []string     `json:"locations,omitempty"`
	// Value is the gob-encoded produced value (live backend only; see
	// EncodeValue). Absent values make the producing task re-run on
	// restore rather than resolve to a wrong future.
	Value    []byte `json:"value,omitempty"`
	HasValue bool   `json:"has_value,omitempty"`
}

// Snapshot is one persisted engine state.
type Snapshot struct {
	// Format is the snapshot format version (see Format).
	Format int `json:"format"`
	// Seq is the store-assigned sequence number (monotonic per store).
	Seq int `json:"seq"`
	// At is the engine clock offset when the snapshot was captured
	// (virtual time on the simulator, elapsed wall time live).
	At time.Duration `json:"at"`
	// Completed lists every task that has completed at least once and is
	// not currently mid-re-execution.
	Completed []TaskRecord `json:"completed"`
	// Ready, Running and Pending record the scheduling frontier at
	// capture time: queued-for-placement, holding reservations, and
	// waiting on dependencies respectively. Running and Pending tasks
	// re-run after a restore; the sets exist for diagnostics and for the
	// backend-parity suite.
	Ready   []int64 `json:"ready,omitempty"`
	Running []int64 `json:"running,omitempty"`
	Pending []int64 `json:"pending,omitempty"`
	// Catalog is the data-version catalog (handle → size/locations, plus
	// encoded values on the live backend).
	Catalog []CatalogEntry `json:"catalog,omitempty"`
	// Order is every registered task ID in registration order — the
	// interleaving the four sections above lose. Delta reconstruction
	// needs it to rebuild the sections of a later state in the exact
	// order a direct capture would produce. Snapshots written before the
	// field existed omit it; TaskOrder falls back to ascending IDs.
	Order []int64 `json:"order,omitempty"`
	// Stats are the engine's activity counters at capture time.
	Stats engine.Stats `json:"stats"`
}

// CompletedIDs returns the completed task IDs in snapshot order.
func (s *Snapshot) CompletedIDs() []int64 {
	out := make([]int64, len(s.Completed))
	for i, r := range s.Completed {
		out[i] = r.ID
	}
	return out
}

// TaskOrder returns every task ID in registration order: the Order
// field when present, otherwise all section IDs sorted ascending — both
// backends assign IDs in submission order, so ascending ID equals
// registration order for snapshots predating the field.
func (s *Snapshot) TaskOrder() []int64 {
	if len(s.Order) > 0 {
		return append([]int64(nil), s.Order...)
	}
	ids := make([]int64, 0, len(s.Completed)+len(s.Ready)+len(s.Running)+len(s.Pending))
	for _, r := range s.Completed {
		ids = append(ids, r.ID)
	}
	ids = append(ids, s.Ready...)
	ids = append(ids, s.Running...)
	ids = append(ids, s.Pending...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Capture assembles a snapshot of the engine's current state. reg, when
// non-nil, supplies the data catalog (sizes and replica locations); the
// live backend additionally attaches encoded values afterwards. Capture
// is side-effect-free: it leaves the dirty sets feeding delta captures
// untouched, so parity probes can snapshot at will.
func Capture(e *engine.Engine, reg *transfer.Registry) *Snapshot {
	var entries []transfer.Entry
	if reg != nil {
		entries = reg.Entries()
	}
	return build(e, e.SnapshotTasks(), entries)
}

// CaptureBase is Capture with a dirty-set reset on both the engine and
// the registry: the full snapshot that starts (or compacts) a delta
// chain. The deltas captured after it cover exactly the changes since.
func CaptureBase(e *engine.Engine, reg *transfer.Registry) *Snapshot {
	snaps := e.SnapshotTasksClean()
	var entries []transfer.Entry
	if reg != nil {
		entries = reg.EntriesClean()
	}
	return build(e, snaps, entries)
}

func build(e *engine.Engine, tasks []engine.TaskSnap, entries []transfer.Entry) *Snapshot {
	snap := &Snapshot{Format: Format, At: e.Now(), Stats: e.Stats()}
	if len(tasks) > 0 {
		snap.Order = make([]int64, 0, len(tasks))
	}
	for _, ts := range tasks {
		snap.Order = append(snap.Order, ts.ID)
		switch {
		case ts.Completed && ts.State == engine.Done:
			snap.Completed = append(snap.Completed, TaskRecord{ID: ts.ID, Epoch: ts.Epoch, Outputs: ts.OutputKeys})
		case ts.State == engine.Ready:
			snap.Ready = append(snap.Ready, ts.ID)
		case ts.State == engine.Running:
			snap.Running = append(snap.Running, ts.ID)
		default:
			snap.Pending = append(snap.Pending, ts.ID)
		}
	}
	for _, en := range entries {
		snap.Catalog = append(snap.Catalog, CatalogEntry{
			Key:       en.Key,
			Size:      en.Size,
			Locations: en.Locations,
		})
	}
	return snap
}

// Equivalent reports whether two snapshots describe the same logical
// engine state: completed set, scheduling frontier, catalog keys, sizes
// and locations, and the deterministic activity counters. Clock offsets,
// sequence numbers and encoded values are ignored — they legitimately
// differ between a wall-clock and a virtual-time backend. It returns nil
// or an error naming the first difference; the backend-parity suite runs
// on it.
func Equivalent(a, b *Snapshot) error {
	if len(a.Completed) != len(b.Completed) {
		return fmt.Errorf("completed counts differ: %d vs %d", len(a.Completed), len(b.Completed))
	}
	for i := range a.Completed {
		ra, rb := a.Completed[i], b.Completed[i]
		if ra.ID != rb.ID {
			return fmt.Errorf("completed[%d]: task %d vs %d", i, ra.ID, rb.ID)
		}
		if len(ra.Outputs) != len(rb.Outputs) {
			return fmt.Errorf("completed task %d: %d vs %d outputs", ra.ID, len(ra.Outputs), len(rb.Outputs))
		}
		for j := range ra.Outputs {
			if ra.Outputs[j] != rb.Outputs[j] {
				return fmt.Errorf("completed task %d output %d: %+v vs %+v", ra.ID, j, ra.Outputs[j], rb.Outputs[j])
			}
		}
	}
	for _, set := range []struct {
		name string
		x, y []int64
	}{{"ready", a.Ready, b.Ready}, {"running", a.Running, b.Running}, {"pending", a.Pending, b.Pending}} {
		if len(set.x) != len(set.y) {
			return fmt.Errorf("%s sets differ: %v vs %v", set.name, set.x, set.y)
		}
		for i := range set.x {
			if set.x[i] != set.y[i] {
				return fmt.Errorf("%s sets differ: %v vs %v", set.name, set.x, set.y)
			}
		}
	}
	if len(a.Catalog) != len(b.Catalog) {
		return fmt.Errorf("catalog sizes differ: %d vs %d", len(a.Catalog), len(b.Catalog))
	}
	for i := range a.Catalog {
		ca, cb := a.Catalog[i], b.Catalog[i]
		if ca.Key != cb.Key {
			return fmt.Errorf("catalog[%d]: key %+v vs %+v", i, ca.Key, cb.Key)
		}
		// A zero size means "unknown on this backend" (the simulator
		// leaves undeclared outputs unsized; the live runtime measures
		// the produced value) and is compatible with any measurement.
		if ca.Size != cb.Size && ca.Size != 0 && cb.Size != 0 {
			return fmt.Errorf("catalog[%d] %+v: size %d vs %d", i, ca.Key, ca.Size, cb.Size)
		}
		if len(ca.Locations) != len(cb.Locations) {
			return fmt.Errorf("catalog %+v: locations %v vs %v", ca.Key, ca.Locations, cb.Locations)
		}
		for j := range ca.Locations {
			if ca.Locations[j] != cb.Locations[j] {
				return fmt.Errorf("catalog %+v: locations %v vs %v", ca.Key, ca.Locations, cb.Locations)
			}
		}
	}
	sa, sb := a.Stats, b.Stats
	if sa.Launched != sb.Launched || sa.Completed != sb.Completed ||
		sa.Restored != sb.Restored || sa.Reexecuted != sb.Reexecuted ||
		sa.Steals != sb.Steals || sa.Transfers != sb.Transfers ||
		sa.BytesMoved != sb.BytesMoved || sa.TransferTime != sb.TransferTime ||
		sa.RanMissing != sb.RanMissing || sa.Deferred != sb.Deferred ||
		sa.Woken != sb.Woken || sa.AvailRecomputes != sb.AvailRecomputes {
		return fmt.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
	return nil
}
