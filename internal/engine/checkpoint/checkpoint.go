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
// Equivalent. That goroutine captures and no more: the first base, then
// O(changes) deltas. One writer per Checkpointer folds each delta, encodes
// and writes, compacting bases included — a base is a fold, not a capture
// (ckpt.go) — and the store may be read once the host has flushed it.
//
// On disk a snapshot is Format 3: the encoding/gob form of a private wire
// struct that lays Snapshot out in columns (wire.go) — the catalog as a
// node table, key, size and holder-count columns and one flat column of
// node indices; task records as ID, epoch and output-count columns and
// one flat output column. Reading carves every row's Locations, Outputs
// and Value out of one array per column, so a file costs O(columns)
// allocations, not O(rows), and checks first that the columns agree
// (lengths, key order, counts, node indices, value rows): a file that does not is
// ErrCorrupt. Store adds content-addressed names
// (snap-<seq>-<sha256:16>.ckpt), atomic temp-and-rename writes, format
// versioning (Format), bounded retention (Keep), and a Latest that reads
// the newest valid chain, older ones only when damage sends it back — so
// damage costs one checkpoint interval and a restore one chain's reading.
//
// Restore is not here: the control plane replays a snapshot into a fresh
// engine for both backends (internal/host, restore.go) — catalog re-seed,
// re-staging onto a changed pool, engine.RestoreCompleted for every
// recorded completion whose outputs survived; the rest simply re-runs.
package checkpoint

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/transfer"
)

// Format is the snapshot format version: 3 is encoding/gob of the
// structs below laid out in columns (wire.go); 2 was gob of the structs
// themselves, row by row, and 1 their JSON. Loaders reject files of a
// different format rather than guessing at field semantics, and gob
// matches fields by name — renaming or retyping a field of a wire struct
// needs a new Format.
const Format = 3

// TaskRecord is one completed task in a snapshot.
type TaskRecord struct {
	// ID is the task's graph-unique ID (stable across restarts as long
	// as the workflow is re-submitted in the same order).
	ID int64
	// Epoch is the placement counter at capture time.
	Epoch int
	// Outputs lists the data versions the task produced (the engine
	// task's own immutable list when captured, not a copy).
	Outputs []deps.Version
}

// CatalogEntry records one data version: its size, its replica
// locations, and — on the live backend — the encoded value itself.
type CatalogEntry struct {
	Key       deps.Version
	Size      int64
	Locations []string
	// Value is the gob-encoded produced value (live backend only; see
	// EncodeValue), stored only with HasValue set. Absent values make
	// the producing task re-run on restore rather than resolve to a wrong
	// future.
	Value    []byte
	HasValue bool
}

// Snapshot is one persisted engine state.
type Snapshot struct {
	// Format is the snapshot format version (see Format).
	Format int
	// Seq is the store-assigned sequence number (monotonic per store).
	Seq int
	// At is the engine clock offset when the snapshot was captured
	// (virtual time on the simulator, elapsed wall time live).
	At time.Duration
	// Completed lists every task that has completed at least once and is
	// not currently mid-re-execution.
	Completed []TaskRecord
	// Ready, Running and Pending record the scheduling frontier at
	// capture time: queued-for-placement, holding reservations, and
	// waiting on dependencies respectively. Running and Pending tasks
	// re-run after a restore; the sets exist for diagnostics and for the
	// backend-parity suite.
	Ready   []int64
	Running []int64
	Pending []int64
	// Catalog is the data-version catalog (handle → size/locations, plus
	// encoded values on the live backend).
	Catalog []CatalogEntry
	// Order is every registered task ID in registration order — the
	// interleaving the four sections above lose. Delta reconstruction
	// needs it to rebuild the sections of a later state in the exact
	// order a direct capture would produce. For a hand-built snapshot
	// without it, TaskOrder falls back to ascending IDs.
	Order []int64
	// Stats are the engine's activity counters at capture time.
	Stats engine.Stats
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
// registration order for a snapshot built without the field.
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
	slices.Sort(ids)
	return ids
}

// Capture assembles a snapshot of the engine's current state. reg, when
// non-nil, supplies the data catalog (sizes and replica locations); the
// live backend additionally attaches encoded values afterwards. Capture
// is side-effect-free: it leaves the dirty sets feeding delta captures
// untouched, so parity probes can snapshot at will.
func Capture(e *engine.Engine, reg *transfer.Registry) *Snapshot {
	return build(e, e.SnapshotTasks(), reg, (*transfer.Registry).Entries)
}

// CaptureBase is Capture with a dirty-set reset on both the engine and
// the registry: the full snapshot that starts (or compacts) a delta
// chain. The deltas captured after it cover exactly the changes since.
func CaptureBase(e *engine.Engine, reg *transfer.Registry) *Snapshot {
	return build(e, e.SnapshotTasksClean(), reg, (*transfer.Registry).EntriesClean)
}

func build(e *engine.Engine, tasks []engine.TaskSnap, reg *transfer.Registry, rows func(*transfer.Registry) []transfer.Entry) *Snapshot {
	snap := &Snapshot{Format: Format, At: e.Now(), Stats: e.Stats()}
	if reg != nil {
		snap.Catalog = catalogOf(rows(reg))
	}
	snap.setTasks(len(tasks), func(i int) DeltaTask {
		ts := &tasks[i]
		return DeltaTask{ID: ts.ID, State: ts.State, Epoch: ts.Epoch, Completed: ts.Completed, Outputs: ts.OutputKeys}
	})
	return snap
}

// catalogOf turns registry rows into catalog rows, sharing their lists.
func catalogOf(entries []transfer.Entry) []CatalogEntry {
	out := sized[CatalogEntry](len(entries))
	for _, en := range entries {
		out = append(out, CatalogEntry{Key: en.Key, Size: en.Size, Locations: en.Locations})
	}
	return out
}

// sized returns an empty slice with room for n elements — nil for none,
// so a captured snapshot and the same one decoded from disk compare equal.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// sectionOf names the section a record is filed in by that section's
// state: Done for the completed set, Ready, Running, Pending for the rest.
func sectionOf(t DeltaTask) engine.State {
	switch {
	case t.Completed && t.State == engine.Done:
		return engine.Done
	case t.State == engine.Ready, t.State == engine.Running:
		return t.State
	}
	return engine.Pending
}

// setTasks files n task records, given in registration order, into Order
// and the four sections — for build and merger.snapshot alike, so the two
// cannot drift apart. It counts first: each section is allocated once.
func (s *Snapshot) setTasks(n int, task func(i int) DeltaTask) {
	var count [engine.Done + 1]int
	for i := 0; i < n; i++ {
		count[sectionOf(task(i))]++
	}
	s.Order = sized[int64](n)
	s.Completed = sized[TaskRecord](count[engine.Done])
	s.Ready = sized[int64](count[engine.Ready])
	s.Running = sized[int64](count[engine.Running])
	s.Pending = sized[int64](count[engine.Pending])
	for i := 0; i < n; i++ {
		t := task(i)
		s.Order = append(s.Order, t.ID)
		switch sectionOf(t) {
		case engine.Done:
			s.Completed = append(s.Completed, TaskRecord{ID: t.ID, Epoch: t.Epoch, Outputs: t.Outputs})
		case engine.Ready:
			s.Ready = append(s.Ready, t.ID)
		case engine.Running:
			s.Running = append(s.Running, t.ID)
		default:
			s.Pending = append(s.Pending, t.ID)
		}
	}
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
		if !slices.Equal(ra.Outputs, rb.Outputs) {
			return fmt.Errorf("completed task %d: outputs %v vs %v", ra.ID, ra.Outputs, rb.Outputs)
		}
	}
	for _, set := range []struct {
		name string
		x, y []int64
	}{{"ready", a.Ready, b.Ready}, {"running", a.Running, b.Running}, {"pending", a.Pending, b.Pending}} {
		if !slices.Equal(set.x, set.y) {
			return fmt.Errorf("%s sets differ: %v vs %v", set.name, set.x, set.y)
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
		if !slices.Equal(ca.Locations, cb.Locations) {
			return fmt.Errorf("catalog %+v: locations %v vs %v", ca.Key, ca.Locations, cb.Locations)
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
