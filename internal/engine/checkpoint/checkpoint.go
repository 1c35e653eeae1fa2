// Package checkpoint persists the scheduling engine's state — its own
// task records (engine.TaskSnap) in registration order, the data catalog
// and activity counters — to a versioned, content-addressed format, and
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
// Equivalent. Every trigger takes the one cadence: a base, then
// O(changes) deltas — the records the engine and the registry logged
// since the last capture (delta.go) — with every eighth save after it a
// compacting base. That goroutine captures and no more. One writer per
// Checkpointer coalesces and folds each delta and appends it to the
// base's log, compacting bases included — a base is a fold, not a
// capture (ckpt.go) — and the store may be read once the host has
// flushed it; a write that failed is reported by that flush, never
// dropped.
//
// On disk a snapshot is Format 3: the encoding/gob form of a private wire
// struct that lays Snapshot out in columns (wire.go) — the catalog as a
// node table, key, size and holder-count columns and one flat column of
// node indices; the records filed into completed, ready, running and
// pending sections plus their registration order, a completed record as
// ID, epoch and output-count columns and one flat output column. Reading
// carves every row's Locations, Outputs and Value out of one array per
// column, so a file costs O(columns) allocations, not O(rows), and checks
// first that the columns agree (lengths, key order, counts, node indices,
// value rows, sectioned IDs in the order): a file that does not is
// ErrCorrupt. Store adds content-addressed base names
// (snap-<seq>-<sha256:16>.ckpt), synced temp-and-rename writes, format
// versioning (Format), an append-only log beside each base whose frames
// carry a length and a CRC32 and are synced one by one (store.go),
// bounded retention (Keep) of a base with its log, and a Latest that
// reads the newest valid base and its log's valid prefix, older bases
// only when damage sends it back — so damage costs the groups after it
// and a restore one base and one log's reading.
//
// Restore is not here: the control plane replays a snapshot into a fresh
// engine for both backends (internal/host, restore.go) — catalog re-seed,
// re-staging onto a changed pool, engine.RestoreCompleted for every
// Restorable record whose outputs survived; the rest simply re-runs.
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
	// Tasks holds every registered task's record in registration order.
	// On disk a base keeps the epoch and outputs of Restorable records
	// only; every other record reads back as its ID and section (wire.go).
	Tasks []engine.TaskSnap
	// Catalog is the data-version catalog (handle → size/locations, plus
	// encoded values on the live backend).
	Catalog []CatalogEntry
	// Stats are the engine's activity counters at capture time.
	Stats engine.Stats
}

// Capture assembles a snapshot of the engine's current state. reg, when
// non-nil, supplies the data catalog (sizes and replica locations); the
// live backend additionally attaches encoded values afterwards. Capture
// is side-effect-free: it leaves the logs feeding delta captures
// untouched, so parity probes can snapshot at will.
func Capture(e *engine.Engine, reg *transfer.Registry) *Snapshot {
	return build(e, e.SnapshotTasks(), reg, (*transfer.Registry).Entries)
}

// CaptureBase is Capture that opens (or restarts) the engine's and the
// registry's logs empty: the base the deltas captured after it extend.
// They cover exactly the changes since.
func CaptureBase(e *engine.Engine, reg *transfer.Registry) *Snapshot {
	return build(e, e.StartLog(), reg, (*transfer.Registry).StartLog)
}

func build(e *engine.Engine, tasks []engine.TaskSnap, reg *transfer.Registry, rows func(*transfer.Registry) []transfer.Entry) *Snapshot {
	snap := &Snapshot{Format: Format, At: e.Now(), Tasks: tasks, Stats: e.Stats()}
	if reg != nil {
		snap.Catalog = catalogOf(rows(reg))
	}
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

// Equivalent reports whether two snapshots describe the same logical
// engine state: the same tasks in the same registration order, each in
// the same section of a base file (the outputs of a completed one
// included), catalog keys, sizes and locations, and the deterministic
// activity counters. Clock offsets,
// sequence numbers and encoded values are ignored — they legitimately
// differ between a wall-clock and a virtual-time backend. It returns nil
// or an error naming the first difference; the backend-parity suite runs
// on it.
func Equivalent(a, b *Snapshot) error {
	if len(a.Tasks) != len(b.Tasks) {
		return fmt.Errorf("task counts differ: %d vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		ta, tb := a.Tasks[i], b.Tasks[i]
		if ta.ID != tb.ID {
			return fmt.Errorf("tasks[%d]: task %d vs %d", i, ta.ID, tb.ID)
		}
		if sa, sb := sectionOf(ta), sectionOf(tb); sa != sb {
			return fmt.Errorf("task %d: filed as state %d vs %d", ta.ID, sa, sb)
		}
		if ta.Restorable() && !slices.Equal(ta.OutputKeys, tb.OutputKeys) {
			return fmt.Errorf("completed task %d: outputs %v vs %v", ta.ID, ta.OutputKeys, tb.OutputKeys)
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
