// Package trace records execution events and data provenance. The paper
// makes metadata and traceability first-class requirements ("developers of
// scientific application give more emphasis to the data aspect of the
// problem: metadata and traceability are crucial for them", Sec. I; "the
// compute workflows should be able to better integrate metadata, and enable
// data traceability", Sec. VI-C).
package trace

import (
	"sort"
	"sync"
	"time"

	"repro/internal/deps"
)

// Kind classifies a trace event.
type Kind string

// Event kinds emitted by the runtime and the simulator.
const (
	TaskSubmitted Kind = "task_submitted"
	TaskReady     Kind = "task_ready"
	TaskScheduled Kind = "task_scheduled"
	TaskStarted   Kind = "task_started"
	TaskStolen    Kind = "task_stolen"
	TaskCompleted Kind = "task_completed"
	TaskFailed    Kind = "task_failed"
	TaskRecovered Kind = "task_recovered"
	// TaskParked marks a ready task diverted into the availability wait
	// set: every replica of at least one input is lost or partitioned
	// away, and the engine's policy (defer/recompute) chose to hold the
	// task rather than run it without data.
	TaskParked Kind = "task_parked"
	// TaskWoken marks a parked task released back to the ready queue —
	// a partition healed, a replica of the awaited datum was (re)created,
	// or a node failure forced a re-classification.
	TaskWoken    Kind = "task_woken"
	DataTransfer Kind = "data_transfer"
	// DataUnavailable marks a task launched although inputs could not be
	// staged (availability policy run-anyway; Info says how many inputs
	// were "missing, run anyway").
	DataUnavailable Kind = "data_unavailable"
	DataPersisted   Kind = "data_persisted"
	// DataRestaged marks a replica re-created during a checkpoint restore
	// because every node recorded as holding it has left the pool: the
	// value is fetched ahead of demand from a surviving tier (the persist
	// node, or the value the snapshot itself carries).
	DataRestaged  Kind = "data_restaged"
	NodeAdded     Kind = "node_added"
	NodeRemoved   Kind = "node_removed"
	NodeFailed    Kind = "node_failed"
	NodeSlowed    Kind = "node_slowed"
	NodeDrained   Kind = "node_drained"
	NodeUndrained Kind = "node_undrained"
	LinkCut       Kind = "link_cut"
	LinkHealed    Kind = "link_healed"
	FaultIgnored  Kind = "fault_ignored"
	// CheckpointSaved marks a checkpoint save, at its capture instant
	// (Info: the file's kind and sequence number, e.g. snap-000010).
	CheckpointSaved Kind = "checkpoint_saved"
	// CheckpointRestored marks a task resolved from a restore snapshot
	// instead of executing.
	CheckpointRestored Kind = "checkpoint_restored"
)

// Event is one timestamped occurrence.
type Event struct {
	At   time.Duration `json:"at"`
	Kind Kind          `json:"kind"`
	Task int64         `json:"task,omitempty"`
	Node string        `json:"node,omitempty"`
	Info string        `json:"info,omitempty"`
}

// Tracer collects events. It is safe for concurrent use. A nil *Tracer is
// valid and discards everything, so call sites need no guards.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// New returns a tracer that keeps at most limit events (0 ⇒ unlimited).
func New(limit int) *Tracer {
	return &Tracer{limit: limit}
}

// Record appends an event; on a full bounded tracer the oldest is dropped.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit > 0 && len(t.events) >= t.limit {
		copy(t.events, t.events[1:])
		t.events[len(t.events)-1] = e
		return
	}
	t.events = append(t.events, e)
}

// Events returns a copy of all recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Count returns the number of events of the given kind (all if kind == "").
func (t *Tracer) Count(kind Kind) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if kind == "" {
		return len(t.events)
	}
	n := 0
	for _, e := range t.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Provenance maintains the lineage of every data version: which task
// produced it from which inputs. It is safe for concurrent use.
type Provenance struct {
	mu       sync.RWMutex
	producer map[deps.Version]int64
	inputs   map[deps.Version][]deps.Version
}

// NewProvenance returns an empty provenance store.
func NewProvenance() *Provenance {
	return &Provenance{
		producer: make(map[deps.Version]int64),
		inputs:   make(map[deps.Version][]deps.Version),
	}
}

// RecordProduction registers that task produced output from the given
// inputs. The inputs slice is kept, not copied: callers hand in a task's
// immutable read list, shared by every version the task writes.
func (p *Provenance) RecordProduction(output deps.Version, task int64, inputs []deps.Version) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.producer[output] = task
	p.inputs[output] = inputs
}

// Ancestry returns every version the given one transitively derives from,
// in (Data, Ver) order. This is the traceability query: "where did this
// result come from?".
func (p *Provenance) Ancestry(version deps.Version) []deps.Version {
	p.mu.RLock()
	defer p.mu.RUnlock()
	seen := make(map[deps.Version]struct{})
	stack := append([]deps.Version(nil), p.inputs[version]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		stack = append(stack, p.inputs[v]...)
	}
	out := make([]deps.Version, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
