// Package trace records execution events and data provenance. The paper
// makes metadata and traceability first-class requirements ("developers of
// scientific application give more emphasis to the data aspect of the
// problem: metadata and traceability are crucial for them", Sec. I; "the
// compute workflows should be able to better integrate metadata, and enable
// data traceability", Sec. VI-C).
package trace

import (
	"slices"
	"strconv"
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
	// (Info: the save's kind and sequence number — snap-000010 for a
	// base, frame-000011 for a group appended to its log).
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
	// Arg is the number an empty Info is rendered from on read (argSuffix).
	Arg int64 `json:"-"`
}

// argSuffix follows Arg in the Info rendered for the kinds that record a
// number, so that no recorder formats a string under its lock.
var argSuffix = map[Kind]string{DataTransfer: "B", DataUnavailable: " inputs missing, run anyway"}

// Tracer collects events. It is safe for concurrent use. A nil *Tracer is
// valid and discards everything, so call sites need no guards. Events sit
// in pages of pageSize that are never grown or copied. The pages form a
// ring whose oldest kept event is pages[0][head]: a bounded tracer drops
// it by advancing head, and releases the first page once head leaves it.
type Tracer struct {
	mu    sync.Mutex
	pages [][]Event // every page but the last is full
	head  int
	n     int // events kept
	limit int
}

const pageSize = 1024

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
	if len(t.pages) == 0 || len(t.pages[len(t.pages)-1]) == pageSize {
		t.pages = append(t.pages, make([]Event, 0, pageSize))
	}
	last := &t.pages[len(t.pages)-1]
	*last = append(*last, e)
	if t.n++; t.limit > 0 && t.n > t.limit {
		t.n--
		if t.head++; t.head == pageSize {
			t.pages[0] = nil
			t.pages, t.head = t.pages[1:], 0
		}
	}
}

// Events returns a copy of all recorded events, each Info rendered.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, 0, t.n)
	for i, p := range t.pages {
		if i == 0 {
			p = p[t.head:]
		}
		out = append(out, p...)
	}
	t.mu.Unlock()
	for i, e := range out {
		if suffix, ok := argSuffix[e.Kind]; ok && e.Info == "" {
			out[i].Info = strconv.FormatInt(e.Arg, 10) + suffix
		}
	}
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
		return t.n
	}
	n := 0
	for i, p := range t.pages {
		for j := range p {
			if p[j].Kind == kind && (i > 0 || j >= t.head) {
				n++
			}
		}
	}
	return n
}

// Provenance maintains the lineage of every data version: the inputs it
// was produced from. It is safe for concurrent use.
type Provenance struct {
	mu     sync.RWMutex
	inputs map[deps.Version][]deps.Version
}

// NewProvenance returns an empty provenance store.
func NewProvenance() *Provenance {
	return &Provenance{inputs: make(map[deps.Version][]deps.Version)}
}

// RecordProduction registers that output was produced from the given
// inputs. Several producers of one version — the members of a
// commutative group — merge: the version derives from every member's
// inputs, each listed once. The first inputs slice is kept, not copied:
// callers hand in a task's immutable read list, shared by every version
// the task writes, so a merge copies before it appends.
func (p *Provenance) RecordProduction(output deps.Version, inputs []deps.Version) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev, ok := p.inputs[output]
	if !ok {
		p.inputs[output] = inputs
		return
	}
	// Clip makes the first append copy: prev may be a caller's read list,
	// which must never be appended to.
	merged := slices.Clip(prev)
	for _, v := range inputs {
		if !slices.Contains(merged, v) {
			merged = append(merged, v)
		}
	}
	p.inputs[output] = merged
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
	slices.SortFunc(out, deps.Version.Compare)
	return out
}
