// Package trace defines flowgo's workload-trace format and its
// replayers: a versioned JSON-lines file — one header line, then one
// task record per line — that captures production-shaped traffic (when
// tasks arrive, what they depend on, what they need, how long they ran,
// who submitted them) in a form both backends can replay and both
// humans and diff tools can read.
//
// The simulator replays a trace natively: each record becomes an
// infra.TaskSpec whose Release offset holds the task invisible until
// its trace timestamp on the virtual clock, so a million-task diurnal
// day runs in milliseconds and is byte-identical run to run. The live
// runtime replays through ReplayLive, which releases submit cohorts at
// their (optionally time-compressed) offsets on a faults.Timer and
// drives the ordinary batch-submit path. Temporal shape generators that
// EMIT traces — Poisson bursts, diurnal envelopes, heavy-tailed
// durations, per-tenant cohorts — live in gen.go, so every synthetic
// shape is a file you can commit, diff and replay, not a code path.
//
// Latency accounting closes the loop: the engine stamps every task's
// submit→ready→start→done milestones, and the report subpackage joins
// them with the trace's tenant tags into p50/p95/p99 queue-wait and
// per-tenant makespan summaries.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/deps"
	"repro/internal/resources"
)

// FormatVersion is the trace format this package reads and writes.
// Readers accept any file whose header declares a version ≤ theirs and
// ignore unknown fields, so old binaries reject genuinely newer traces
// while new binaries keep reading old ones.
const FormatVersion = 1

// Header is the first line of a trace file.
type Header struct {
	// Version is the format version (FormatVersion when written here).
	Version int `json:"trace_version"`
	// Name labels the trace (workload name, capture campaign).
	Name string `json:"name,omitempty"`
	// Shape records the generator shape that produced a synthetic trace
	// ("poisson-burst", "diurnal", "heavy-tail"); empty for captures.
	Shape string `json:"shape,omitempty"`
	// Seed is the generator seed (synthetic traces only).
	Seed int64 `json:"seed,omitempty"`
}

// WriteRef is one datum a task produces, with its size.
type WriteRef struct {
	// Data is the datum ID (trace-scoped namespace).
	Data int64 `json:"data"`
	// Bytes sizes the produced version (0 = negligible).
	Bytes int64 `json:"bytes,omitempty"`
}

// Record is one task: a line of the trace. Dependencies are expressed
// through data — a record that reads datum D depends on the latest
// earlier record that writes D (the access processor re-derives the
// edges at replay, exactly as it would in production). Times are
// integer nanoseconds so records survive JSON round-trips bit-exactly.
type Record struct {
	// ID is the trace-unique task ID, positive, strictly increasing in
	// file order.
	ID int64 `json:"id"`
	// SubmitNS is the submission offset from trace start.
	SubmitNS int64 `json:"submit_ns"`
	// Class names the task type (policy/predictor key).
	Class string `json:"class,omitempty"`
	// Tenant tags the submitting tenant ("" = untagged).
	Tenant string `json:"tenant,omitempty"`
	// EstNS is the declared duration estimate (what a scheduler would
	// have known up front); DurNS is what the task actually took.
	EstNS int64 `json:"est_ns,omitempty"`
	DurNS int64 `json:"dur_ns"`
	// Cores, MemMB and Tier are the constraint dimensions the engine
	// buckets by ("" tier = any). Together they determine the record's
	// constraint signature.
	Cores int    `json:"cores,omitempty"`
	MemMB int64  `json:"mem_mb,omitempty"`
	Tier  string `json:"tier,omitempty"`
	// Reads lists data IDs the task consumes; Writes the data it
	// produces, with sizes.
	Reads  []int64    `json:"reads,omitempty"`
	Writes []WriteRef `json:"writes,omitempty"`
}

// Submit returns the record's submission offset as a duration.
func (r Record) Submit() time.Duration { return time.Duration(r.SubmitNS) }

// Duration returns the record's actual duration.
func (r Record) Duration() time.Duration { return time.Duration(r.DurNS) }

// Constraints maps the record's constraint fields onto the engine's
// constraint type. Unknown tier names map to the zero class (any tier)
// so traces from richer deployments still replay.
func (r Record) Constraints() resources.Constraints {
	c := resources.Constraints{Cores: r.Cores, MemoryMB: r.MemMB}
	switch r.Tier {
	case "hpc":
		c.Class = resources.HPC
	case "cloud":
		c.Class = resources.Cloud
	case "fog":
		c.Class = resources.Fog
	case "edge":
		c.Class = resources.Edge
	}
	return c
}

// Trace is a parsed trace: header plus records in file order.
type Trace struct {
	Header Header
	Tasks  []Record
}

// Sort orders records by (submit offset, ID) — the canonical file
// order. Write does not re-sort; generators and captures call this so
// committed traces are deterministic byte streams.
func (t *Trace) Sort() {
	sort.SliceStable(t.Tasks, func(i, j int) bool {
		a, b := t.Tasks[i], t.Tasks[j]
		if a.SubmitNS != b.SubmitNS {
			return a.SubmitNS < b.SubmitNS
		}
		return a.ID < b.ID
	})
}

// Validate checks the structural invariants replay relies on: positive
// unique IDs, non-negative offsets and durations, and every read
// preceded in file order by its producing write or declared external
// (reads with no producer anywhere in the trace are stage-in data and
// are fine; a producer appearing LATER would silently drop the edge).
func (t *Trace) Validate() error {
	if t.Header.Version <= 0 || t.Header.Version > FormatVersion {
		return fmt.Errorf("trace: unsupported version %d (this build reads ≤ %d)",
			t.Header.Version, FormatVersion)
	}
	seen := make(map[int64]struct{}, len(t.Tasks))
	writtenBy := map[int64]int{} // datum -> first writer index
	for i, r := range t.Tasks {
		if r.ID <= 0 {
			return fmt.Errorf("trace: task %d (record %d): non-positive id", r.ID, i+1)
		}
		if _, dup := seen[r.ID]; dup {
			return fmt.Errorf("trace: task %d: duplicate id", r.ID)
		}
		seen[r.ID] = struct{}{}
		if r.SubmitNS < 0 || r.DurNS < 0 || r.EstNS < 0 {
			return fmt.Errorf("trace: task %d: negative time", r.ID)
		}
		for _, w := range r.Writes {
			if _, ok := writtenBy[w.Data]; !ok {
				writtenBy[w.Data] = i
			}
		}
	}
	for i, r := range t.Tasks {
		for _, d := range r.Reads {
			if wi, ok := writtenBy[d]; ok && wi > i {
				return fmt.Errorf("trace: task %d reads datum %d whose first writer (task %d) comes later in the file",
					r.ID, d, t.Tasks[wi].ID)
			}
		}
	}
	return nil
}

// Write encodes the trace as JSON lines: the header, then one record
// per line in slice order. Output is deterministic for a given Trace
// value, so identical traces are identical bytes.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Header); err != nil {
		return err
	}
	for _, r := range t.Tasks {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a JSON-lines trace. Unknown fields are ignored (forward
// tolerance); a malformed line fails with its 1-based line number; the
// parsed trace is validated before it is returned.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if line == 1 {
			if err := json.Unmarshal(raw, &t.Header); err != nil {
				return nil, fmt.Errorf("trace: line 1: bad header: %w", err)
			}
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Tasks = append(t.Tasks, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	if line == 0 {
		return nil, fmt.Errorf("trace: empty input (missing header line)")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Load reads a trace file from disk.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Save writes the trace's canonical encoding to a file.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span returns the trace's arrival span: the largest submit offset.
func (t *Trace) Span() time.Duration {
	var max int64
	for _, r := range t.Tasks {
		if r.SubmitNS > max {
			max = r.SubmitNS
		}
	}
	return time.Duration(max)
}

// accesses converts a record's reads and writes into access-processor
// declarations (reads first, matching the live replayer's param order).
func (r Record) accesses() []deps.Access {
	acc := make([]deps.Access, 0, len(r.Reads)+len(r.Writes))
	for _, d := range r.Reads {
		acc = append(acc, deps.Access{Data: deps.DataID(d), Dir: deps.In})
	}
	for _, w := range r.Writes {
		acc = append(acc, deps.Access{Data: deps.DataID(w.Data), Dir: deps.Out})
	}
	return acc
}
