package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around its own call site. Parent is the id of the span that
// caused it (0 = none); Run groups the spans of one repetition.
type span struct {
	ID     int
	Parent int
	Run    int
	Name   string
	Start  time.Duration
	End    time.Duration
}

// spanRec keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced passes pay one nil check per call site.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// nextRun starts a new repetition: later spans carry the new run id.
func (r *spanRec) nextRun() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run++
	r.mu.Unlock()
}

// begin opens a span and returns its id (0 when not recording).
func (r *spanRec) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// durations returns the lengths of every closed span with the given name.
func (r *spanRec) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// total sums the lengths of every closed span with the given name.
func (r *spanRec) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range r.durations(name) {
		sum += d
	}
	return sum
}

// traceEvent is one element of the Chrome trace-event format ("X" = complete
// event; ts and dur in microseconds). chrome://tracing and Perfetto load it.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Run    int `json:"run"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// write stores the spans at path in Chrome trace-event shape. Spans still
// open (a failed repetition) are dropped.
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	out := traceFile{TraceEvents: make([]traceEvent, 0, len(r.spans))}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: traceArgs{ID: s.ID, Parent: s.Parent, Run: s.Run},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
