package trace

import (
	"sort"
	"time"
)

// Span is one task execution interval on one node — a Gantt row segment.
type Span struct {
	Task  int64
	Node  string
	Start time.Duration
	End   time.Duration
	Label string
	// Open marks a span whose task never completed within the trace (it
	// was still running — or died with its node — at end-of-run). Its End
	// is the trace horizon, not a real completion instant.
	Open bool
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Timeline reconstructs per-node execution spans from start/complete
// events — the data behind a Paraver-style Gantt view of the run. Tasks
// that started but never completed (still running at a halt, or killed
// with their node before any completion event fired) are emitted as Open
// spans ending at the trace horizon — the last event timestamp — so
// in-flight work is visible on the Gantt instead of silently vanishing.
func Timeline(events []Event) []Span {
	open := make(map[int64]Event)
	var openOrder []int64 // deterministic emission of surviving opens
	var horizon time.Duration
	var spans []Span
	for _, e := range events {
		if e.At > horizon {
			horizon = e.At
		}
		switch e.Kind {
		case TaskStarted:
			if _, dup := open[e.Task]; !dup {
				openOrder = append(openOrder, e.Task)
			}
			open[e.Task] = e
		case TaskCompleted, TaskFailed:
			start, ok := open[e.Task]
			if !ok {
				continue
			}
			delete(open, e.Task)
			spans = append(spans, Span{
				Task:  e.Task,
				Node:  start.Node,
				Start: start.At,
				End:   e.At,
				Label: start.Info,
			})
		}
	}
	for _, id := range openOrder {
		start, ok := open[id]
		if !ok {
			continue // closed normally, or already emitted: a restart re-lists its ID
		}
		delete(open, id)
		spans = append(spans, Span{
			Task:  start.Task,
			Node:  start.Node,
			Start: start.At,
			End:   horizon,
			Label: start.Info,
			Open:  true,
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Task < spans[j].Task
	})
	return spans
}
