package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTimelineEmitsOpenSpansAtHorizon(t *testing.T) {
	events := []Event{
		{At: 0, Kind: TaskStarted, Task: 1, Node: "n1", Info: "load"},
		{At: time.Second, Kind: TaskStarted, Task: 2, Node: "n2", Info: "train"},
		{At: 2 * time.Second, Kind: TaskCompleted, Task: 1, Node: "n1"},
		// Task 2 never completes; a later milestone extends the horizon.
		{At: 5 * time.Second, Kind: NodeFailed, Node: "n2"},
	}
	spans := Timeline(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (open span dropped?): %+v", len(spans), spans)
	}
	var open *Span
	for i := range spans {
		if spans[i].Open {
			open = &spans[i]
		}
	}
	if open == nil {
		t.Fatalf("no open span emitted: %+v", spans)
	}
	if open.Task != 2 || open.End != 5*time.Second || open.Start != time.Second {
		t.Fatalf("open span = %+v, want task 2 clamped to 5s horizon", *open)
	}
	if spans[0].Open {
		t.Fatalf("completed span marked open: %+v", spans[0])
	}
}

func TestTimelineAllOpenDeterministicOrder(t *testing.T) {
	events := []Event{
		{At: 0, Kind: TaskStarted, Task: 3, Node: "n1"},
		{At: 0, Kind: TaskStarted, Task: 1, Node: "n1"},
		{At: time.Second, Kind: TaskStarted, Task: 2, Node: "n2"},
	}
	spans := Timeline(events)
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	// Same start sorts by task ID: 1, 3 (both at 0), then 2.
	if spans[0].Task != 1 || spans[1].Task != 3 || spans[2].Task != 2 {
		t.Fatalf("span order = %d,%d,%d", spans[0].Task, spans[1].Task, spans[2].Task)
	}
	for _, s := range spans {
		if !s.Open || s.End != time.Second {
			t.Fatalf("span %+v not clamped open to horizon", s)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{At: 0, Kind: TaskStarted, Task: 1, Node: "n1", Info: "load"},
		{At: 2 * time.Second, Kind: TaskCompleted, Task: 1, Node: "n1"},
		{At: 2 * time.Second, Kind: TaskStarted, Task: 2, Node: "n2", Info: "train"},
		{At: 3 * time.Second, Kind: TaskStolen, Task: 5, Node: "n1", Info: "c4"},
		{At: 4 * time.Second, Kind: CheckpointSaved, Info: "ckpt-000001.ckpt"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete, instant, open int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur == nil {
				t.Fatalf("complete event without dur: %+v", ev)
			}
			if ev.Args["open"] == true {
				open++
				// Task 2 started at 2s; the horizon is the 4s checkpoint.
				if *ev.Dur != (2 * time.Second).Microseconds() {
					t.Fatalf("open span dur = %dµs, want 2s clamp to the 4s horizon: %+v", *ev.Dur, ev)
				}
			}
		case "i":
			instant++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 {
		t.Fatalf("thread_name events = %d, want 2 (n1, n2)", meta)
	}
	if complete != 2 {
		t.Fatalf("complete events = %d, want 2 (one closed, one open)", complete)
	}
	if open != 1 {
		t.Fatalf("open-marked spans = %d, want 1", open)
	}
	if instant != 2 {
		t.Fatalf("instant events = %d, want 2 (steal + checkpoint)", instant)
	}
	// Determinism: encoding twice yields identical bytes.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome trace encoding not deterministic")
	}
}
