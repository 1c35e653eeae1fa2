package trace

import (
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{At: 0, Kind: TaskStarted, Task: 1, Node: "n1", Info: "load"},
		{At: 0, Kind: TaskStarted, Task: 2, Node: "n2", Info: "load"},
		{At: 2 * time.Second, Kind: TaskCompleted, Task: 1, Node: "n1"},
		{At: 3 * time.Second, Kind: TaskCompleted, Task: 2, Node: "n2"},
		{At: 3 * time.Second, Kind: TaskStarted, Task: 3, Node: "n1", Info: "merge"},
		{At: 4 * time.Second, Kind: TaskFailed, Task: 3, Node: "n1"},
	}
}

func TestTimelineReconstructsSpans(t *testing.T) {
	spans := Timeline(sampleEvents())
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Task != 1 || spans[0].Node != "n1" || spans[0].Duration() != 2*time.Second {
		t.Fatalf("span[0] = %+v", spans[0])
	}
	if spans[2].Task != 3 || spans[2].Label != "merge" || spans[2].Start != 3*time.Second {
		t.Fatalf("span[2] = %+v", spans[2])
	}
}

func TestTimelineIgnoresOrphanCompletions(t *testing.T) {
	spans := Timeline([]Event{{At: time.Second, Kind: TaskCompleted, Task: 9}})
	if len(spans) != 0 {
		t.Fatalf("orphan completion produced spans: %v", spans)
	}
}

// A task that failed and started again is still running once: it comes
// out as one open span, not one per start.
func TestTimelineRestartedTaskOpensOnce(t *testing.T) {
	spans := Timeline([]Event{
		{At: 0, Kind: TaskStarted, Task: 1, Node: "a"},
		{At: time.Second, Kind: TaskFailed, Task: 1, Node: "a"},
		{At: 2 * time.Second, Kind: TaskStarted, Task: 1, Node: "b"},
		{At: 3 * time.Second, Kind: TaskStarted, Task: 2, Node: "b"},
	})
	if len(spans) != 3 {
		t.Fatalf("spans = %+v, want 3: task 1 closed on a, task 1 and task 2 open on b", spans)
	}
	if s := spans[1]; s.Task != 1 || s.Node != "b" || !s.Open || s.Start != 2*time.Second || s.End != 3*time.Second {
		t.Fatalf("span[1] = %+v, want task 1 open on b from 2s to the 3s horizon", s)
	}
}
