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
