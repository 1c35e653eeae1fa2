package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/deps"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Kind: TaskStarted})
	if tr.Events() != nil || tr.Count("") != 0 {
		t.Fatal("nil tracer should discard")
	}
}

func TestRecordAndCount(t *testing.T) {
	tr := New(0)
	tr.Record(Event{At: time.Second, Kind: TaskStarted, Task: 1})
	tr.Record(Event{At: 2 * time.Second, Kind: TaskCompleted, Task: 1})
	tr.Record(Event{At: 3 * time.Second, Kind: TaskStarted, Task: 2})
	if tr.Count(TaskStarted) != 2 || tr.Count(TaskCompleted) != 1 || tr.Count("") != 3 {
		t.Fatal("counts wrong")
	}
}

func TestBoundedTracerDropsOldest(t *testing.T) {
	tr := New(3)
	for i := int64(1); i <= 5; i++ {
		tr.Record(Event{Kind: TaskStarted, Task: i})
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("len = %d, want 3", len(ev))
	}
	if ev[0].Task != 3 || ev[2].Task != 5 {
		t.Fatalf("kept wrong window: %v", ev)
	}
}

func TestExportJSON(t *testing.T) {
	tr := New(0)
	tr.Record(Event{At: time.Second, Kind: DataTransfer, Node: "n1", Info: "10MB"})
	raw, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Node != "n1" || back[0].Kind != DataTransfer {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record(Event{Kind: TaskStarted})
			}
		}()
	}
	wg.Wait()
	if tr.Count("") != 800 {
		t.Fatalf("count = %d, want 800", tr.Count(""))
	}
}

func TestProvenanceAncestry(t *testing.T) {
	p := NewProvenance()
	raw, raw2 := deps.Version{Data: 1}, deps.Version{Data: 2}
	curated, model := deps.Version{Data: 3, Ver: 1}, deps.Version{Data: 4, Ver: 1}
	// raw -> curated -> model; raw2 -> curated
	p.RecordProduction(curated, 1, []deps.Version{raw2, raw})
	p.RecordProduction(model, 2, []deps.Version{curated})
	anc := p.Ancestry(model)
	want := []deps.Version{raw, raw2, curated}
	if len(anc) != len(want) {
		t.Fatalf("ancestry = %v, want %v", anc, want)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("ancestry = %v, want %v", anc, want)
		}
	}
	if task, ok := p.producer[model]; !ok || task != 2 {
		t.Fatalf("producer = %d %v", task, ok)
	}
}

func TestProvenanceCyclicInputsTerminate(t *testing.T) {
	p := NewProvenance()
	a, b := deps.Version{Data: 1, Ver: 1}, deps.Version{Data: 2, Ver: 1}
	p.RecordProduction(a, 1, []deps.Version{b})
	p.RecordProduction(b, 2, []deps.Version{a})
	anc := p.Ancestry(a)
	if len(anc) != 2 {
		t.Fatalf("cyclic ancestry = %v", anc)
	}
}
