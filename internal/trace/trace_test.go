package trace

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
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
	p.RecordProduction(curated, []deps.Version{raw2, raw})
	p.RecordProduction(model, []deps.Version{curated})
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
}

// A second producer of a version merges its inputs in without writing
// into the first producer's read list, which its caller still shares.
func TestProvenanceMergeCopiesSharedReads(t *testing.T) {
	p := NewProvenance()
	out := deps.Version{Data: 9, Ver: 1}
	a, b, c := deps.Version{Data: 1, Ver: 1}, deps.Version{Data: 2, Ver: 1}, deps.Version{Data: 3, Ver: 1}
	backing := []deps.Version{a, c}
	first := backing[:1] // spare capacity a careless append would fill
	p.RecordProduction(out, first)
	p.RecordProduction(out, []deps.Version{b, a})
	if backing[1] != c {
		t.Fatalf("merge wrote into the caller's read list: %v", backing)
	}
	if got := p.Ancestry(out); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("ancestry = %v, want [%v %v]", got, a, b)
	}
}

func TestProvenanceCyclicInputsTerminate(t *testing.T) {
	p := NewProvenance()
	a, b := deps.Version{Data: 1, Ver: 1}, deps.Version{Data: 2, Ver: 1}
	p.RecordProduction(a, []deps.Version{b})
	p.RecordProduction(b, []deps.Version{a})
	anc := p.Ancestry(a)
	if len(anc) != 2 {
		t.Fatalf("cyclic ancestry = %v", anc)
	}
}

// checkPages is the page ring's invariant: the kept count is the pages'
// lengths less the head, every page but the last is full, and the head
// lies inside the first page.
func checkPages(tr *Tracer) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sum := 0
	for i, p := range tr.pages {
		if i < len(tr.pages)-1 && len(p) != pageSize {
			return fmt.Errorf("page %d of %d holds %d events, want a full %d", i, len(tr.pages), len(p), pageSize)
		}
		sum += len(p)
	}
	if tr.head < 0 || tr.head >= pageSize {
		return fmt.Errorf("head %d outside a page of %d", tr.head, pageSize)
	}
	if tr.n != sum-tr.head {
		return fmt.Errorf("count %d, but the pages hold %d past head %d", tr.n, sum, tr.head)
	}
	return nil
}

// TestTracerHammer records from four writers at once, on an unbounded
// tracer and on one a page and three events deep, so that its ring
// releases pages while readers copy and count. No event is lost or kept
// twice, the bounded tracer keeps exactly its last limit events, each
// writer's events stay in the order it recorded them, and the page
// invariant holds throughout.
func TestTracerHammer(t *testing.T) {
	const writers, perWriter = 4, 3 * pageSize
	for _, limit := range []int{0, pageSize + 3} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			tr := New(limit)
			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := checkPages(tr); err != nil {
							t.Error(err)
							return
						}
						if err := inWriterOrder(tr.Events(), perWriter); err != nil {
							t.Error(err)
							return
						}
						if n := tr.Count(TaskStarted); limit > 0 && n > limit {
							t.Errorf("Count = %d above limit %d", n, limit)
							return
						}
					}
				}()
			}
			var writes sync.WaitGroup
			for w := 0; w < writers; w++ {
				writes.Add(1)
				go func() {
					defer writes.Done()
					for i := 0; i < perWriter; i++ {
						tr.Record(Event{Kind: TaskStarted, Task: int64(w*perWriter + i)})
					}
				}()
			}
			writes.Wait()
			close(stop)
			readers.Wait()
			if err := checkPages(tr); err != nil {
				t.Fatal(err)
			}
			ev := tr.Events()
			if err := inWriterOrder(ev, perWriter); err != nil {
				t.Fatal(err)
			}
			want := writers * perWriter
			if limit > 0 {
				want = limit
			}
			if len(ev) != want || tr.Count("") != want || tr.Count(TaskStarted) != want {
				t.Fatalf("kept %d events, counted %d, want %d", len(ev), tr.Count(""), want)
			}
			// What is kept is a suffix of each writer's run: its events
			// up to its last, none skipped.
			last := make(map[int64]int64)
			kept := make(map[int64]int)
			for _, e := range ev {
				w := e.Task / perWriter
				last[w] = e.Task % perWriter
				kept[w]++
			}
			for w, n := range kept {
				if last[w] != perWriter-1 {
					t.Fatalf("writer %d's last kept event is %d, want %d", w, last[w], perWriter-1)
				}
				if limit == 0 && n != perWriter {
					t.Fatalf("writer %d: kept %d of %d", w, n, perWriter)
				}
			}
		})
	}
}

// inWriterOrder checks that the events of each hammer writer appear in
// the order it recorded them, one step apart: none lost between two
// kept ones, none kept twice.
func inWriterOrder(ev []Event, perWriter int64) error {
	prev := make(map[int64]int64)
	for _, e := range ev {
		w, i := e.Task/perWriter, e.Task%perWriter
		if p, seen := prev[w]; seen && i != p+1 {
			return fmt.Errorf("writer %d: event %d follows %d", w, i, p)
		}
		prev[w] = i
	}
	return nil
}

// Record costs its event's share of a page and nothing else: over whole
// pages it allocates nothing per call, and the bytes it allocates are
// the events' own.
func TestRecordAllocatesOnlyPages(t *testing.T) {
	const pages = 8
	tr := New(0)
	e := Event{At: time.Second, Kind: DataTransfer, Task: 7, Node: "n1", Arg: 1 << 20}
	if n := testing.AllocsPerRun(pages*pageSize-1, func() { tr.Record(e) }); n != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pages*pageSize; i++ {
		tr.Record(e)
	}
	runtime.ReadMemStats(&after)
	size := uint64(reflect.TypeOf(e).Size())
	if per := (after.TotalAlloc - before.TotalAlloc) / (pages * pageSize); per > size+size/8 {
		t.Fatalf("Record allocates %d bytes per event, want about its own %d", per, size)
	}
}

// Events renders the numeric Info of the kinds that record a number, and
// leaves a recorder's own Info alone.
func TestEventsRenderInfo(t *testing.T) {
	tr := New(0)
	tr.Record(Event{Kind: DataTransfer, Arg: 3_000_000})
	tr.Record(Event{Kind: DataUnavailable, Arg: 2})
	tr.Record(Event{Kind: DataTransfer, Info: "10MB", Arg: 5})
	want := []string{"3000000B", "2 inputs missing, run anyway", "10MB"}
	for i, e := range tr.Events() {
		if e.Info != want[i] {
			t.Fatalf("event %d Info = %q, want %q", i, e.Info, want[i])
		}
	}
}
