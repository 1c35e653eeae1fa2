package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

// item is a heap element that knows its slot, the way the placement
// index's entries do.
type item struct {
	key, seq int
	pos      int
}

func newTracked() *Heap[*item] {
	return &Heap[*item]{
		Less: func(a, b *item) bool {
			if a.key != b.key {
				return a.key < b.key
			}
			return a.seq < b.seq
		},
		Moved: func(x *item, i int) { x.pos = i },
	}
}

// check asserts the heap property and every element's back-pointer.
func check(t *testing.T, h *Heap[*item]) {
	t.Helper()
	for i := 0; i < h.Len(); i++ {
		if h.At(i).pos != i {
			t.Fatalf("slot %d holds an element that believes it is in slot %d", i, h.At(i).pos)
		}
		if i > 0 && h.Less(h.At(i), h.At((i-1)/2)) {
			t.Fatalf("slot %d sorts before its parent", i)
		}
	}
}

// TestHeapMatchesSortOracle drives a seeded mix of Push, Pop, Remove and
// Fix and checks, after every operation, the heap property, the position
// callback, and that draining the heap yields exactly the sorted order of
// what a plain slice says it should contain.
func TestHeapMatchesSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newTracked()
		var live []*item
		drop := func(x *item) {
			i := sort.Search(len(live), func(i int) bool { return live[i].seq >= x.seq })
			live = append(live[:i], live[i+1:]...)
		}
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0:
				x := &item{key: rng.Intn(50), seq: step, pos: -1}
				live = append(live, x) // seq ascends, so live stays sorted by seq
				h.Push(x)
			case op < 7:
				min := live[0]
				for _, x := range live {
					if h.Less(x, min) {
						min = x
					}
				}
				if got := h.Pop(); got != min {
					t.Fatalf("seed %d step %d: Pop = %+v, oracle min %+v", seed, step, got, min)
				}
				drop(min)
			case op < 8:
				x := live[rng.Intn(len(live))]
				if got := h.Remove(x.pos); got != x || x.pos != -1 {
					t.Fatalf("seed %d step %d: Remove returned %+v (pos %d), want %+v", seed, step, got, x.pos, x)
				}
				drop(x)
			default:
				x := live[rng.Intn(len(live))]
				x.key = rng.Intn(50)
				h.Fix(x.pos)
			}
			check(t, h)
			if h.Len() != len(live) {
				t.Fatalf("seed %d step %d: Len = %d, oracle %d", seed, step, h.Len(), len(live))
			}
		}
		want := append([]*item(nil), live...)
		sort.Slice(want, func(i, j int) bool { return h.Less(want[i], want[j]) })
		for i, w := range want {
			if got := h.Pop(); got != w {
				t.Fatalf("seed %d: drain[%d] = %+v, sorted oracle %+v", seed, i, got, w)
			}
		}
	}
}

// TestHeapValueElementsFIFO is the virtual clock's use: value elements,
// no position callback, and 1e5 elements with one key that must come out
// in insertion order because the sequence number breaks the tie.
func TestHeapValueElementsFIFO(t *testing.T) {
	type ev struct{ at, seq int }
	h := &Heap[ev]{Less: func(a, b ev) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	}}
	const n = 100_000
	for i := 0; i < n; i++ {
		h.Push(ev{at: 7, seq: i})
		if i%1000 == 0 {
			h.Push(ev{at: 3, seq: i}) // earlier instant, interleaved
		}
	}
	for i := 0; i < n; i += 1000 {
		if got := h.Pop(); got != (ev{3, i}) {
			t.Fatalf("early event: got %+v, want {3 %d}", got, i)
		}
	}
	for i := 0; i < n; i++ {
		if got := h.Pop(); got != (ev{7, i}) {
			t.Fatalf("same-instant event %d fired as %+v", i, got)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("%d elements left", h.Len())
	}
}
