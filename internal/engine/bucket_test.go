package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBucketWindowMatchesPlainSlice drives a bucket's window queue — head
// pops that advance it, inserts that slide it back, and the in-place
// mid-queue removals the steal, restore and drop paths make — against a
// plain slice, checking contents and order after every step and that the
// window never loses track of its backing array.
func TestBucketWindowMatchesPlainSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b bucket
	var model []*Task
	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(model) == 0:
			t := &Task{ID: int64(step)}
			at := len(model)
			if rng.Intn(4) == 0 {
				at = rng.Intn(len(model) + 1)
			}
			b.insert(at, t)
			model = slices.Insert(model, at, t)
		case op < 8:
			b.pop()
			model = model[1:]
		case op < 9: // stealWaveLocked, RestoreCompleted
			i := rng.Intn(len(model))
			b.q = slices.Delete(b.q, i, i+1)
			model = slices.Delete(slices.Clone(model), i, i+1)
		default: // DropReadyMissingInputs
			still := b.q[:0]
			for _, t := range b.q {
				if t.ID%3 != 0 {
					still = append(still, t)
				}
			}
			b.q = still
			model = slices.DeleteFunc(slices.Clone(model), func(t *Task) bool { return t.ID%3 == 0 })
		}
		if !slices.Equal(b.q, model) {
			t.Fatalf("step %d: queue diverged from the plain slice (%d vs %d entries)", step, len(b.q), len(model))
		}
		if cap(b.q)+b.off != cap(b.base) || (cap(b.q) > 0 && &b.base[:cap(b.base)][b.off] != &b.q[:1][0]) {
			t.Fatalf("step %d: window lost its array: cap %d + off %d vs base cap %d", step, cap(b.q), b.off, cap(b.base))
		}
	}
}

// TestBucketTrickleAllocatesNothing is the dataflow pattern: tasks become
// ready one completion at a time, so the queue hovers around a few
// entries while hundreds of thousands pass through it.
func TestBucketTrickleAllocatesNothing(t *testing.T) {
	var b bucket
	tasks := [3]*Task{{ID: 1}, {ID: 2}, {ID: 3}}
	for _, t := range tasks {
		b.insert(len(b.q), t)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.pop()
		b.insert(len(b.q), tasks[0])
	})
	if allocs != 0 {
		t.Fatalf("a pop and a push on a three-entry queue allocated %v times, want 0", allocs)
	}
}
