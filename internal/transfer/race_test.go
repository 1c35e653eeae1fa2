package transfer

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/deps"
)

// TestRegistryHammerCapturesLoseNothing is the registry's concurrency
// contract under the race detector, and the checkpoint log's promise with
// it: writers mutate rows while a capture takes one base (StartLog) and
// then swaps the log out over and over, handing each drained array back
// as the next spare. A write racing a capture lands in that group or the
// next, never nowhere — so the base with every group applied in order must
// be exactly the catalog the writers left.
// A reader checks, meanwhile, that the holder lists Row hands out stay
// sorted (they are shared, and a writer must never edit one in place).
func TestRegistryHammerCapturesLoseNothing(t *testing.T) {
	const writers, opsPerWriter, data, nodes = 4, 3000, 48, 6
	r := NewRegistry()
	key := func(rng *rand.Rand) deps.Version {
		return deps.Version{Data: deps.DataID(rng.Intn(data)), Ver: 1 + rng.Intn(2)}
	}
	node := func(rng *rand.Rand) string { return fmt.Sprintf("n%d", rng.Intn(nodes)) }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsPerWriter; i++ {
				switch op := rng.Intn(100); {
				case op < 20:
					r.SetSize(key(rng), int64(rng.Intn(4))<<20) // size 0 may drop the row
				case op < 90:
					r.AddReplica(key(rng), node(rng))
				default:
					r.DropNode(node(rng))
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() { // the placement path's read
		defer side.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, holders := r.Row(key(rng)); !slices.IsSorted(holders) {
				t.Errorf("Row handed out an unsorted holder list %v", holders)
				return
			}
		}
	}()

	// The checkpoint tick: one base, then deltas for as long as anyone writes.
	catalog := make(map[deps.Version]Entry)
	apply := func(entries []Entry) {
		for _, e := range entries {
			if e.Size == 0 && len(e.Locations) == 0 {
				delete(catalog, e.Key) // tombstone: the row vanished
			} else {
				catalog[e.Key] = e
			}
		}
	}
	apply(r.StartLog())
	var spare []Entry
	side.Add(1)
	go func() {
		defer side.Done()
		for {
			select {
			case <-done:
				return
			default:
				spare = r.SwapLog(spare)
				apply(spare)
			}
		}
	}()
	wg.Wait()
	close(done)
	side.Wait()
	apply(r.SwapLog(spare)) // whatever the last writes left behind
	if rest := r.SwapLog(nil); len(rest) != 0 {
		t.Fatalf("%d rows still logged after the final swap", len(rest))
	}

	want := r.Entries()
	got := make([]Entry, 0, len(catalog))
	for _, e := range catalog {
		got = append(got, e)
	}
	slices.SortFunc(got, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Key.Data, b.Key.Data), cmp.Compare(a.Key.Ver, b.Key.Ver))
	})
	same := func(a, b Entry) bool {
		return a.Key == b.Key && a.Size == b.Size && slices.Equal(a.Locations, b.Locations)
	}
	if !slices.EqualFunc(got, want, same) {
		t.Fatalf("base + deltas rebuild %d rows, the registry holds %d; first difference: %v",
			len(got), len(want), firstDifference(got, want, same))
	}
}

func firstDifference(got, want []Entry, same func(a, b Entry) bool) string {
	for i := range min(len(got), len(want)) {
		if !same(got[i], want[i]) {
			return fmt.Sprintf("rebuilt %+v, registry %+v", got[i], want[i])
		}
	}
	return "one side is a prefix of the other"
}

// TestSharedSoleHolderListIsNeverWrittenThrough pins what lets AddReplica
// hand every version a node alone holds the same one-element list: two
// versions share n0's list, readers hold on to it and keep reading, and
// writers add a second holder, drop it, drop the first and add it back on
// both rows. The readers' list must stay ["n0"] throughout (the race
// detector watches its backing array), and a row that returns to n0 alone
// gets the shared list again, not a copy.
func TestSharedSoleHolderListIsNeverWrittenThrough(t *testing.T) {
	r := NewRegistry()
	a, b := deps.Version{Data: 1, Ver: 1}, deps.Version{Data: 2, Ver: 1}
	r.AddReplica(a, "n0")
	r.AddReplica(b, "n0")
	shared := r.Where(a)
	if other := r.Where(b); len(shared) != 1 || &shared[0] != &other[0] {
		t.Fatalf("two rows held by n0 alone do not share one list: %v, %v", shared, other)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if len(shared) != 1 || shared[0] != "n0" {
				t.Errorf("the shared list changed under its readers: %v", shared)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for _, k := range []deps.Version{a, b} {
		writers.Add(1)
		go func(k deps.Version) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				r.AddReplica(k, "m9") // sorts before n0: an in-place insert would shift it
				r.DropNode("m9")
				r.DropNode("n0")
				r.AddReplica(k, "n0")
			}
		}(k)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	for _, k := range []deps.Version{a, b} {
		// The other writer's last DropNode("n0") may have emptied k after
		// its own last add: bring it back to n0 alone (a no-op otherwise).
		r.AddReplica(k, "n0")
		if got := r.Where(k); len(got) != 1 || &got[0] != &shared[0] {
			t.Fatalf("%v back on n0 alone reads %v, not the shared list", k, got)
		}
	}
}
