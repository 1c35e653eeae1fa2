package host

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simclock"
	"repro/internal/transfer"
)

type nopExecutor struct{}

func (nopExecutor) Launch(engine.Placement) {}

// seedCatalog over a catalog whose every holder is still in the pool
// hands each row's own list to the registry: no allocation per row — all
// that grows with the catalog is the registry's map. A row that loses a
// holder is seeded from a filtered copy, its neighbours untouched.
func TestSeedCatalogAllLiveAllocatesNothingPerRow(t *testing.T) {
	const rows = 4096
	pool := resources.NewPool()
	for i := 0; i < 8; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i), resources.Description{Cores: 1, MemoryMB: 1000, SpeedFactor: 1}))
	}
	snap := &checkpoint.Snapshot{}
	for i := 0; i < rows; i++ {
		snap.Catalog = append(snap.Catalog, checkpoint.CatalogEntry{
			Key: deps.Version{Data: deps.DataID(i + 1), Ver: 1}, Size: 1 << 20,
			Locations: []string{fmt.Sprintf("n%d", i%4), fmt.Sprintf("n%d", 4+i%4)},
		})
	}
	clk := simclock.New()
	h := New(Config{Pool: pool, Policy: sched.FIFO{}}, Backend{Clock: clk, Timer: clk, Executor: nopExecutor{}})
	allocs := testing.AllocsPerRun(3, func() {
		h.cfg.Locations = transfer.NewRegistry()
		h.seedCatalog(snap)
	})
	if perRow := allocs / rows; perRow > 0.05 {
		t.Fatalf("seedCatalog of %d all-live rows allocated %.0f objects (%.3f per row), want ~0 per row", rows, allocs, perRow)
	}
	for _, en := range snap.Catalog[:8] {
		if got := h.cfg.Locations.Where(en.Key); !slices.Equal(got, en.Locations) {
			t.Fatalf("%v seeded with %v, want %v", en.Key, got, en.Locations)
		}
	}

	gone := slices.Clone(snap.Catalog[:3])
	gone[1].Locations = []string{"n1", "lost", "n5"}
	h.cfg.Locations = transfer.NewRegistry()
	h.seedCatalog(&checkpoint.Snapshot{Catalog: gone})
	for i, want := range [][]string{{"n0", "n4"}, {"n1", "n5"}, {"n2", "n6"}} {
		if got := h.cfg.Locations.Where(gone[i].Key); !slices.Equal(got, want) {
			t.Fatalf("row %d seeded with %v, want %v", i, got, want)
		}
	}
	if !slices.Equal(gone[1].Locations, []string{"n1", "lost", "n5"}) {
		t.Fatalf("seeding rewrote the snapshot's list: %v", gone[1].Locations)
	}
}
