package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/obsv"
)

// chainBase builds a base snapshot: task 1 completed (output 1v1 on n0),
// task 2 ready, task 3 pending.
func chainBase() *Snapshot {
	return &Snapshot{
		Format: Format, At: time.Second,
		Tasks: []engine.TaskSnap{doneRecord(1), {ID: 2, State: engine.Ready}, {ID: 3, State: engine.Pending}},
		Catalog: []CatalogEntry{{
			Key: deps.Version{Data: 1, Ver: 1}, Size: 10, Locations: []string{"n0"},
		}},
		Stats: engine.Stats{Completed: 1},
	}
}

// doneRecord is a record marking id completed with output (id,1).
func doneRecord(id int64) engine.TaskSnap {
	return engine.TaskSnap{
		ID: id, State: engine.Done, Epoch: 1, Completed: true,
		OutputKeys: []deps.Version{{Data: deps.DataID(id), Ver: 1}},
	}
}

// filed lists the IDs of s's records in registration order: all of them
// for section 0, else those a base file puts in that section.
func filed(s *Snapshot, section engine.State) []int64 {
	var ids []int64
	for _, t := range s.Tasks {
		if section == 0 || sectionOf(t) == section {
			ids = append(ids, t.ID)
		}
	}
	return ids
}

func TestDeltaChainLatestReconstruction(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(chainBase()); err != nil {
		t.Fatal(err)
	}
	// Delta 1: task 2 completes, its output lands in the catalog.
	d1 := &Delta{
		Format: Format, At: 2 * time.Second,
		Tasks: []engine.TaskSnap{doneRecord(2), {ID: 3, State: engine.Ready}},
		Catalog: []CatalogEntry{{
			Key: deps.Version{Data: 2, Ver: 1}, Size: 5, Locations: []string{"n1"},
		}},
		Stats: engine.Stats{Completed: 2},
	}
	if _, err := store.SaveDelta(d1); err != nil {
		t.Fatal(err)
	}
	// Delta 2: task 4 registered and ready; 1v1's entry vanishes
	// (tombstone row: zero size, no locations).
	d2 := &Delta{
		Format: Format, At: 3 * time.Second,
		Added:   []int64{4},
		Tasks:   []engine.TaskSnap{{ID: 4, State: engine.Ready}},
		Catalog: []CatalogEntry{{Key: deps.Version{Data: 1, Ver: 1}}},
		Stats:   engine.Stats{Completed: 2},
	}
	if _, err := store.SaveDelta(d2); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 3 || snap.At != 3*time.Second || snap.Stats.Completed != 2 {
		t.Fatalf("head fields: seq=%d at=%v stats=%+v", snap.Seq, snap.At, snap.Stats)
	}
	if got := filed(snap, 0); !slices.Equal(got, []int64{1, 2, 3, 4}) {
		t.Fatalf("order %v, want [1 2 3 4]", got)
	}
	if got := filed(snap, engine.Done); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("completed %v, want [1 2]", got)
	}
	if got := filed(snap, engine.Ready); !slices.Equal(got, []int64{3, 4}) {
		t.Fatalf("ready %v, want [3 4]", got)
	}
	if len(snap.Catalog) != 1 || snap.Catalog[0].Key != (deps.Version{Data: 2, Ver: 1}) {
		t.Fatalf("catalog %+v (tombstone not applied?)", snap.Catalog)
	}
}

// corruptFile flips bytes in the middle of the file so the digest check
// fails.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// chainFiles lists the store's checkpoint files by kind, seq-ascending.
func chainFiles(t *testing.T, store *Store) (bases, deltas []string) {
	t.Helper()
	for _, p := range store.Snapshots() {
		if strings.HasPrefix(filepath.Base(p), "delta-") {
			deltas = append(deltas, p)
		} else {
			bases = append(bases, p)
		}
	}
	return bases, deltas
}

func TestDeltaCorruptionFreezesChainAtValidPrefix(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(chainBase()); err != nil {
		t.Fatal(err)
	}
	// Three deltas completing tasks 2, 3, 4 (4 added in its delta).
	for i, d := range []*Delta{
		{Format: Format, Tasks: []engine.TaskSnap{doneRecord(2)}, Stats: engine.Stats{Completed: 2}},
		{Format: Format, Tasks: []engine.TaskSnap{doneRecord(3)}, Stats: engine.Stats{Completed: 3}},
		{Format: Format, Added: []int64{4}, Tasks: []engine.TaskSnap{doneRecord(4)}, Stats: engine.Stats{Completed: 4}},
	} {
		if _, err := store.SaveDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}

	_, deltas := chainFiles(t, store)
	if len(deltas) != 3 {
		t.Fatalf("%d delta files, want 3", len(deltas))
	}
	corruptFile(t, deltas[1]) // the middle link

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	// The chain is frozen after delta 1: tasks 1 and 2 completed; the
	// records of deltas 2 and 3 are unreachable by construction (their
	// ParentSeq can no longer match).
	if done := filed(snap, engine.Done); len(done) != 2 || snap.Seq != 2 {
		t.Fatalf("prefix state: completed %v, seq %d (want 2 of them, 2)", done, snap.Seq)
	}

	// A corrupt base strands the whole chain: nothing valid remains.
	bases, _ := chainFiles(t, store)
	corruptFile(t, bases[0])
	if _, err := store.Latest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("corrupt base: err %v, want ErrNoSnapshot", err)
	}
}

func TestDeltaMidChainFullSnapshotResetsChain(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(chainBase()); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveDelta(&Delta{Format: Format, Tasks: []engine.TaskSnap{doneRecord(2)}}); err != nil {
		t.Fatal(err)
	}
	// A base lands mid-chain (a compaction writes exactly this). It
	// subsumes the chain so far and resets it.
	full := chainBase()
	full.Tasks[1] = doneRecord(2)
	full.At = 5 * time.Second
	if _, err := store.Save(full); err != nil {
		t.Fatal(err)
	}
	// The next delta chains onto the full save.
	if _, err := store.SaveDelta(&Delta{Format: Format, At: 6 * time.Second, Tasks: []engine.TaskSnap{doneRecord(3)}}); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if done := filed(snap, engine.Done); len(done) != 3 || snap.At != 6*time.Second || snap.Seq != 4 {
		t.Fatalf("reconstruction: completed %v, at %v, seq %d", done, snap.At, snap.Seq)
	}
}

func TestDeltaChainRetentionPrunesWholeChains(t *testing.T) {
	store, err := NewStore(t.TempDir(), Keep(2)) // 2 is the retention minimum
	if err != nil {
		t.Fatal(err)
	}
	// fullWith builds a compacting base recording ids completed.
	fullWith := func(ids ...int64) *Snapshot {
		s := &Snapshot{Format: Format}
		for _, id := range ids {
			s.Tasks = append(s.Tasks, engine.TaskSnap{ID: id, State: engine.Done, Epoch: 1, Completed: true})
		}
		return s
	}
	// Chain 1: base + two deltas. All three must survive until enough
	// newer bases exist — pruning mid-chain would break reconstruction.
	if _, err := store.Save(chainBase()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Delta{
		{Format: Format, Tasks: []engine.TaskSnap{doneRecord(2)}},
		{Format: Format, Tasks: []engine.TaskSnap{doneRecord(3)}},
	} {
		if _, err := store.SaveDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	// Chain 2: a compacting base plus one delta. Two bases on disk is
	// within the budget, so chain 1 still stands.
	if _, err := store.Save(fullWith(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveDelta(&Delta{Format: Format, Added: []int64{4}, Tasks: []engine.TaskSnap{doneRecord(4)}}); err != nil {
		t.Fatal(err)
	}
	if files := store.Snapshots(); len(files) != 5 {
		t.Fatalf("two chains: %d files on disk, want 5 (no mid-chain pruning)", len(files))
	}
	// Chain 3: the third base pushes chain 1 past the budget — the whole
	// chain goes, never a base out from under live deltas.
	if _, err := store.Save(fullWith(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveDelta(&Delta{Format: Format, Added: []int64{5}, Tasks: []engine.TaskSnap{doneRecord(5)}}); err != nil {
		t.Fatal(err)
	}

	bases, deltas := chainFiles(t, store)
	if len(bases) != 2 || len(deltas) != 2 {
		t.Fatalf("after pruning: %d bases + %d deltas on disk, want 2 + 2", len(bases), len(deltas))
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if done := filed(snap, engine.Done); len(done) != 5 {
		t.Fatalf("reconstruction after prune: completed %v, want 5 tasks", done)
	}
}

// fakeSource drives the Checkpointer's change-aware save logic
// without an engine: dirty is the pending change count, and captures
// drain it exactly like the real backends do.
type fakeSource struct {
	dirty     int
	completed int64 // grows as "changes" are flushed into records
	bases     int   // CheckpointBase calls
}

func (f *fakeSource) CheckpointBase() *Snapshot {
	f.bases++
	f.completed += int64(f.dirty)
	f.dirty = 0
	return &Snapshot{Format: Format, Stats: engine.Stats{Completed: int(f.completed)}}
}

func (f *fakeSource) CheckpointDelta() *Delta {
	d := &Delta{Format: Format}
	for i := 0; i < f.dirty; i++ {
		f.completed++
		d.Tasks = append(d.Tasks, doneRecord(f.completed))
	}
	f.dirty = 0
	d.Stats = engine.Stats{Completed: int(f.completed)}
	return d
}

func (f *fakeSource) CheckpointDirty() int { return f.dirty }

// TestCheckpointerDeltaCadenceAndSkip: the one cadence — a captured base,
// compactEvery deltas, then the fold written as a base — with an idle
// trigger skipped and every later base a fold, not a capture.
func TestCheckpointerDeltaCadenceAndSkip(t *testing.T) {
	store, err := NewStore(t.TempDir(), Keep(1000))
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{}
	met := obsv.NewCkptMetrics(obsv.NewRegistry())
	c := NewCheckpointer(Config{Store: store, Policy: EveryN(1), Metrics: met}, src, nil)
	defer c.Stop()

	complete := func(changes int) {
		src.dirty += changes
		c.TaskCompleted()
	}
	complete(1) // first save: base, the one base captured
	for i := 0; i < compactEvery; i++ {
		complete(1) // deltas, chain lengths 1..compactEvery
	}
	complete(1) // compaction: a delta captured, the fold written as a base
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	before := len(store.Snapshots())
	complete(0) // idle trigger: skipped outright
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(store.Snapshots()); n != before {
		t.Fatalf("the idle trigger took the store from %d files to %d, want no new file", before, n)
	}
	complete(1) // delta on the new chain
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Saves counts every persisted file; 2 of them are bases.
	const saves = compactEvery + 3
	if src.bases != 1 {
		t.Fatalf("CheckpointBase called %d times, want once: later bases are folds", src.bases)
	}
	if met.Saves.Value() != saves || met.DeltaSaves.Value() != saves-2 {
		t.Fatalf("saves=%d deltaSaves=%d, want %d/%d", met.Saves.Value(), met.DeltaSaves.Value(), saves, saves-2)
	}
	bases, deltas := chainFiles(t, store)
	if len(bases) != 2 || len(deltas) != saves-2 {
		t.Fatalf("%d bases + %d deltas on disk, want 2 + %d", len(bases), len(deltas), saves-2)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Completed != saves {
		t.Fatalf("reconstructed %d completions, want %d", snap.Stats.Completed, saves)
	}
	if done := filed(snap, engine.Done); len(done) != saves-1 || done[len(done)-1] != saves {
		t.Fatalf("reconstructed completed records %v, want 2..%d (the base captured none)", done, saves)
	}
}

// saveChain writes one chain to the store: a base over tasks 1..total with
// 1..done completed (one sized output each) and the rest pending, then one
// delta per extra completing the next task.
func saveChain(t *testing.T, store *Store, total, done int64, deltas int) {
	t.Helper()
	entry := func(id int64) CatalogEntry {
		return CatalogEntry{Key: deps.Version{Data: deps.DataID(id), Ver: 1}, Size: 8, Locations: []string{"n0"}}
	}
	base := &Snapshot{Format: Format, Stats: engine.Stats{Completed: int(done)}}
	for id := int64(1); id <= total; id++ {
		if id > done {
			base.Tasks = append(base.Tasks, engine.TaskSnap{ID: id, State: engine.Pending})
			continue
		}
		base.Tasks = append(base.Tasks, doneRecord(id))
		base.Catalog = append(base.Catalog, entry(id))
	}
	if _, err := store.Save(base); err != nil {
		t.Fatal(err)
	}
	for id := done + 1; id <= done+int64(deltas); id++ {
		d := &Delta{
			Format: Format, Tasks: []engine.TaskSnap{doneRecord(id)},
			Catalog: []CatalogEntry{entry(id)}, Stats: engine.Stats{Completed: int(id)},
		}
		if _, err := store.SaveDelta(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLatestCostsTheNewestChain is the deterministic gate on what Latest
// reads: a directory of four chains must cost what a directory holding
// only the newest of them costs — the same snapshot, and allocations apart
// by no more than the longer directory listing. Decoding even one more
// 200-task base would cost thousands.
func TestLatestCostsTheNewestChain(t *testing.T) {
	const chains, deltas = 4, 2
	many, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= chains; k++ {
		saveChain(t, many, 200, 40*k, deltas)
	}
	one, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files := many.Snapshots()
	if len(files) != chains*(1+deltas) {
		t.Fatalf("%d files on disk, want %d", len(files), chains*(1+deltas))
	}
	older := len(files) - (1 + deltas)
	for _, path := range files[older:] {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(one.Dir(), filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, err := many.Latest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := one.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if done := filed(got, engine.Done); len(done) != 40*chains+deltas {
		t.Fatalf("%d completed, want %d", len(done), 40*chains+deltas)
	}
	if err := Equivalent(got, want); err != nil {
		t.Fatalf("four chains vs the newest alone: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("four chains vs the newest alone:\n got %+v\nwant %+v", got, want)
	}

	allocs := func(s *Store) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := s.Latest(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A directory entry costs its name, its DirEntry and its parse.
	const perEntry = 8
	if a, b := allocs(many), allocs(one); a > b+perEntry*float64(older) {
		t.Fatalf("Latest over %d chains allocated %.0f objects, over the newest alone %.0f: older chains are being read", chains, a, b)
	}
}

// TestLatestTruncatedBaseFallsBackAWholeChain is the mirror case: when the
// newest base does not verify, Latest returns the whole previous chain —
// its base and all its deltas — and none of the bad base's own deltas.
func TestLatestTruncatedBaseFallsBackAWholeChain(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveChain(t, store, 10, 2, 2) // seqs 1-3: tasks 1-4 completed
	saveChain(t, store, 10, 6, 2) // seqs 4-6: tasks 1-8 completed
	bases, _ := chainFiles(t, store)
	data, err := os.ReadFile(bases[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bases[1], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 3 || snap.Stats.Completed != 4 {
		t.Fatalf("fell back to seq %d with %d completions, want seq 3 (end of the previous chain) with 4", snap.Seq, snap.Stats.Completed)
	}
	if ids := filed(snap, engine.Done); !reflect.DeepEqual(ids, []int64{1, 2, 3, 4}) {
		t.Fatalf("completed %v, want [1 2 3 4]: the stranded deltas complete 7 and 8", ids)
	}
	if len(snap.Catalog) != 4 {
		t.Fatalf("%d catalog rows, want 4", len(snap.Catalog))
	}
}
