package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		At:    time.Second,
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
		At:    2 * time.Second,
		Tasks: []engine.TaskSnap{doneRecord(2), {ID: 3, State: engine.Ready}},
		Catalog: []CatalogEntry{{
			Key: deps.Version{Data: 2, Ver: 1}, Size: 5, Locations: []string{"n1"},
		}},
		Stats: engine.Stats{Completed: 2},
	}
	if _, err := store.SaveDelta(d1); err != nil {
		t.Fatal(err)
	}
	// Delta 2: task 4 registered, then ready — the group holds both
	// records, the writer keeps the last; 1v1's entry vanishes (tombstone
	// row: zero size, no locations).
	d2 := &Delta{
		At:      3 * time.Second,
		Tasks:   []engine.TaskSnap{{ID: 4, State: engine.Pending}, {ID: 4, State: engine.Ready}},
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

// chainFiles lists the store's bases and the logs beside them,
// seq-ascending.
func chainFiles(t *testing.T, store *Store) (bases, logs []string) {
	t.Helper()
	bases = store.Snapshots()
	logs, err := filepath.Glob(filepath.Join(store.Dir(), logPrefix+"*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return bases, logs
}

// frames returns where each frame of a log starts, and its end.
func frames(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var at []int
	for i := 0; i+frameHeader <= len(data); i += frameHeader + int(binary.LittleEndian.Uint32(data[i:])) {
		at = append(at, i)
	}
	return append(at, len(data))
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
		{Tasks: []engine.TaskSnap{doneRecord(2)}, Stats: engine.Stats{Completed: 2}},
		{Tasks: []engine.TaskSnap{doneRecord(3)}, Stats: engine.Stats{Completed: 3}},
		{Tasks: []engine.TaskSnap{doneRecord(4)}, Stats: engine.Stats{Completed: 4}},
	} {
		if _, err := store.SaveDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}

	_, logs := chainFiles(t, store)
	at := frames(t, logs[0])
	if len(logs) != 1 || len(at) != 4 {
		t.Fatalf("%d logs, frames at %v; want one log of 3 frames", len(logs), at)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[(at[1]+at[2])/2] ^= 0xff // inside the middle frame
	if err := os.WriteFile(logs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	// The log's valid prefix ends after frame 1: tasks 1 and 2 completed;
	// frame 3 is whole, but nothing past a bad frame is applied.
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
	if _, err := store.SaveDelta(&Delta{Tasks: []engine.TaskSnap{doneRecord(2)}}); err != nil {
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
	if _, err := store.SaveDelta(&Delta{At: 6 * time.Second, Tasks: []engine.TaskSnap{doneRecord(3)}}); err != nil {
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
	// Chain 1: base + a log of two groups. Both must survive until enough
	// newer bases exist — pruning a base under its log would strand it.
	if _, err := store.Save(chainBase()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Delta{
		{Tasks: []engine.TaskSnap{doneRecord(2)}},
		{Tasks: []engine.TaskSnap{doneRecord(3)}},
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
	if _, err := store.SaveDelta(&Delta{Tasks: []engine.TaskSnap{doneRecord(4)}}); err != nil {
		t.Fatal(err)
	}
	if bases, logs := chainFiles(t, store); len(bases) != 2 || len(logs) != 2 {
		t.Fatalf("two chains: %d bases + %d logs on disk, want 2 + 2 (no mid-chain pruning)", len(bases), len(logs))
	}
	// Chain 3: the third base pushes chain 1 past the budget — the base
	// and its log go together.
	if _, err := store.Save(fullWith(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveDelta(&Delta{Tasks: []engine.TaskSnap{doneRecord(5)}}); err != nil {
		t.Fatal(err)
	}

	bases, logs := chainFiles(t, store)
	if len(bases) != 2 || len(logs) != 2 || filepath.Base(logs[0]) != "log-000004.ckpt" {
		t.Fatalf("after pruning: bases %v, logs %v; want the newest 2 of each", bases, logs)
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
// without an engine: dirty is the count of changes logged since the last
// capture, and captures swap them out exactly like the real backends do.
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

func (f *fakeSource) CheckpointDelta(spare *Delta) *Delta {
	d := spare
	if d == nil {
		d = &Delta{}
	}
	d.Tasks = d.Tasks[:0]
	for i := 0; i < f.dirty; i++ {
		f.completed++
		d.Tasks = append(d.Tasks, doneRecord(f.completed))
	}
	f.dirty = 0
	d.Stats = engine.Stats{Completed: int(f.completed)}
	return d
}

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
	before := store.lastSeq()
	complete(0) // idle trigger: skipped outright
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if seq := store.lastSeq(); seq != before {
		t.Fatalf("the idle trigger took the store from seq %d to %d, want no save", before, seq)
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
	bases, logs := chainFiles(t, store)
	framed := 0
	for _, l := range logs {
		framed += len(frames(t, l)) - 1
	}
	if len(bases) != 2 || len(logs) != 2 || framed != saves-2 {
		t.Fatalf("%d bases + %d logs of %d frames on disk, want 2 + 2 of %d", len(bases), len(logs), framed, saves-2)
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
			Tasks:   []engine.TaskSnap{doneRecord(id)},
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
	bases, logs := chainFiles(t, many)
	if len(bases) != chains || len(logs) != chains {
		t.Fatalf("%d bases and %d logs on disk, want %d of each", len(bases), len(logs), chains)
	}
	older := 2 * (chains - 1) // the files of every chain but the newest
	for _, path := range []string{bases[chains-1], logs[chains-1]} {
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
// its base and every frame of its log — and none of the bad base's own
// log.
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

// TestTornLogTailsFallBackToTheLastIntactFrame: a log cut inside its last
// frame at every byte offset, and a log with one byte flipped in any one
// frame, reconstruct to the state of the last frame before the damage —
// never an error while the base is valid, never a frame past a bad one.
func TestTornLogTailsFallBackToTheLastIntactFrame(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveChain(t, store, 12, 2, 4) // a base, then frames completing tasks 3..6
	path := store.logPath(1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := frames(t, path) // where each frame starts, and the log's end
	if len(at) != 5 {
		t.Fatalf("frames at %v, want 4", at)
	}
	latestWith := func(log []byte) *Snapshot {
		t.Helper()
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := store.Latest()
		if err != nil {
			t.Fatalf("Latest over a valid base: %v", err)
		}
		return snap
	}
	var after []*Snapshot // after[k]: the state with the first k frames applied
	for _, end := range at {
		after = append(after, latestWith(data[:end]))
	}
	for k, s := range after {
		if s.Seq != 1+k || s.Stats.Completed != 2+k {
			t.Fatalf("%d frames: seq %d, %d completions", k, s.Seq, s.Stats.Completed)
		}
	}
	last := len(at) - 2
	for cut := at[last]; cut < len(data); cut++ {
		if got := latestWith(data[:cut]); !reflect.DeepEqual(got, after[last]) {
			t.Fatalf("log cut at byte %d of its last frame [%d, %d): seq %d, want %d", cut, at[last], len(data), got.Seq, after[last].Seq)
		}
	}
	for k := 0; k+1 < len(at); k++ {
		flipped := slices.Clone(data)
		flipped[(at[k]+at[k+1])/2] ^= 0x40
		if got := latestWith(flipped); !reflect.DeepEqual(got, after[k]) {
			t.Fatalf("a byte flipped in frame %d: seq %d, want %d", k, got.Seq, after[k].Seq)
		}
	}

	// A store opened over a torn tail appends over it: the new frame
	// follows the last intact one.
	latestWith(data[:at[last]+3])
	reopened, err := NewStore(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.SaveDelta(&Delta{Tasks: []engine.TaskSnap{doneRecord(12)}, Stats: engine.Stats{Completed: 9}}); err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Latest()
	if err != nil || got.Seq != after[last].Seq+1 || got.Stats.Completed != 9 || len(frames(t, path)) != len(at) {
		t.Fatalf("after an append over the torn tail: %+v, %v; want seq %d and the new group", got, err, after[last].Seq+1)
	}
}

// A save that fails still takes its sequence number, so the frame after it
// does not follow the last one on disk: the log's valid prefix ends before
// it, as it ends at a damaged frame — a group is never applied over a
// missing one.
func TestLogStopsAtASequenceGap(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveChain(t, store, 6, 2, 1) // a base, then a frame completing task 3
	store.seq++                  // what a failed save leaves behind
	if _, err := store.SaveDelta(&Delta{Tasks: []engine.TaskSnap{doneRecord(4)}, Stats: engine.Stats{Completed: 4}}); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 2 || snap.Stats.Completed != 3 {
		t.Fatalf("Latest = seq %d with %d completions, want seq 2 with 3: the frame past the gap applied", snap.Seq, snap.Stats.Completed)
	}
}
