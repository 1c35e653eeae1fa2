package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/transfer"
)

// writeWire stores v, a wire struct, the way Store names a file — so the
// digest matches and only the decoder can refuse it — and returns its path.
func writeWire(t *testing.T, s *Store, prefix string, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), fmt.Sprintf("%s%06d-%s.ckpt", prefix, 1, digest(buf.Bytes())))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// frameOf lays v, a wire struct, out as a log frame whose length and
// checksum hold — so only the decoder and the column checks can refuse it.
func frameOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(buf.Len()))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(buf.Bytes()))
	return append(frame, buf.Bytes()...)
}

// Every way a file's columns can disagree is refused — a base as
// ErrCorrupt, a frame as the end of its log's valid prefix — and none
// panics, though the digest in a base's name and a frame's checksum check
// out.
func TestColumnsThatDisagreeAreCorrupt(t *testing.T) {
	snapWire := func() *wireSnapshot {
		s := goldenSnapshot()
		s.Format = Format
		return s.wire()
	}
	deltaWire := func() *wireDelta { return goldenDelta().wire(2) }
	applied := func(frame []byte) (n int) {
		readFrames(frame, 1, func(*Delta, int) { n++ })
		return n
	}
	for _, c := range []struct {
		name  string
		snap  func(*wireSnapshot)
		delta func(*wireDelta)
	}{
		{name: "catalog lengths differ", snap: func(w *wireSnapshot) { w.Catalog.Sizes = w.Catalog.Sizes[:1] }},
		{name: "catalog keys out of order", snap: func(w *wireSnapshot) { w.Catalog.Keys[0], w.Catalog.Keys[1] = w.Catalog.Keys[1], w.Catalog.Keys[0] }},
		{name: "catalog key repeated", snap: func(w *wireSnapshot) { w.Catalog.Keys[2] = w.Catalog.Keys[1] }},
		{name: "task lengths differ", snap: func(w *wireSnapshot) { w.Completed.Epochs = append(w.Completed.Epochs, 1) }},
		{name: "section names a task the order lacks", snap: func(w *wireSnapshot) { w.Order = w.Order[:len(w.Order)-1] }},
		{name: "delta states short", delta: func(w *wireDelta) { w.States = w.States[:1] }},
		{name: "delta flags long", delta: func(w *wireDelta) { w.Completed = append(w.Completed, true) }},
		{name: "value lengths differ", snap: func(w *wireSnapshot) { w.Catalog.ValueLens = nil }},
		{name: "negative holder count", snap: func(w *wireSnapshot) { w.Catalog.Holders[0], w.Catalog.Holders[1] = -1, 4 }},
		{name: "negative output count", delta: func(w *wireDelta) { w.Tasks.Counts[0], w.Tasks.Counts[1] = -1, 2 }},
		{name: "holder counts over the column", snap: func(w *wireSnapshot) { w.Catalog.Holders[2]++ }},
		{name: "holder counts under the column", snap: func(w *wireSnapshot) { w.Catalog.Holders[2]-- }},
		{name: "output counts over the column", snap: func(w *wireSnapshot) { w.Completed.Counts[1] = 1 << 40 }},
		{name: "value bytes under the column", snap: func(w *wireSnapshot) { w.Catalog.Values = append(w.Catalog.Values, 0) }},
		{name: "node index past the table", snap: func(w *wireSnapshot) { w.Catalog.Locs[1] = len(w.Catalog.Nodes) }},
		{name: "negative node index", delta: func(w *wireDelta) { w.Catalog.Locs[0] = -1 }},
		{name: "value row past the catalog", snap: func(w *wireSnapshot) { w.Catalog.ValueRows[0] = len(w.Catalog.Keys) }},
		{name: "negative value row", snap: func(w *wireSnapshot) { w.Catalog.ValueRows[0] = -1 }},
		{name: "value row repeated", snap: func(w *wireSnapshot) {
			c := &w.Catalog
			c.ValueRows, c.ValueLens, c.Values = []int{2, 2}, []int{1, 2}, []byte("gob")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			store, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if c.snap != nil {
				w := snapWire()
				c.snap(w)
				if snap, err := store.Load(writeWire(t, store, snapPrefix, w)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Load = %+v, %v; want ErrCorrupt", snap, err)
				}
			}
			if c.delta != nil {
				w := deltaWire()
				c.delta(w)
				if n := applied(frameOf(t, w)); n != 0 {
					t.Fatalf("the log applied %d groups, want none", n)
				}
			}
		})
	}
	// The unmutated wire forms load: the table's failures are its mutations.
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(writeWire(t, store, snapPrefix, snapWire())); err != nil {
		t.Fatal(err)
	}
	if n := applied(frameOf(t, deltaWire())); n != 1 {
		t.Fatalf("the log applied %d groups of an unmutated frame, want 1", n)
	}
}

// Snapshots and log groups read back as written across the shapes the
// columns must keep apart: values present, absent and empty, a vanished
// row (size 0, no holders), rows and records with nothing to carve, and
// empty sections. A capture hands empty slices where gob hands back nil;
// the two must stay Equivalent.
func TestFormat3RoundTrips(t *testing.T) {
	key := func(d int) deps.Version { return deps.Version{Data: deps.DataID(d), Ver: 1} }
	catalog := []CatalogEntry{
		{Key: key(1), Size: 10, Locations: []string{"b", "c"}, Value: []byte{1, 2}, HasValue: true},
		{Key: key(2)}, // vanished
		{Key: key(3), Size: 5, Locations: []string{"a"}},
		{Key: key(4), Locations: []string{"c", "a"}, HasValue: true}, // an empty value
		{Key: key(5), Size: 7, Value: []byte{9}, HasValue: true},
	}
	snaps := []*Snapshot{
		{},
		{Catalog: catalog},
		{
			At: time.Minute,
			Tasks: []engine.TaskSnap{
				{ID: 1, State: engine.Done, Epoch: 2, Completed: true, OutputKeys: []deps.Version{key(1), key(3)}},
				{ID: 4, State: engine.Ready},
				{ID: 2, State: engine.Done, Completed: true},
				{ID: 5, State: engine.Pending},
				{ID: 3, State: engine.Done, Completed: true, OutputKeys: []deps.Version{key(5)}},
				{ID: 6, State: engine.Pending},
			},
			Catalog: catalog,
			Stats:   engine.Stats{Launched: 3, Completed: 3},
		},
	}
	deltas := []*Delta{
		{},
		{Tasks: []engine.TaskSnap{{ID: 7, State: engine.Pending}}},
		{
			Tasks: []engine.TaskSnap{
				{ID: 1, State: engine.Running, Epoch: 3, Completed: true, OutputKeys: []deps.Version{key(1)}},
				{ID: 4, State: engine.Done, Epoch: 1, Completed: true},
			},
			Catalog: catalog, Stats: engine.Stats{Completed: 4},
		},
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range snaps {
		path, err := store.Save(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := store.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("snapshot %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	for _, d := range deltas {
		if _, err := store.SaveDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	var got []*Delta
	log, err := os.ReadFile(store.logPath(store.base))
	if err != nil {
		t.Fatal(err)
	}
	readFrames(log, store.base, func(d *Delta, _ int) { got = append(got, d) })
	if !reflect.DeepEqual(got, deltas) {
		t.Errorf("log groups:\n got %+v\nwant %+v", got, deltas)
	}

	// A base keeps the ID and section alone of a task that is not done: a
	// completed task mid-re-run reads back as a running one, epoch 0, not
	// completed, no outputs — the same state to Equivalent.
	rerun := &Snapshot{Tasks: []engine.TaskSnap{{ID: 1, State: engine.Running, Epoch: 3, Completed: true, OutputKeys: []deps.Version{key(1)}}}}
	path, err := store.Save(rerun)
	if err != nil {
		t.Fatal(err)
	}
	back, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []engine.TaskSnap{{ID: 1, State: engine.Running}}; !reflect.DeepEqual(back.Tasks, want) {
		t.Errorf("a running record with a completion read back as %+v, want %+v", back.Tasks, want)
	}
	if err := Equivalent(rerun, back); err != nil {
		t.Errorf("a running record read back as a different state: %v", err)
	}

	// Empty, not nil: the shape a capture of an empty engine hands over.
	empty := &Snapshot{
		Tasks:   []engine.TaskSnap{{ID: 1, State: engine.Done, Completed: true, OutputKeys: []deps.Version{}}},
		Catalog: []CatalogEntry{{Key: key(1), Size: 1, Locations: []string{}}},
	}
	if path, err = store.Save(empty); err != nil {
		t.Fatal(err)
	}
	if back, err = store.Load(path); err != nil {
		t.Fatal(err)
	}
	if err := Equivalent(back, empty); err != nil {
		t.Fatalf("empty slices read back as a different state: %v", err)
	}
}

// bigSnapshot is a rows-row snapshot shaped like a stencil campaign's: a
// completed record and a catalog row of one or two holders per task.
func bigSnapshot(rows int) *Snapshot {
	s := &Snapshot{}
	for i := 0; i < rows; i++ {
		k := deps.Version{Data: deps.DataID(i + 1), Ver: 1}
		holders := []string{fmt.Sprintf("n%02d", i%16)}
		if i%3 == 0 {
			holders = append(holders, fmt.Sprintf("n%02d", 16+i%4))
		}
		s.Tasks = append(s.Tasks, engine.TaskSnap{ID: int64(i + 1), State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{k}})
		s.Catalog = append(s.Catalog, CatalogEntry{Key: k, Size: 1 << 20, Locations: holders})
	}
	return s
}

// TestSaveLatestAllocatesPerColumn is the codec's deterministic cost gate:
// a save and a restore of a 10k-row snapshot allocate within a constant of
// those of a 1k-row one — O(columns), not O(rows). (Row-by-row, the gap
// was several allocations per row: tens of thousands.)
func TestSaveLatestAllocatesPerColumn(t *testing.T) {
	allocs := func(rows int) float64 {
		snap := bigSnapshot(rows)
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := store.Save(snap); err != nil {
				t.Fatal(err)
			}
			got, err := store.Latest()
			if err != nil || len(got.Catalog) != rows {
				t.Fatalf("Latest: %v", err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	// What still grows with size does so by steps, not rows: gob's buffers
	// double, and the merger's two maps add a table per ~1k entries. The
	// row-by-row codec this gate replaced sat ~70k objects apart here.
	const slack = 128
	if large > small+slack {
		t.Fatalf("Save+Latest allocated %.0f objects for 1k rows, %.0f for 10k: the codec pays per row", small, large)
	}
}

// The Locations a file decodes to are clipped sub-slices of one array:
// once seeded into a registry, a replica added to one row can never be
// written into the next row's list.
func TestDecodedLocationsAreClipped(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(bigSnapshot(9)); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	reg := transfer.NewRegistry()
	for _, en := range snap.Catalog {
		if cap(en.Locations) != len(en.Locations) {
			t.Fatalf("row %+v: Locations %v has room for %d", en.Key, en.Locations, cap(en.Locations))
		}
		reg.Seed(en.Key, en.Size, en.Locations)
	}
	want := make([][]string, len(snap.Catalog))
	for i, en := range snap.Catalog {
		want[i] = slices.Clone(en.Locations)
	}
	for _, en := range snap.Catalog {
		reg.AddReplica(en.Key, "zz")
	}
	for i, en := range snap.Catalog {
		if !slices.Equal(en.Locations, want[i]) {
			t.Fatalf("row %d's list changed under AddReplica: %v, was %v", i, en.Locations, want[i])
		}
		if got := reg.Where(en.Key); !slices.Equal(got, append(slices.Clone(want[i]), "zz")) {
			t.Fatalf("row %d holders %v, want %v + zz", i, got, want[i])
		}
	}
}
