package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
)

// The golden files under testdata/ were written by Store.Save and
// Store.SaveDelta at the commit BEFORE CatalogKey became an alias of
// deps.Version, from exactly the two values below. They pin Format 1:
// the same state must marshal to the same bytes, and a directory
// written back then must still load.

// The names the parent gave the two files (sequence + content digest).
const (
	goldenSnapName  = "snap-000001-5bb9449921c3c44e.ckpt"
	goldenDeltaName = "delta-000002-dd362f9ebe663d23.ckpt"
)

func goldenSnapshot() *Snapshot {
	return &Snapshot{
		At: 90 * time.Second,
		Completed: []TaskRecord{
			{ID: 1, Epoch: 1, Outputs: []CatalogKey{{Data: 1, Ver: 1}}},
			{ID: 2, Epoch: 2, Outputs: []CatalogKey{{Data: 2, Ver: 1}, {Data: 1, Ver: 2}}},
		},
		Running: []int64{3},
		Catalog: []CatalogEntry{
			{Key: CatalogKey{Data: 1, Ver: 0}, Size: 1 << 20, Locations: []string{"n0"}},
			{Key: CatalogKey{Data: 1, Ver: 1}, Size: 2048, Locations: []string{"n0", "n1"}},
			{Key: CatalogKey{Data: 2, Ver: 1}, Locations: []string{"n1"}, Value: []byte("gob"), HasValue: true},
		},
		Order: []int64{1, 2, 3},
		Stats: engine.Stats{Launched: 3, Completed: 2, Transfers: 1, BytesMoved: 2048},
	}
}

func goldenDelta() *Delta {
	return &Delta{
		At: 2 * time.Minute,
		Tasks: []DeltaTask{
			{ID: 3, State: engine.Done, Epoch: 1, Completed: true, Outputs: []CatalogKey{{Data: 3, Ver: 1}}},
			{ID: 4, State: engine.Pending},
		},
		Added: []int64{4},
		Catalog: []CatalogEntry{
			{Key: CatalogKey{Data: 1, Ver: 0}}, // vanished
			{Key: CatalogKey{Data: 3, Ver: 1}, Size: 512, Locations: []string{"n1"}},
		},
		Stats: engine.Stats{Launched: 3, Completed: 3, Transfers: 1, BytesMoved: 2048},
	}
}

func TestFormat1GoldenFiles(t *testing.T) {
	wantSnap, err := os.ReadFile("testdata/format1_snap.json")
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, err := os.ReadFile("testdata/format1_delta.json")
	if err != nil {
		t.Fatal(err)
	}

	// Head writes the parent's bytes for the same state.
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snapPath, err := store.Save(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	deltaPath, err := store.SaveDelta(goldenDelta())
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{snapPath: wantSnap, deltaPath: wantDelta} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s moved off format 1:\n got %s\nwant %s", filepath.Base(path), got, want)
		}
	}
	if got := filepath.Base(snapPath); got != goldenSnapName {
		t.Errorf("snapshot named %s, want %s", got, goldenSnapName)
	}
	if got := filepath.Base(deltaPath); got != goldenDeltaName {
		t.Errorf("delta named %s, want %s", got, goldenDeltaName)
	}

	// A directory holding the parent's files loads at head.
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	place := func(name string, data []byte) string {
		path := filepath.Join(old.Dir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	snap, err := old.Load(place(goldenSnapName, wantSnap))
	if err != nil {
		t.Fatal(err)
	}
	wantS := goldenSnapshot()
	wantS.Format, wantS.Seq = Format, 1
	if !reflect.DeepEqual(snap, wantS) {
		t.Errorf("Load:\n got %+v\nwant %+v", snap, wantS)
	}
	d, err := old.LoadDelta(place(goldenDeltaName, wantDelta))
	if err != nil {
		t.Fatal(err)
	}
	wantD := goldenDelta()
	wantD.Format, wantD.Seq, wantD.ParentSeq = Format, 2, 1
	if !reflect.DeepEqual(d, wantD) {
		t.Errorf("LoadDelta:\n got %+v\nwant %+v", d, wantD)
	}
	latest, err := old.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 2 || len(latest.Completed) != 3 || len(latest.Pending) != 1 || len(latest.Catalog) != 3 {
		t.Fatalf("Latest: %+v", latest)
	}
	if got := latest.Completed[2].Outputs[0]; got != (CatalogKey{Data: 3, Ver: 1}) {
		t.Errorf("Latest: task 3 output %+v", got)
	}
	if got := latest.Catalog[2].Key; got != (CatalogKey{Data: 3, Ver: 1}) {
		t.Errorf("Latest: last catalog key %+v", got)
	}
}
