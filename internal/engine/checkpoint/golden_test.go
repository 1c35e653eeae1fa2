package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
)

// The golden files under testdata/ were written by Store.Save and
// Store.SaveDelta from exactly the two values below. format3_* pin
// Format 3: the same state must encode to the same bytes under the same
// content-addressed names. format1_* and format2_* are what the JSON codec
// of Format 1 and the row-by-row gob of Format 2 wrote for the same
// values: they must be refused whole.

// gob numbers a type process-wide when it first meets it and writes the
// numbers into the stream, so a file's bytes depend on what the process
// encoded before it. The pinned bytes are those of a process that meets
// the snapshot's wire types first and the delta's second; this one does,
// here, whatever order the tests run in. (Any order decodes: a stream
// describes itself.)
func init() {
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(&wireSnapshot{})
	_ = enc.Encode(&wireDelta{})
}

// The names the store gives the files (sequence + content digest).
const (
	goldenSnapName   = "snap-000001-b66dbc08d4e0dac2.ckpt"
	goldenDeltaName  = "delta-000002-86604f3be20976b2.ckpt"
	format2SnapName  = "snap-000001-5fe36447de0b7396.ckpt"
	format2DeltaName = "delta-000002-40d05bf957ee083d.ckpt"
	format1SnapName  = "snap-000001-5bb9449921c3c44e.ckpt"
	format1DeltaName = "delta-000002-dd362f9ebe663d23.ckpt"
)

func goldenSnapshot() *Snapshot {
	return &Snapshot{
		At: 90 * time.Second,
		Tasks: []engine.TaskSnap{
			{ID: 1, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{{Data: 1, Ver: 1}}},
			{ID: 2, State: engine.Done, Epoch: 2, Completed: true, OutputKeys: []deps.Version{{Data: 2, Ver: 1}, {Data: 1, Ver: 2}}},
			{ID: 3, State: engine.Running},
		},
		Catalog: []CatalogEntry{
			{Key: deps.Version{Data: 1, Ver: 0}, Size: 1 << 20, Locations: []string{"n0"}},
			{Key: deps.Version{Data: 1, Ver: 1}, Size: 2048, Locations: []string{"n0", "n1"}},
			{Key: deps.Version{Data: 2, Ver: 1}, Locations: []string{"n1"}, Value: []byte("gob"), HasValue: true},
		},
		Stats: engine.Stats{Launched: 3, Completed: 2, Transfers: 1, BytesMoved: 2048},
	}
}

func goldenDelta() *Delta {
	return &Delta{
		At: 2 * time.Minute,
		Tasks: []engine.TaskSnap{
			{ID: 3, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{{Data: 3, Ver: 1}}},
			{ID: 4, State: engine.Pending},
		},
		Added: []int64{4},
		Catalog: []CatalogEntry{
			{Key: deps.Version{Data: 1, Ver: 0}}, // vanished
			{Key: deps.Version{Data: 3, Ver: 1}, Size: 512, Locations: []string{"n1"}},
		},
		Stats: engine.Stats{Launched: 3, Completed: 3, Transfers: 1, BytesMoved: 2048},
	}
}

// placeGolden writes testdata/<file> into the store's directory under
// name and returns the path.
func placeGolden(t *testing.T, s *Store, file, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFormat3GoldenFiles(t *testing.T) {
	wantSnap, err := os.ReadFile("testdata/format3_snap.gob")
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, err := os.ReadFile("testdata/format3_delta.gob")
	if err != nil {
		t.Fatal(err)
	}

	// Head writes the pinned bytes for the same state.
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
			t.Errorf("%s moved off format 3:\n got %q\nwant %q", filepath.Base(path), got, want)
		}
	}
	if got := filepath.Base(snapPath); got != goldenSnapName {
		t.Errorf("snapshot named %s, want %s", got, goldenSnapName)
	}
	if got := filepath.Base(deltaPath); got != goldenDeltaName {
		t.Errorf("delta named %s, want %s", got, goldenDeltaName)
	}

	// A directory holding the pinned files loads at head.
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := old.Load(placeGolden(t, old, "format3_snap.gob", goldenSnapName))
	if err != nil {
		t.Fatal(err)
	}
	wantS := goldenSnapshot()
	wantS.Format, wantS.Seq = Format, 1
	if !reflect.DeepEqual(snap, wantS) {
		t.Errorf("Load:\n got %+v\nwant %+v", snap, wantS)
	}
	d, err := old.LoadDelta(placeGolden(t, old, "format3_delta.gob", goldenDeltaName))
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
	if latest.Seq != 2 || len(filed(latest, engine.Done)) != 3 || len(filed(latest, engine.Pending)) != 1 || len(latest.Catalog) != 3 {
		t.Fatalf("Latest: %+v", latest)
	}
	if got := latest.Tasks[2].OutputKeys[0]; got != (deps.Version{Data: 3, Ver: 1}) {
		t.Errorf("Latest: task 3 output %+v", got)
	}
	if got := latest.Catalog[2].Key; got != (deps.Version{Data: 3, Ver: 1}) {
		t.Errorf("Latest: last catalog key %+v", got)
	}
}

// A directory written by the JSON codec of Format 1 is refused file by
// file — the digests in the names still match, so it is the decoder and
// the format check that say no — and never half-read into a snapshot.
func TestFormat1FilesAreRefused(t *testing.T) {
	refusedWhole(t, "format1_snap.json", format1SnapName, "format1_delta.json", format1DeltaName)
}

// So is one written by Format 2's row-by-row gob: the wire structs share
// field names with the old ones, but not their types.
func TestFormat2FilesAreRefused(t *testing.T) {
	refusedWhole(t, "format2_snap.gob", format2SnapName, "format2_delta.gob", format2DeltaName)
}

func refusedWhole(t *testing.T, snapFile, snapName, deltaFile, deltaName string) {
	t.Helper()
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Load(placeGolden(t, old, snapFile, snapName)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Load of %s = %v, want ErrCorrupt", snapFile, err)
	}
	if _, err := old.LoadDelta(placeGolden(t, old, deltaFile, deltaName)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadDelta of %s = %v, want ErrCorrupt", deltaFile, err)
	}
	if snap, err := old.Latest(); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Latest over %s and %s = %+v, %v, want ErrNoSnapshot", snapFile, deltaFile, snap, err)
	}
}
