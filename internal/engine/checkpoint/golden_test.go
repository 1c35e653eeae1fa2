package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
)

// The golden files under testdata/ were written from the two values
// below. format4_snap.gob and format4_log.ckpt pin Format 4: the same base
// must encode to the same bytes under the same content-addressed name,
// and the same group to the same frame of its log. format3_snap.gob and
// format3_log.ckpt are what Format 3 wrote for the same values with the
// engine's activity counters beside them, and format3_delta.gob is the
// delta file a build before the log wrote for the group, chained to the
// base: it is not read. format1_* and format2_* are what the JSON codec of
// Format 1 and the row-by-row gob of Format 2 wrote. Every older base
// must be refused whole.

// gob numbers a type process-wide when it first meets it and writes the
// numbers into the stream, so a file's bytes depend on what the process
// encoded before it. The pinned bytes are those of a process that meets
// the snapshot's wire types first and the frame's second; this one does,
// here, whatever order the tests run in. (Any order decodes: a stream
// describes itself.)
func init() {
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(&wireSnapshot{})
	_ = enc.Encode(&wireDelta{})
}

// The names the store gives the files (sequence + content digest).
const (
	goldenSnapName   = "snap-000001-82274f91302e932d.ckpt"
	goldenLogName    = "log-000001.ckpt"
	format3SnapName  = "snap-000001-b66dbc08d4e0dac2.ckpt"
	format3DeltaName = "delta-000002-86604f3be20976b2.ckpt"
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
			{Key: deps.Version{Data: 2, Ver: 1}, Locations: []string{"n1"}, Value: []byte("gob")},
		},
	}
}

// goldenDelta is the group as the writer appends it: coalesced, one
// record per task and per key.
func goldenDelta() *Delta {
	return &Delta{
		At: 2 * time.Minute,
		Tasks: []engine.TaskSnap{
			{ID: 3, State: engine.Done, Epoch: 1, Completed: true, OutputKeys: []deps.Version{{Data: 3, Ver: 1}}},
			{ID: 4, State: engine.Pending},
		},
		Catalog: []CatalogEntry{
			{Key: deps.Version{Data: 1, Ver: 0}}, // vanished
			{Key: deps.Version{Data: 3, Ver: 1}, Size: 512, Locations: []string{"n1"}},
		},
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

func TestFormat4GoldenFiles(t *testing.T) {
	wantSnap, err := os.ReadFile("testdata/format4_snap.gob")
	if err != nil {
		t.Fatal(err)
	}
	wantLog, err := os.ReadFile("testdata/format4_log.ckpt")
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
	logPath, err := store.SaveDelta(goldenDelta())
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{snapPath: wantSnap, logPath: wantLog} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s moved off format 4:\n got %q\nwant %q", filepath.Base(path), got, want)
		}
	}
	if got := filepath.Base(snapPath); got != goldenSnapName {
		t.Errorf("snapshot named %s, want %s", got, goldenSnapName)
	}
	if got := filepath.Base(logPath); got != goldenLogName {
		t.Errorf("log named %s, want %s", got, goldenLogName)
	}

	// A directory holding the pinned files loads at head.
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := old.Load(placeGolden(t, old, "format4_snap.gob", goldenSnapName))
	if err != nil {
		t.Fatal(err)
	}
	wantS := goldenSnapshot()
	wantS.Seq = 1
	if !reflect.DeepEqual(snap, wantS) {
		t.Errorf("Load:\n got %+v\nwant %+v", snap, wantS)
	}
	var groups []*Delta
	if valid := readFrames(wantLog, 1, func(d *Delta, seq int) {
		if seq != 2 {
			t.Errorf("frame seq %d, want 2", seq)
		}
		groups = append(groups, d)
	}); valid != int64(len(wantLog)) || len(groups) != 1 {
		t.Fatalf("log: %d groups in a valid prefix of %d bytes, want 1 in %d", len(groups), valid, len(wantLog))
	}
	if !reflect.DeepEqual(groups[0], goldenDelta()) {
		t.Errorf("frame:\n got %+v\nwant %+v", groups[0], goldenDelta())
	}
	placeGolden(t, old, "format4_log.ckpt", goldenLogName)
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

// A delta file a build before the log left beside its base is not read:
// Latest is the base alone, and the next group goes to the base's log.
// The file stays until a newer base is saved, which removes it.
func TestOlderDeltaFilesAreNotRead(t *testing.T) {
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	placeGolden(t, old, "format4_snap.gob", goldenSnapName)
	placeGolden(t, old, "format3_delta.gob", format3DeltaName)
	store, err := NewStore(old.Dir())
	if err != nil {
		t.Fatal(err)
	}
	latest, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSnapshot()
	want.Seq = 1
	if !reflect.DeepEqual(latest, want) {
		t.Fatalf("Latest over a base and an older delta file:\n got %+v\nwant the base %+v", latest, want)
	}
	if path, err := store.SaveDelta(goldenDelta()); err != nil || filepath.Base(path) != goldenLogName {
		t.Fatalf("SaveDelta = %s, %v; want the base's log", path, err)
	}
	if latest, err := store.Latest(); err != nil || latest.Seq != 2 {
		t.Fatalf("Latest after a group = %+v, %v; want seq 2", latest, err)
	}
	delta := filepath.Join(store.Dir(), format3DeltaName)
	if _, err := os.Stat(delta); err != nil {
		t.Fatalf("the delta file went before a newer base was saved: %v", err)
	}
	if _, err := store.Save(goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(delta); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after a newer base, the older build's delta file is still there (stat: %v)", err)
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

// And one written by Format 3, whose columns decode — gob drops the
// counters Format 4 no longer has — but whose base says Format 3: the
// format check refuses it, and its log, whose frames would decode too, is
// never read without a base beneath it.
func TestFormat3FilesAreRefused(t *testing.T) {
	refusedWhole(t, "format3_snap.gob", format3SnapName, "format3_log.ckpt", goldenLogName)
}

// refusedWhole places an old base and the file its build wrote beside it,
// a delta file or a log: the base is refused, and the other file cannot
// make a snapshot on its own.
func refusedWhole(t *testing.T, snapFile, snapName, deltaFile, deltaName string) {
	t.Helper()
	old, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Load(placeGolden(t, old, snapFile, snapName)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Load of %s = %v, want ErrCorrupt", snapFile, err)
	}
	placeGolden(t, old, deltaFile, deltaName)
	if snap, err := old.Latest(); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("Latest over %s and %s = %+v, %v, want ErrNoSnapshot", snapFile, deltaFile, snap, err)
	}
}
