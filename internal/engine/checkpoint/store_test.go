package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
)

func sample(at time.Duration, completed ...int64) *Snapshot {
	s := &Snapshot{At: at}
	for _, id := range completed {
		s.Tasks = append(s.Tasks, doneRecord(id))
	}
	s.Catalog = append(s.Catalog, CatalogEntry{
		Key: deps.Version{Data: 1, Ver: 1}, Size: 42, Locations: []string{"n0"},
	})
	return s
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.Save(sample(time.Second, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 1 || len(filed(snap, engine.Done)) != 3 || snap.At != time.Second {
		t.Fatalf("round-trip mismatch: %+v", snap)
	}
	if snap.Tasks[2].OutputKeys[0] != (deps.Version{Data: 3, Ver: 1}) {
		t.Fatalf("outputs mismatch: %+v", snap.Tasks[2])
	}
}

func TestStoreSequencesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	store, _ := NewStore(dir)
	if _, err := store.Save(sample(0, 1)); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopened.Save(sample(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := reopened.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 2 {
		t.Fatalf("seq after reopen = %d, want 2", snap.Seq)
	}
}

// TestStoreFallbackOnCorruption: a truncated or bit-flipped latest
// snapshot must not poison restore — Latest skips to the previous valid
// one, and Load names the corruption.
func TestStoreFallbackOnCorruption(t *testing.T) {
	for _, damage := range []struct {
		name string
		do   func(path string) error
	}{
		{"truncated", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		}},
		{"bit-flipped", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0xff
			return os.WriteFile(path, data, 0o644)
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			store, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Save(sample(time.Second, 1, 2)); err != nil {
				t.Fatal(err)
			}
			latestPath, err := store.Save(sample(2*time.Second, 1, 2, 3))
			if err != nil {
				t.Fatal(err)
			}
			if err := damage.do(latestPath); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Load(latestPath); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load(damaged) = %v, want ErrCorrupt", err)
			}
			snap, err := store.Latest()
			if err != nil {
				t.Fatalf("Latest after damage: %v", err)
			}
			if done := filed(snap, engine.Done); snap.Seq != 1 || len(done) != 2 {
				t.Fatalf("fallback picked seq %d with %d completed, want previous valid (seq 1, 2 completed)",
					snap.Seq, len(done))
			}
		})
	}
}

func TestStoreLatestEmpty(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Latest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Latest on empty store = %v, want ErrNoSnapshot", err)
	}
}

func TestStoreRetention(t *testing.T) {
	store, err := NewStore(t.TempDir(), Keep(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := store.Save(sample(0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	paths := store.Snapshots()
	if len(paths) != 3 {
		t.Fatalf("retained %d snapshots, want 3", len(paths))
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 6 {
		t.Fatalf("latest seq = %d, want 6", snap.Seq)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", Off(), false},
		{"off", Off(), false},
		{"on-drain", OnDrain(), false},
		{"interval:30s", Interval(30 * time.Second), false},
		{"every:50", EveryN(50), false},
		{"every:0", Policy{}, true},
		{"interval:bogus", Policy{}, true},
		{"sometimes", Policy{}, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.err {
			if err == nil {
				t.Fatalf("ParsePolicy(%q) succeeded, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParsePolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if rt, err := ParsePolicy(got.String()); err != nil || rt != got {
			t.Fatalf("String round-trip of %q: %+v, %v", c.in, rt, err)
		}
	}
}

func TestValueCodec(t *testing.T) {
	for _, v := range []any{int(7), int64(-3), 1.5, "hello", []byte{1, 2}, []int{3, 4}, true} {
		b, ok := EncodeValue(v)
		if !ok {
			t.Fatalf("EncodeValue(%v) failed", v)
		}
		got, ok := DecodeValue(b)
		if !ok {
			t.Fatalf("DecodeValue of %v failed", v)
		}
		switch want := v.(type) {
		case []byte:
			g, _ := got.([]byte)
			if string(g) != string(want) {
				t.Fatalf("round-trip %v → %v", v, got)
			}
		case []int:
			g, _ := got.([]int)
			if len(g) != len(want) || g[0] != want[0] {
				t.Fatalf("round-trip %v → %v", v, got)
			}
		default:
			if got != v {
				t.Fatalf("round-trip %v → %v", v, got)
			}
		}
	}
	// Unencodable values degrade to "re-run", not to an error.
	if _, ok := EncodeValue(make(chan int)); ok {
		t.Fatal("EncodeValue(chan) succeeded, want false")
	}
	if _, ok := EncodeValue(struct{ X int }{1}); ok {
		t.Fatal("EncodeValue(unregistered struct) succeeded, want false")
	}
}

// TestNewStoreSweepsStaleTempFiles: a crash between the temp write and
// the rename leaves a *.ckpt.tmp behind. Nothing reads it — not Latest,
// not Snapshots, not the sequence scan — and the next NewStore removes it.
func TestNewStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(sample(time.Second, 1)); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "snap-000009-0123456789abcdef.ckpt.tmp")
	if err := os.WriteFile(stale, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := store.Latest(); err != nil || snap.Seq != 1 {
		t.Fatalf("Latest beside a temp file = %+v, %v, want seq 1", snap, err)
	}
	if paths := store.Snapshots(); len(paths) != 1 {
		t.Fatalf("Snapshots lists %v, want the one committed file", paths)
	}

	reopened, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file after NewStore: %v, want it gone", err)
	}
	path, err := reopened.Save(sample(2*time.Second, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := reopened.Load(path); err != nil || snap.Seq != 2 {
		t.Fatalf("save after reopen = %+v, %v, want seq 2 (the temp file's 9 ignored)", snap, err)
	}
}
