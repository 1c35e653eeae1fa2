package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead: the digest in a file's name proves the bytes are the ones that
// were written, not that a checkpoint store wrote them. Whatever bytes sit
// under a matching name, Load and LoadDelta must not panic, and must
// either refuse them with ErrCorrupt or hand back a value of the current
// format — whose columns, then, agreed.
func FuzzRead(f *testing.F) {
	for _, file := range []string{"format3_snap.gob", "format3_delta.gob", "format2_snap.gob", "format2_delta.gob"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		place := func(prefix string) string {
			path := filepath.Join(store.Dir(), prefix+"000001-"+digest(data)+".ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		snap, err := store.Load(place(snapPrefix))
		if err == nil && snap.Format != Format || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load = %+v, %v; want ErrCorrupt or a format-%d snapshot", snap, err, Format)
		}
		d, err := store.LoadDelta(place(deltaPrefix))
		if err == nil && d.Format != Format || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LoadDelta = %+v, %v; want ErrCorrupt or a format-%d delta", d, err, Format)
		}
	})
}
