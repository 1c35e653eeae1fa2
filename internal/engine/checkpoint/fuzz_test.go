package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead: the digest in a file's name proves the bytes are the ones that
// were written, not that a checkpoint store wrote them. Whatever bytes sit
// under a matching name, read must not panic, and must either refuse them
// with ErrCorrupt or hand back a value of the current format.
func FuzzRead(f *testing.F) {
	for _, file := range []string{"format2_snap.gob", "format2_delta.gob"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		check := func(prefix string, v any, format *int) {
			path := filepath.Join(dir, prefix+"000001-"+digest(data)+".ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			switch err := read(path, prefix, v, format); {
			case err == nil && *format != Format:
				t.Fatalf("read accepted a %sfile of format %d", prefix, *format)
			case err != nil && !errors.Is(err, ErrCorrupt):
				t.Fatalf("read = %v, want ErrCorrupt", err)
			}
		}
		var snap Snapshot
		check(snapPrefix, &snap, &snap.Format)
		var d Delta
		check(deltaPrefix, &d, &d.Format)
	})
}
