package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead: the digest in a base's name proves the bytes are the ones that
// were written, and a frame's checksum that its payload is; neither proves
// a checkpoint store wrote them. Whatever bytes sit under a matching name,
// Load must not panic, and must either refuse them with ErrCorrupt or hand
// back a value of the current format — whose columns, then, agreed. And
// whatever bytes a log holds, reading it must not panic and must apply
// only a prefix of whole, checksummed frames of rising sequence numbers:
// nothing past the first bad one.
func FuzzRead(f *testing.F) {
	for _, file := range []string{"format3_snap.gob", "format3_log.ckpt", "format2_snap.gob", "format2_delta.gob"} {
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
		path := filepath.Join(store.Dir(), snapPrefix+"000001-"+digest(data)+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := store.Load(path)
		if err == nil && snap.Format != Format || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load = %+v, %v; want ErrCorrupt or a format-%d snapshot", snap, err, Format)
		}

		last, applied := 0, 0
		valid := readFrames(data, 0, func(d *Delta, seq int) {
			if seq <= last {
				t.Fatalf("frame seq %d applied after %d", seq, last)
			}
			last = seq
			applied++
		})
		at, whole := 0, 0
		for int64(at) < valid {
			n := int(binary.LittleEndian.Uint32(data[at:]))
			payload := data[at+frameHeader : at+frameHeader+n]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[at+4:]) {
				t.Fatalf("the frame at %d was applied with a bad checksum", at)
			}
			at += frameHeader + n
			whole++
		}
		if int64(at) != valid || whole != applied {
			t.Fatalf("%d groups applied over a valid prefix of %d bytes, which frames %d whole ones ending at %d", applied, valid, whole, at)
		}
		if more := readFrames(data[valid:], last, func(*Delta, int) {}); more != 0 {
			t.Fatalf("the log stopped at %d, but the frame there reads as valid", valid)
		}
	})
}
