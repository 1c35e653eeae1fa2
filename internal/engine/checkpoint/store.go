// The on-disk snapshot store: versioned, content-addressed, atomic.
// Each snapshot is one file named snap-<seq>-<digest>.ckpt holding the
// encoding/gob form of its Format 3 wire struct (wire.go: the snapshot in
// columns, decoded by carving every row out of one array per column),
// where the digest is the truncated SHA-256 of the file's contents — a
// self-certifying name the loader re-verifies before decoding, so a torn
// write, a truncation or any bit-rot is detected and the loader falls back
// to the previous valid chain instead of restoring garbage. The digest
// vouches for the bytes, not their sense: a file whose columns disagree is
// refused as corrupt too. Writes go through a temp file and a rename: a
// crash mid-save corrupts no snapshot.
package checkpoint

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Errors reported by the store.
var (
	// ErrNoSnapshot is returned by Latest when the directory holds no
	// valid snapshot.
	ErrNoSnapshot = errors.New("checkpoint: no valid snapshot found")
	// ErrCorrupt is returned by Load for a snapshot whose contents do not
	// match the digest in its name, cannot be parsed, carry an unknown
	// format version, or hold columns that disagree.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
)

// File-name prefixes of the two kinds of checkpoint file.
const (
	snapPrefix  = "snap-"
	deltaPrefix = "delta-"
)

// Store reads and writes snapshots in one directory. It is safe for
// concurrent use.
type Store struct {
	dir  string
	keep int

	mu  sync.Mutex
	seq int
	buf bytes.Buffer // encode scratch, reused across saves
}

// StoreOption tunes NewStore.
type StoreOption func(*Store)

// Keep sets how many snapshots are retained on disk (older ones are
// pruned after each save; default 5, minimum 2 so a corrupted latest
// always has a fallback).
func Keep(n int) StoreOption {
	return func(s *Store) { s.keep = n }
}

// NewStore opens (creating if needed) a snapshot directory. Existing
// snapshots are scanned so sequence numbers continue monotonically
// across process restarts, and the temp file of a save that a crash cut
// short before its rename is removed: a directory has one writer at a
// time, so a temp file found at open belongs to nobody.
func NewStore(dir string, opts ...StoreOption) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	entries, _ := os.ReadDir(dir) // unreadable: nothing to sweep, and list finds nothing either
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt.tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	s := &Store{dir: dir, keep: 5}
	for _, o := range opts {
		o(s)
	}
	if s.keep < 2 {
		s.keep = 2
	}
	if files := s.list(); len(files) > 0 {
		s.seq = files[len(files)-1].seq // list sorts by sequence
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// snapFile is one parsed directory entry: a full snapshot ("snap-"
// prefix) or a delta ("delta-" prefix).
type snapFile struct {
	name  string
	seq   int
	delta bool
}

// list returns the checkpoint files in the directory — full snapshots
// and deltas — sorted by sequence number ascending. Unparseable names
// are ignored.
func (s *Store) list() []snapFile {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []snapFile
	for _, e := range entries {
		name := e.Name()
		delta := strings.HasPrefix(name, deltaPrefix)
		if !strings.HasSuffix(name, ".ckpt") || !delta && !strings.HasPrefix(name, snapPrefix) {
			continue
		}
		// <prefix><seq>-<digest>.ckpt; neither prefix holds a second dash.
		parts := strings.Split(strings.TrimSuffix(name, ".ckpt"), "-")
		if len(parts) != 3 {
			continue
		}
		seq, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		out = append(out, snapFile{name: name, seq: seq, delta: delta})
	}
	slices.SortFunc(out, func(a, b snapFile) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// Save assigns the snapshot the next sequence number and persists it
// atomically, returning the file path. Chains beyond the retention count
// are pruned, oldest first.
func (s *Store) Save(snap *Snapshot) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	snap.Seq = s.seq
	snap.Format = Format
	return s.writeLocked(snapPrefix, snap.wire())
}

// SaveDelta persists one delta, its task records sorted by ID, chained to
// the store's newest file (base or delta) through ParentSeq, using the
// same atomic temp-and-rename and content-addressed naming as Save. The
// caller guarantees a base was saved to this store first — a delta with
// no base beneath it can never be reconstructed.
func (s *Store) SaveDelta(d *Delta) (string, error) {
	slices.SortFunc(d.Tasks, func(a, b engine.TaskSnap) int { return cmp.Compare(a.ID, b.ID) })
	s.mu.Lock()
	defer s.mu.Unlock()
	d.ParentSeq = s.seq
	s.seq++
	d.Seq = s.seq
	d.Format = Format
	return s.writeLocked(deltaPrefix, d.wire())
}

// writeLocked is the one commit path: encode v (the wire form of a
// snapshot or delta already stamped with s.seq), name the file after its
// own digest, write a temp file and rename it into place, then — after a
// base, the only save that can push the base count past keep — prune.
// Caller holds s.mu.
func (s *Store) writeLocked(prefix string, v any) (string, error) {
	s.buf.Reset()
	stem := fileStem(prefix, s.seq)
	if err := gob.NewEncoder(&s.buf).Encode(v); err != nil {
		return "", fmt.Errorf("checkpoint: encode %s: %w", stem, err)
	}
	data := s.buf.Bytes()
	path := filepath.Join(s.dir, stem+"-"+digest(data)+".ckpt")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: commit: %w", err)
	}
	if prefix == snapPrefix {
		s.pruneLocked()
	}
	return path, nil
}

// fileStem is a checkpoint file's name up to its digest: the kind's
// prefix and the sequence number.
func fileStem(prefix string, seq int) string {
	return fmt.Sprintf("%s%06d", prefix, seq)
}

// lastSeq returns the newest sequence number the store has assigned.
func (s *Store) lastSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// digest is the content address in a file name: the first 8 bytes (16 hex
// characters) of the SHA-256.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// pruneLocked bounds retention. The pruning unit is a chain — a base
// snapshot plus the deltas hanging off it — because deleting a base out
// from under its deltas would break reconstruction: everything strictly
// older than the keep-th newest base is removed, deltas older than the
// oldest base with it. Deltas never count against the retention budget.
func (s *Store) pruneLocked() {
	files := s.list()
	var baseSeqs []int
	for _, f := range files {
		if !f.delta {
			baseSeqs = append(baseSeqs, f.seq)
		}
	}
	if len(baseSeqs) <= s.keep {
		return
	}
	floor := baseSeqs[len(baseSeqs)-s.keep]
	for _, f := range files {
		if f.seq < floor {
			_ = os.Remove(filepath.Join(s.dir, f.name))
		}
	}
}

// Load reads and verifies one snapshot file: the contents must hash to
// the digest embedded in the name, decode as gob, carry the current
// format version and columns that agree.
func (s *Store) Load(path string) (*Snapshot, error) {
	var (
		w    wireSnapshot
		snap *Snapshot
	)
	err := read(path, snapPrefix, &w, &w.Format, func() (err error) {
		snap, err = w.snapshot()
		return err
	})
	return snap, err
}

// LoadDelta reads and verifies one delta file, as Load does a snapshot.
func (s *Store) LoadDelta(path string) (*Delta, error) {
	var (
		w wireDelta
		d *Delta
	)
	err := read(path, deltaPrefix, &w, &w.Format, func() (err error) {
		d, err = w.delta()
		return err
	})
	return d, err
}

// read is the one verify path: the file's bytes must hash to the digest
// in its name (checked before the decoder sees them), decode into the
// wire struct w, leave the current version in *format, w's own Format
// field — any other format is refused, Format 1's JSON and Format 2's
// row-by-row gob included — and pass carve, which checks w's columns
// agree and builds the value. Failures wrap ErrCorrupt.
func read(path, prefix string, w any, format *int, carve func() error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	name := filepath.Base(path)
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, "-"+digest(data)+".ckpt") {
		return fmt.Errorf("%w: %s: not a %sfile named after its contents", ErrCorrupt, name, prefix)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(w); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	if *format != Format {
		return fmt.Errorf("%w: %s: format %d, want %d", ErrCorrupt, name, *format, Format)
	}
	if err := carve(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return nil
}

// Latest returns the newest reconstructible state and reads only the
// chain that holds it: the newest base snapshot seeds the merge and the
// deltas after it are applied in sequence order while each one's
// ParentSeq names the last-applied file. Corruption degrades, never fails
// outright: a corrupt or missing delta freezes the chain at the longest
// valid prefix (a delta's parent is the save just before it, so no later
// delta can chain past the gap); a corrupt base strands its own deltas
// and sends Latest one chain further back — older chains are read only
// then. Plain full snapshots are the same walk with empty chains: the
// newest valid one wins. ErrNoSnapshot when nothing valid remains.
func (s *Store) Latest() (*Snapshot, error) {
	files := s.list()
	end := len(files) // one past the last delta of the chain being tried
	for base := end - 1; base >= 0; base-- {
		if files[base].delta {
			continue
		}
		snap, err := s.Load(filepath.Join(s.dir, files[base].name))
		if err != nil {
			end = base
			continue
		}
		m := newMerger(snap)
		for _, f := range files[base+1 : end] {
			d, err := s.LoadDelta(filepath.Join(s.dir, f.name))
			if err != nil || d.ParentSeq != m.seq {
				break
			}
			m.apply(d)
		}
		return m.snapshot(), nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, s.dir)
}

// Snapshots returns the paths of all snapshot files, sequence-ascending
// (validity not checked; see Load).
func (s *Store) Snapshots() []string {
	var out []string
	for _, f := range s.list() {
		out = append(out, filepath.Join(s.dir, f.name))
	}
	return out
}
