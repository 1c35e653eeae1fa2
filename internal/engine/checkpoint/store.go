// The on-disk snapshot store: versioned, content-addressed, atomic.
// Each snapshot is one JSON file named snap-<seq>-<digest>.ckpt, where
// the digest is the truncated SHA-256 of the file's contents — the name
// is a self-certifying claim the loader re-verifies, so a torn write, a
// truncation or any bit-rot is detected and the loader falls back to the
// previous valid snapshot instead of restoring garbage. Writes go
// through a temp file and a rename, so a crash mid-save never corrupts
// an existing snapshot.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Errors reported by the store.
var (
	// ErrNoSnapshot is returned by Latest when the directory holds no
	// valid snapshot.
	ErrNoSnapshot = errors.New("checkpoint: no valid snapshot found")
	// ErrCorrupt is returned by Load for a snapshot whose contents do not
	// match the digest in its name, cannot be parsed, or carry an
	// unknown format version.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
)

// digestLen is the number of hex characters of the SHA-256 kept in the
// file name.
const digestLen = 16

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
// across process restarts.
func NewStore(dir string, opts ...StoreOption) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Store{dir: dir, keep: 5}
	for _, o := range opts {
		o(s)
	}
	if s.keep < 2 {
		s.keep = 2
	}
	for _, f := range s.list() {
		if f.seq > s.seq {
			s.seq = f.seq
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// snapFile is one parsed directory entry: a full snapshot ("snap-"
// prefix) or a delta ("delta-" prefix).
type snapFile struct {
	name   string
	seq    int
	digest string
	delta  bool
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
		if !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		var rest string
		var delta bool
		switch {
		case strings.HasPrefix(name, snapPrefix):
			rest = strings.TrimPrefix(name, snapPrefix)
		case strings.HasPrefix(name, deltaPrefix):
			rest, delta = strings.TrimPrefix(name, deltaPrefix), true
		default:
			continue
		}
		parts := strings.Split(strings.TrimSuffix(rest, ".ckpt"), "-")
		if len(parts) != 2 {
			continue
		}
		seq, err := strconv.Atoi(parts[0])
		if err != nil {
			continue
		}
		out = append(out, snapFile{name: name, seq: seq, digest: parts[1], delta: delta})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Save assigns the snapshot the next sequence number and persists it
// atomically, returning the file path. Snapshots beyond the retention
// count are pruned, oldest first.
func (s *Store) Save(snap *Snapshot) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	snap.Seq = s.seq
	snap.Format = Format
	return s.writeLocked(snapPrefix, snap)
}

// SaveDelta persists one delta, chained to the store's newest file (base
// or delta) through ParentSeq, using the same atomic temp-and-rename and
// content-addressed naming as Save. The caller guarantees a base was
// saved to this store first — a delta with no base beneath it can never
// be reconstructed.
func (s *Store) SaveDelta(d *Delta) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d.ParentSeq = s.seq
	s.seq++
	d.Seq = s.seq
	d.Format = Format
	return s.writeLocked(deltaPrefix, d)
}

// writeLocked is the one commit path: encode v (already stamped with
// s.seq), name the file after its own digest, write a temp file and
// rename it into place, then prune. Caller holds s.mu.
func (s *Store) writeLocked(prefix string, v any) (string, error) {
	what := ""
	if prefix == deltaPrefix {
		what = " delta"
	}
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: encode%s: %w", what, err)
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%s%06d-%s.ckpt", prefix, s.seq, digest(data)))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("checkpoint: write%s: %w", what, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: commit%s: %w", what, err)
	}
	s.pruneLocked()
	return path, nil
}

// digest is the content address in a file name: the truncated SHA-256.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:digestLen]
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
// the digest embedded in the name, parse as JSON, and carry the current
// format version.
func (s *Store) Load(path string) (*Snapshot, error) {
	var snap Snapshot
	if err := read(path, snapPrefix, &snap, &snap.Format); err != nil {
		return nil, err
	}
	return &snap, nil
}

// LoadDelta reads and verifies one delta file: contents must hash to the
// digest in the name, parse, and carry the current format version.
func (s *Store) LoadDelta(path string) (*Delta, error) {
	var d Delta
	if err := read(path, deltaPrefix, &d, &d.Format); err != nil {
		return nil, err
	}
	return &d, nil
}

// read is the one verify path: the file's bytes must hash to the digest
// in its name, decode into v, and leave the current version in *format
// (v's own Format field). Every failure wraps ErrCorrupt.
func read(path, prefix string, v any, format *int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	name := filepath.Base(path)
	parts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".ckpt"), "-")
	if len(parts) != 2 {
		return fmt.Errorf("%w: unrecognised name %q", ErrCorrupt, name)
	}
	if digest(data) != parts[1] {
		return fmt.Errorf("%w: %s: digest mismatch", ErrCorrupt, name)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	if *format != Format {
		return fmt.Errorf("%w: %s: format %d, want %d", ErrCorrupt, name, *format, Format)
	}
	return nil
}

// Latest returns the newest reconstructible state: a forward pass over
// the directory in sequence order, where every valid base snapshot
// resets the reconstruction and every valid delta whose ParentSeq
// matches the last-applied file extends it. Corruption degrades, never
// fails outright: a corrupt delta freezes the chain at the longest valid
// prefix (a later delta's ParentSeq cannot match, so the tail is
// unreachable by construction); a corrupt base strands its own deltas
// and falls back to the previous chain's reconstruction. A directory of
// plain full snapshots behaves exactly as before deltas existed: each
// valid snapshot replaces the candidate, so the newest valid one wins.
// It returns ErrNoSnapshot when nothing valid remains.
func (s *Store) Latest() (*Snapshot, error) {
	files := s.list()
	var m *merger
	for _, f := range files {
		path := filepath.Join(s.dir, f.name)
		if f.delta {
			d, err := s.LoadDelta(path)
			if err != nil || m == nil || d.ParentSeq != m.seq {
				continue
			}
			m.apply(d)
			continue
		}
		snap, err := s.Load(path)
		if err != nil {
			continue
		}
		m = newMerger(snap)
	}
	if m == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, s.dir)
	}
	return m.snapshot(), nil
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
