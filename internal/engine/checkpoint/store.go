// The on-disk store: content-addressed, atomic bases, each with an
// append-only log beside it. A base is snap-<seq>-<digest>.ckpt, the gob
// form of its Format 3 wire struct (wire.go), named after the truncated
// SHA-256 of its bytes, which the loader re-verifies before decoding; a
// base whose bytes or columns are wrong is refused as corrupt and Latest
// falls back to the previous one. A base is written to a temp file,
// synced and renamed into place, so a crash mid-save corrupts none.
//
// The groups saved after a base are the frames of log-<seq>.ckpt: each is
// its payload's length and CRC32 (4 bytes each, little endian) and the
// payload, one coalesced group's wireDelta, and each append ends with one
// Sync. A log's valid prefix ends at the first frame that is torn, fails
// its checksum, does not decode or carve, or does not carry the sequence
// number after the one before (a save that failed took that number);
// nothing past it is applied, and the next append overwrites it. The
// delta-<seq>-<digest>.ckpt files of older builds are not read, and each
// base save removes those older than itself.
package checkpoint

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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
	// match the digest in its name, cannot be parsed, carry an unknown
	// format version, or hold columns that disagree.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
)

// File-name prefixes: a base, the log beside it, and an older build's
// delta file, which is never read.
const (
	snapPrefix  = "snap-"
	logPrefix   = "log-"
	deltaPrefix = "delta-"
)

// frameHeader is the length and the CRC32 before each frame's payload.
const frameHeader = 8

// Store reads and writes snapshots in one directory. It is safe for
// concurrent use.
type Store struct {
	dir  string
	keep int

	mu      sync.Mutex
	seq     int
	base    int          // the newest base's sequence number: SaveDelta appends to its log
	logSize int64        // the length of that log's valid prefix, where the next frame goes
	buf     bytes.Buffer // encode scratch, reused across saves
	co      coalescer    // coalescing scratch
}

// StoreOption tunes NewStore.
type StoreOption func(*Store)

// Keep sets how many bases are retained on disk, each with its log (older
// ones are pruned after each base save; default 5, minimum 2 so a
// corrupted latest always has a fallback).
func Keep(n int) StoreOption {
	return func(s *Store) { s.keep = n }
}

// NewStore opens (creating if needed) a snapshot directory. It reads the
// newest base's log so sequence numbers continue across process restarts
// and the next frame lands after the last valid one, and removes the temp
// file of a base save a crash cut short: a directory has one writer at a
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
	if bases := s.list(snapPrefix); len(bases) > 0 {
		s.base = bases[len(bases)-1].seq // list sorts by sequence
		s.seq = s.base
		data, _ := os.ReadFile(s.logPath(s.base)) // none: an empty log
		s.logSize = readFrames(data, s.base, func(_ *Delta, seq int) { s.seq = seq })
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// baseFile is one base in the directory: its name and sequence number.
type baseFile struct {
	name string
	seq  int
}

// list returns the files in the directory named <prefix><seq>-<digest>.ckpt
// — the bases, or the delta files of older builds — sorted by sequence
// number ascending. Unparseable names are ignored, and so are logs.
func (s *Store) list(prefix string) []baseFile {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []baseFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		// <prefix><seq>-<digest>.ckpt
		parts := strings.Split(strings.TrimSuffix(name, ".ckpt"), "-")
		if len(parts) != 3 {
			continue
		}
		seq, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		out = append(out, baseFile{name: name, seq: seq})
	}
	slices.SortFunc(out, func(a, b baseFile) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// logPath is the path of the log beside base seq.
func (s *Store) logPath(seq int) string {
	return filepath.Join(s.dir, fileStem(logPrefix, seq)+".ckpt")
}

// Save assigns the snapshot the next sequence number and persists it
// atomically as a base, returning the file path; the groups saved after it
// go to its log. Bases beyond the retention count are pruned, oldest
// first, each with its log.
func (s *Store) Save(snap *Snapshot) (string, error) {
	path, _, err := s.save(snap)
	return path, err
}

// written tallies what one save put on disk: records, bytes and syncs.
type written struct{ records, bytes, syncs int }

func (s *Store) save(snap *Snapshot) (string, written, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := written{records: len(snap.Tasks) + len(snap.Catalog)}
	s.seq++
	snap.Seq = s.seq
	snap.Format = Format
	s.buf.Reset()
	stem := fileStem(snapPrefix, s.seq)
	if err := gob.NewEncoder(&s.buf).Encode(snap.wire()); err != nil {
		return "", w, fmt.Errorf("checkpoint: encode %s: %w", stem, err)
	}
	data := s.buf.Bytes()
	path := filepath.Join(s.dir, stem+"-"+digest(data)+".ckpt")
	tmp := path + ".tmp"
	if err := writeSynced(tmp, data, 0, &w); err != nil {
		_ = os.Remove(tmp)
		return "", w, fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return "", w, fmt.Errorf("checkpoint: commit: %w", err)
	}
	s.base, s.logSize = s.seq, 0
	s.pruneLocked()
	return path, w, nil
}

// writeSynced writes data at offset at of the file at path, creating it
// if need be, cuts whatever lay past it, and syncs: the one commit of a
// base's temp file (at 0) and of a log frame (at the end of the log's
// valid prefix). It tallies the bytes and the sync into w.
func writeSynced(path string, data []byte, at int64, w *written) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, at)
	if err == nil {
		err = f.Truncate(at + int64(len(data)))
	}
	if err == nil {
		w.bytes += len(data)
		w.syncs++
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// SaveDelta coalesces d (one record per key: see Delta) and appends it as
// one frame, with the next sequence number, to the log of the store's
// newest base, returning the log's path. The frame is committed by one
// Sync; a failed append leaves the log's valid prefix as it was, and the
// next one overwrites what it left. It fails when the store holds no base:
// a group with no base beneath it can never be reconstructed.
func (s *Store) SaveDelta(d *Delta) (string, error) {
	path, _, err := s.saveDelta(d)
	return path, err
}

func (s *Store) saveDelta(d *Delta) (string, written, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.co.coalesce(d)
	w := written{records: len(d.Tasks) + len(d.Catalog)}
	if s.base == 0 {
		return "", w, errors.New("checkpoint: no base to log against")
	}
	s.seq++
	s.buf.Reset()
	var header [frameHeader]byte // filled in once the payload is encoded
	s.buf.Write(header[:])
	if err := gob.NewEncoder(&s.buf).Encode(d.wire(s.seq)); err != nil {
		return "", w, fmt.Errorf("checkpoint: encode frame %d: %w", s.seq, err)
	}
	frame := s.buf.Bytes()
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	path := s.logPath(s.base)
	if err := writeSynced(path, frame, s.logSize, &w); err != nil {
		return "", w, fmt.Errorf("checkpoint: append %s: %w", filepath.Base(path), err)
	}
	s.logSize += int64(len(frame))
	return path, w, nil
}

// fileStem is a checkpoint file's name up to its digest (a base) or its
// suffix (a log): the kind's prefix and the sequence number.
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

// pruneLocked bounds retention. The pruning unit is a base with its log:
// everything strictly older than the keep-th newest base is removed, its
// log with it. Logs never count against the retention budget. An older
// build's delta files are not read, and one older than the newest base
// is not needed by it either, so those go too.
func (s *Store) pruneLocked() {
	bases := s.list(snapPrefix)
	for _, b := range bases[:max(len(bases)-s.keep, 0)] {
		_ = os.Remove(filepath.Join(s.dir, b.name))
		_ = os.Remove(s.logPath(b.seq))
	}
	for _, d := range s.list(deltaPrefix) {
		if d.seq < s.base {
			_ = os.Remove(filepath.Join(s.dir, d.name))
		}
	}
}

// Load reads and verifies one base file: the contents must hash to the
// digest embedded in the name, decode as gob, carry the current format
// version and columns that agree. Failures wrap ErrCorrupt.
func (s *Store) Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	name := filepath.Base(path)
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, "-"+digest(data)+".ckpt") {
		return nil, fmt.Errorf("%w: %s: not a %sfile named after its contents", ErrCorrupt, name, snapPrefix)
	}
	// Any other format is refused, Format 1's JSON and Format 2's
	// row-by-row gob included.
	var w wireSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	if w.Format != Format {
		return nil, fmt.Errorf("%w: %s: format %d, want %d", ErrCorrupt, name, w.Format, Format)
	}
	snap, err := w.snapshot()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return snap, nil
}

// readFrames hands fn the groups of a log, the one after a base of
// sequence number last, in order with their sequence numbers, up to the
// end of its valid prefix, and returns that prefix's length.
func readFrames(data []byte, last int, fn func(d *Delta, seq int)) (valid int64) {
	for len(data) >= frameHeader {
		n := binary.LittleEndian.Uint32(data[0:4])
		if uint64(n) > uint64(len(data)-frameHeader) {
			break // torn: the frame runs past the end
		}
		payload := data[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
			break
		}
		var w wireDelta
		if gob.NewDecoder(bytes.NewReader(payload)).Decode(&w) != nil || w.Seq != last+1 {
			break
		}
		d, err := w.delta()
		if err != nil {
			break
		}
		fn(d, w.Seq)
		last = w.Seq
		valid += frameHeader + int64(n)
		data = data[frameHeader+int(n):]
	}
	return valid
}

// Latest returns the newest valid base with the valid prefix of its log
// applied. Corruption degrades, never fails outright: a bad frame ends its
// log's valid prefix, and a corrupt base sends Latest one base further
// back, with that base's log. ErrNoSnapshot when nothing valid remains.
func (s *Store) Latest() (*Snapshot, error) {
	bases := s.list(snapPrefix)
	for i := len(bases) - 1; i >= 0; i-- {
		snap, err := s.Load(filepath.Join(s.dir, bases[i].name))
		if err != nil {
			continue
		}
		m, seq := newMerger(snap), bases[i].seq
		data, _ := os.ReadFile(s.logPath(seq))
		readFrames(data, seq, func(d *Delta, at int) { m.apply(d); seq = at })
		snap = m.snapshot()
		snap.Seq = seq
		return snap, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, s.dir)
}

// Snapshots returns the paths of all base files, sequence-ascending
// (validity not checked; see Load). Each base's log sits beside it.
func (s *Store) Snapshots() []string {
	var out []string
	for _, b := range s.list(snapPrefix) {
		out = append(out, filepath.Join(s.dir, b.name))
	}
	return out
}
