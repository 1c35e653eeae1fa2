package engine_test

// Delta-checkpoint parity: a base and its log are an encoding, not a new
// source of truth — reconstructing the base plus its log's frames must
// land on exactly the state a full snapshot of the same instant would
// show, on both backends. The sweep runs every conformance generator with
// a save after every completion on the serialised single-core rig and
// asserts three-way equivalence: the simulator's reconstruction, the live
// runtime's reconstruction, and a side-effect-free capture of the state
// the simulator drained to. A second test damages the newest save — the
// same one on both backends — and asserts both degrade to the same
// valid-prefix state.

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/workloads"
)

// storeFiles lists a store's bases and the logs beside them,
// sequence-ascending.
func storeFiles(t *testing.T, store *checkpoint.Store) (bases, logs []string) {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(store.Dir(), "log-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return store.Snapshots(), logs
}

// logOf is the path of the log beside base, whether or not it exists.
func logOf(base string) string {
	seq := strings.Split(filepath.Base(base), "-")[1]
	return filepath.Join(filepath.Dir(base), "log-"+seq+".ckpt")
}

// frameEnds returns where each frame of the log at path ends: every frame
// is its payload's length and checksum (4 bytes each, the length little
// endian) and the payload. A missing log has none.
func frameEnds(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for at := 0; at+8 <= len(data); {
		at += 8 + int(binary.LittleEndian.Uint32(data[at:]))
		ends = append(ends, at)
	}
	return ends
}

// frameCount sums the frames of a store's logs.
func frameCount(t *testing.T, logs []string) int {
	n := 0
	for _, l := range logs {
		n += len(frameEnds(t, l))
	}
	return n
}

// damage truncates the file to half its length so the content digest
// can never match again (truncation, unlike a byte flip, is not undone
// by damaging the same file twice).
func damage(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// latest fails the test unless the store reconstructs.
func latest(t *testing.T, store *checkpoint.Store, side string) *checkpoint.Snapshot {
	t.Helper()
	snap, err := store.Latest()
	if err != nil {
		t.Fatalf("%s Latest: %v", side, err)
	}
	return snap
}

// TestDeltaCheckpointParitySweep: a save after every completion — chains
// long enough to compact on the larger cases — across every conformance
// generator and both backends. Both write the same shape of chain, both
// reconstruct the same final state, and that state is the one the
// simulator drained to, probed without touching its logs.
func TestDeltaCheckpointParitySweep(t *testing.T) {
	engine.CheckRegistrySteps(t)
	engine.CheckLogSteps(t)
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	compacted := 0
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			simStore, drained := ckptSweepSim(t, c, 1, steal)
			liveStore := ckptSweepLive(t, c, 1, steal)

			simBases, simLogs := storeFiles(t, simStore)
			liveBases, liveLogs := storeFiles(t, liveStore)
			if len(simBases) == 0 {
				t.Fatal("simulator persisted no base snapshot")
			}
			if sf, lf := frameCount(t, simLogs), frameCount(t, liveLogs); len(simBases) != len(liveBases) || sf != lf {
				t.Fatalf("save counts diverge: sim %d bases + %d frames vs live %d + %d",
					len(simBases), sf, len(liveBases), lf)
			}
			if len(simBases) > 1 {
				compacted++
			}

			simSnap := latest(t, simStore, "sim")
			liveSnap := latest(t, liveStore, "live")
			if err := checkpoint.Equivalent(simSnap, liveSnap); err != nil {
				t.Fatalf("chain reconstructions not equivalent: %v", err)
			}
			// Third leg: the last save followed the last completion, so the
			// chain lands on the state the run drained to — reconstruction
			// is an encoding detail, invisible in the result.
			if err := checkpoint.Equivalent(simSnap, drained); err != nil {
				t.Fatalf("delta reconstruction differs from the drained state: %v", err)
			}
		})
	}
	if compacted == 0 {
		t.Fatal("no conformance case wrote a compacting base on both backends")
	}
}

// TestDeltaCorruptionFallbackParity: damage the newest save on both
// backends' stores — the same position in the same capture sequence, a
// frame torn in half or a compacting base alike — and assert both
// reconstructions fall back to the same valid-prefix state. Then corrupt
// every base too and assert both report ErrNoSnapshot rather than
// serving damaged state.
func TestDeltaCorruptionFallbackParity(t *testing.T) {
	engine.CheckRegistrySteps(t)
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	ran := 0
	for _, c := range workloads.ConformanceSuite() {
		c := c
		simStore, _ := ckptSweepSim(t, c, 1, steal)
		liveStore := ckptSweepLive(t, c, 1, steal)
		_, simLogs := storeFiles(t, simStore)
		_, liveLogs := storeFiles(t, liveStore)
		if n := frameCount(t, simLogs); n < 2 || n != frameCount(t, liveLogs) {
			continue // need a real log to damage, identically shaped
		}
		ran++
		t.Run(c.Name, func(t *testing.T) {
			intact := latest(t, simStore, "sim")
			damageNewest(t, simStore)
			damageNewest(t, liveStore)

			simSnap := latest(t, simStore, "sim")
			liveSnap := latest(t, liveStore, "live")
			if err := checkpoint.Equivalent(simSnap, liveSnap); err != nil {
				t.Fatalf("prefix states not equivalent: %v", err)
			}
			if simSnap.Seq >= intact.Seq {
				t.Fatalf("corrupt tail still served: seq %d, intact head was %d", simSnap.Seq, intact.Seq)
			}

			bases, _ := storeFiles(t, simStore)
			for _, b := range bases {
				damage(t, b)
			}
			if _, err := simStore.Latest(); err == nil {
				t.Fatal("all bases corrupt, Latest still returned a snapshot")
			}
		})
	}
	if ran == 0 {
		t.Fatal("no conformance case produced a log of several frames")
	}
}

// damageNewest damages a store's newest save: the last frame of the
// newest base's log, torn in half, or the base itself when its log is
// empty.
func damageNewest(t *testing.T, store *checkpoint.Store) {
	t.Helper()
	bases := store.Snapshots()
	base := bases[len(bases)-1]
	ends := frameEnds(t, logOf(base))
	if len(ends) == 0 {
		damage(t, base)
		return
	}
	data, err := os.ReadFile(logOf(base))
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	if len(ends) > 1 {
		start = ends[len(ends)-2]
	}
	if err := os.WriteFile(logOf(base), data[:(start+ends[len(ends)-1])/2], 0o644); err != nil {
		t.Fatal(err)
	}
}
