package engine_test

// Delta-checkpoint parity: delta chains are an encoding, not a new
// source of truth — reconstructing base + deltas must land on exactly
// the state a full snapshot of the same instant would show, on both
// backends. The sweep runs every conformance generator with a save after
// every completion on the serialised single-core rig and asserts
// three-way equivalence: the simulator's chain reconstruction, the live
// runtime's chain reconstruction, and a side-effect-free capture of the
// state the simulator drained to. A second test damages the chain —
// the same file index on both backends — and asserts both degrade to
// the same longest-valid-prefix state.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/workloads"
)

// storeFiles splits a store's directory into base and delta paths,
// sequence-ascending.
func storeFiles(t *testing.T, store *checkpoint.Store) (bases, deltas []string) {
	t.Helper()
	for _, p := range store.Snapshots() {
		if strings.HasPrefix(filepath.Base(p), "delta-") {
			deltas = append(deltas, p)
		} else {
			bases = append(bases, p)
		}
	}
	return bases, deltas
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
// simulator drained to, probed without touching its dirty sets.
func TestDeltaCheckpointParitySweep(t *testing.T) {
	engine.CheckRegistrySteps(t)
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	compacted := 0
	for _, c := range workloads.ConformanceSuite() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			simStore, drained := ckptSweepSim(t, c, 1, steal)
			liveStore := ckptSweepLive(t, c, 1, steal)

			simBases, simDeltas := storeFiles(t, simStore)
			liveBases, liveDeltas := storeFiles(t, liveStore)
			if len(simBases) == 0 {
				t.Fatal("simulator persisted no base snapshot")
			}
			if len(simBases) != len(liveBases) || len(simDeltas) != len(liveDeltas) {
				t.Fatalf("file counts diverge: sim %d bases + %d deltas vs live %d + %d",
					len(simBases), len(simDeltas), len(liveBases), len(liveDeltas))
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

// TestDeltaCorruptionFallbackParity: corrupt the newest checkpoint file
// on both backends' stores — the same position in the same capture
// sequence, delta or compacting base alike — and assert both
// reconstructions fall back to the same longest-valid-prefix state.
// Then corrupt every base too and assert both report ErrNoSnapshot
// rather than serving damaged state.
func TestDeltaCorruptionFallbackParity(t *testing.T) {
	engine.CheckRegistrySteps(t)
	steal := engine.StealConfig{Mode: engine.StealOnIdle}
	ran := 0
	for _, c := range workloads.ConformanceSuite() {
		c := c
		simStore, _ := ckptSweepSim(t, c, 1, steal)
		liveStore := ckptSweepLive(t, c, 1, steal)
		_, simDeltas := storeFiles(t, simStore)
		_, liveDeltas := storeFiles(t, liveStore)
		if len(simDeltas) < 2 || len(simDeltas) != len(liveDeltas) {
			continue // need a real chain to damage, identically shaped
		}
		ran++
		t.Run(c.Name, func(t *testing.T) {
			intact := latest(t, simStore, "sim")
			simFiles := simStore.Snapshots()
			liveFiles := liveStore.Snapshots()
			damage(t, simFiles[len(simFiles)-1])
			damage(t, liveFiles[len(liveFiles)-1])

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
		t.Fatal("no conformance case produced a multi-delta chain")
	}
}
