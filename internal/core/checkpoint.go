// The live backend's half of checkpoint/restore is its value table: a
// live snapshot must also persist the Go values completed tasks
// produced, or a resumed run would have nothing to seed futures and
// downstream materialisation with. Everything else is internal/host's
// one restore path; this file is the seam it reaches the values through
// (host.Values). Resumability is cooperative: task IDs are assigned in
// submission order, so the application must re-register and re-submit
// the workflow in the order of the snapshotting run.
package core

import (
	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
)

// valueTable is the Runtime seen as host.Values.
type valueTable Runtime

// Attach adds a gob-encoded value to every captured catalog row the
// value table holds, so a chain reconstruction restores values exactly
// like a full snapshot would. Values that cannot be encoded (see
// checkpoint.RegisterType) are left out; their producers re-run on
// restore. A vanished-entry tombstone — zero size, no locations — stays
// value-free so reconstruction drops it.
func (vt *valueTable) Attach(catalog []checkpoint.CatalogEntry) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	for i := range catalog {
		if catalog[i].Size == 0 && len(catalog[i].Locations) == 0 {
			continue
		}
		slot, ok := vt.values[catalog[i].Key]
		if !ok || slot.err != nil {
			continue
		}
		if b, encoded := checkpoint.EncodeValue(slot.val); encoded {
			catalog[i].Value = b
			catalog[i].HasValue = true
		}
	}
}

// Seed decodes a restored row's value into the table. It runs inside
// New, before the runtime is visible to anyone.
func (vt *valueTable) Seed(en *checkpoint.CatalogEntry) bool {
	val, ok := checkpoint.DecodeValue(en.Value)
	if ok {
		vt.values[en.Key] = versionSlot{val: val}
	}
	return ok
}

// Present reports whether k holds a value (not a failure). Caller holds
// rt.mu: the host asks on the submission path.
func (vt *valueTable) Present(k deps.Version) bool {
	slot, ok := vt.values[k]
	return ok && slot.err == nil
}
