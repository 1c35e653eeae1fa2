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
	"slices"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
)

// valueTable is the Runtime seen as host.Values.
type valueTable Runtime

// Attach adds a gob-encoded value to every captured catalog row (a
// capture's catalog is sorted by key) whose version holds one, so a chain
// reconstruction restores values exactly like a full snapshot would: the
// value of its cell, or else a restored one no submission has claimed.
// It walks every cell page, off the hot path. Values that cannot be
// encoded (see checkpoint.EncodeValue) are left out; their producers
// re-run on restore. A vanished-entry tombstone — zero size, no
// locations — stays value-free so reconstruction drops it.
func (vt *valueTable) Attach(catalog []checkpoint.CatalogEntry) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	attach := func(en *checkpoint.CatalogEntry, v any) {
		if en.Size == 0 && len(en.Locations) == 0 {
			return
		}
		if b, encoded := checkpoint.EncodeValue(v); encoded {
			en.Value, en.HasValue = b, true
		}
	}
	for _, p := range vt.pages {
		for j := range p {
			if c := &p[j]; c.set && c.err == nil { // an unused cell is never set
				if i, ok := slices.BinarySearchFunc(catalog, c.key, byKey); ok {
					attach(&catalog[i], c.val)
				}
			}
		}
	}
	for i := range catalog {
		if v, ok := vt.restored[catalog[i].Key]; ok && !catalog[i].HasValue {
			attach(&catalog[i], v)
		}
	}
}

// byKey orders a catalog row against a version, the catalog's order.
func byKey(en checkpoint.CatalogEntry, k deps.Version) int {
	if en.Key.Less(k) {
		return -1
	} else if k.Less(en.Key) {
		return 1
	}
	return 0
}

// Seed decodes a restored row's value into the restored table, where
// NewData, Present and a resolved submission find it. It runs inside
// New, before the runtime is visible to anyone.
func (vt *valueTable) Seed(en *checkpoint.CatalogEntry) bool {
	val, ok := checkpoint.DecodeValue(en.Value)
	if ok {
		if vt.restored == nil {
			vt.restored = make(map[deps.Version]any)
		}
		vt.restored[en.Key] = val
	}
	return ok
}

// Present reports whether the snapshot restored a value for k. Caller
// holds rt.mu: the host asks on the submission path.
func (vt *valueTable) Present(k deps.Version) bool {
	_, ok := vt.restored[k]
	return ok
}
