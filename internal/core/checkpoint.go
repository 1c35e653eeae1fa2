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

// Attach adds a gob-encoded value to every captured catalog row whose
// version holds one, so a reconstruction restores values exactly like a
// full snapshot would: the value of its cell, or else a restored one no
// submission has claimed. A delta's rows are as logged, a key's repeated,
// so it sorts them and fills every row of a key: the writer keeps one. It
// walks every cell page, off the hot path. Values that cannot be encoded
// (see checkpoint.EncodeValue) are left out; their producers re-run. A
// vanished row (zero size, no locations) stays value-free, to be dropped.
func (vt *valueTable) Attach(catalog []checkpoint.CatalogEntry) {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	attach := func(en *checkpoint.CatalogEntry, v any) {
		if en.Size == 0 && len(en.Locations) == 0 {
			return
		}
		if b, encoded := checkpoint.EncodeValue(v); encoded {
			en.Value = b
		}
	}
	slices.SortStableFunc(catalog, func(a, b checkpoint.CatalogEntry) int { return byKey(a, b.Key) })
	for _, p := range vt.pages {
		for j := range p {
			if c := &p[j]; c.set && c.err == nil { // an unused cell is never set
				for i, _ := slices.BinarySearchFunc(catalog, c.key, byKey); i < len(catalog) && catalog[i].Key == c.key; i++ {
					attach(&catalog[i], c.val)
				}
			}
		}
	}
	for i := range catalog {
		if v, ok := vt.restored[catalog[i].Key]; ok && len(catalog[i].Value) == 0 {
			attach(&catalog[i], v)
		}
	}
}

// byKey orders a catalog row against a version, the catalog's order.
func byKey(en checkpoint.CatalogEntry, k deps.Version) int { return en.Key.Compare(k) }

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
