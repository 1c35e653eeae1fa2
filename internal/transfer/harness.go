package transfer

import "repro/internal/deps"

// The names below are kept for the frozen benchmark harness (bench/)
// alone: everything else spells a data version deps.Version and plans
// into a moves array it owns. They go when that harness next changes.

// Key is deps.Version under the name the registry's API grew up with.
type Key = deps.Version

// KeyOf is the identity.
func KeyOf(v deps.Version) Key { return v }

// PlanFetch is PlanInto with a fresh moves array.
func (m *Manager) PlanFetch(dest string, keys []deps.Version) Plan {
	return m.PlanInto(nil, dest, keys)
}
