package transfer

import "repro/internal/deps"

// The names below are kept for the frozen benchmark harness (bench/)
// alone; everything else spells a data version deps.Version. They go when
// that harness next changes.

// Key is deps.Version under the name the registry's API grew up with.
type Key = deps.Version

// KeyOf is the identity.
func KeyOf(v deps.Version) Key { return v }
