package autoscale

import "repro/internal/resources"

// Predrain makes every node a provisions join the pool already
// cordoned: real supply on the autoscaler's books that refuses
// placements, which pins the engine state for the parity lockstep.
func Predrain(a *Autoscaler) { a.predrain = (*resources.Node).Drain }

// Grow provisions one node of the named tier outside any decision, so a
// test can start from a grown fleet.
func Grow(a *Autoscaler, pool *resources.Pool, tier string) (*resources.Node, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.grow(pool, a.named(tier))
}
