//go:build race

package infra_test

// The race detector's instrumentation allocates on the engine's paths,
// so allocation budgets read only in a build without it.
func init() { raceEnabled = true }
