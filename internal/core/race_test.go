//go:build race

package core

// The race detector's instrumentation allocates on the submission path,
// so allocation budgets read only in a build without it.
func init() { raceEnabled = true }
