// Package energy accounts for the energy consumed by workflow executions.
// The paper sets energy efficiency as a first-class runtime objective
// ("runtimes … able to exploit the performance of the underlying computing
// continuum infrastructures in an energy efficient way", Sec. I; "the
// carbon footprint of ICT processes is a concern").
//
// The model is the standard linear one: P(node) = P_idle + n_busy_cores ×
// P_core. Energy integrates power over (virtual) time. This is sufficient
// to rank schedulers, which is all the experiments need (E10).
package energy

import (
	"sync"
	"time"

	"repro/internal/resources"
)

// Joules is energy in joules.
type Joules float64

// TaskEnergy returns the active energy of one task: cores × activeW ×
// duration. This is the increment a scheduler can estimate per placement.
func TaskEnergy(desc resources.Description, cores int, d time.Duration) Joules {
	if cores <= 0 {
		cores = 1
	}
	return Joules(float64(cores) * desc.ActiveWattsPerCore * d.Seconds())
}

// IdleEnergy returns the baseline energy of one node over an interval.
func IdleEnergy(desc resources.Description, d time.Duration) Joules {
	return Joules(desc.IdleWatts * d.Seconds())
}

// Accountant accumulates energy per node. It is safe for concurrent use.
type Accountant struct {
	mu      sync.Mutex
	active  map[string]Joules
	spanned map[string]time.Duration // membership time per node, for idle energy
	descs   map[string]resources.Description
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{
		active:  make(map[string]Joules),
		spanned: make(map[string]time.Duration),
		descs:   make(map[string]resources.Description),
	}
}

// AddTask charges one task execution to a node.
func (a *Accountant) AddTask(node string, desc resources.Description, cores int, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.descs[node] = desc
	a.active[node] += TaskEnergy(desc, cores, d)
}

// SetSpan records how long a node was part of the pool (for idle-power
// integration). Call once at the end of a run.
func (a *Accountant) SetSpan(node string, desc resources.Description, span time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.descs[node] = desc
	a.spanned[node] = span
}

// ActiveEnergy returns the total task (dynamic) energy.
func (a *Accountant) ActiveEnergy() Joules {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total Joules
	for _, j := range a.active {
		total += j
	}
	return total
}

// TotalEnergy returns dynamic plus idle energy across all nodes.
func (a *Accountant) TotalEnergy() Joules {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total Joules
	for _, j := range a.active {
		total += j
	}
	for node, span := range a.spanned {
		total += IdleEnergy(a.descs[node], span)
	}
	return total
}
