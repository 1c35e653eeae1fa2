package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/deps"
)

// ProducerIndexBuilt reports whether a recovery or availability query has
// built the producer index yet.
func ProducerIndexBuilt(e *Engine) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.producer != nil
}

// checkProducerIndex holds a built producer index to a rebuild from the
// task table in registration order: every version maps to its
// last-registered writer and to nothing else. Caller holds e.mu.
func checkProducerIndex(e *Engine) error {
	if e.producer == nil {
		return nil
	}
	want := make(map[deps.Version]*Task, len(e.producer))
	for _, t := range e.tasks.all {
		for _, k := range t.OutputKeys {
			want[k] = t
		}
	}
	for k, t := range want {
		if got := e.producer[k]; got != t {
			return fmt.Errorf("producer of %v: index names %v, the task table task %d", k, got, t.ID)
		}
	}
	if len(e.producer) != len(want) {
		return fmt.Errorf("index holds %d versions, the task table %d", len(e.producer), len(want))
	}
	return nil
}

// CheckProducerIndexSteps runs checkProducerIndex at every release of any
// engine's lock by an engine call until the test ends, then fails the test
// with the first difference (or if no step was checked at all).
func CheckProducerIndexSteps(t testing.TB) {
	var mu sync.Mutex
	var first error
	steps := 0
	check := func(e *Engine) {
		err := checkProducerIndex(e)
		mu.Lock()
		defer mu.Unlock()
		steps++
		if first == nil && err != nil {
			first = fmt.Errorf("step %d: %w", steps, err)
		}
	}
	stepCheck.Store(&check)
	t.Cleanup(func() {
		stepCheck.Store(nil)
		mu.Lock()
		defer mu.Unlock()
		if first != nil {
			t.Errorf("producer index: %v", first)
		} else if steps == 0 {
			t.Error("producer index: no engine step was checked")
		}
	})
}
