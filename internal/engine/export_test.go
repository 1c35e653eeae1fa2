package engine

import (
	"fmt"
	"slices"
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

// CheckSteps runs check at every release of any engine's lock by an
// engine call until the test ends, with the lock still held, then fails
// the test with the first error it returned (or if no step was checked at
// all), naming it by name. Checks installed by one test compose: each
// step runs them all.
func CheckSteps(t testing.TB, name string, check func(*Engine) error) {
	var mu sync.Mutex
	var first error
	steps := 0
	prev := stepCheck.Load()
	step := func(e *Engine) {
		if prev != nil {
			(*prev)(e)
		}
		err := check(e)
		mu.Lock()
		defer mu.Unlock()
		steps++
		if first == nil && err != nil {
			first = fmt.Errorf("step %d: %w", steps, err)
		}
	}
	stepCheck.Store(&step)
	t.Cleanup(func() {
		stepCheck.Store(prev)
		mu.Lock()
		defer mu.Unlock()
		if first != nil {
			t.Errorf("%s: %v", name, first)
		} else if steps == 0 {
			t.Errorf("%s: no engine step was checked", name)
		}
	})
}

// CheckProducerIndexSteps holds the producer index to checkProducerIndex
// at every engine step until the test ends.
func CheckProducerIndexSteps(t testing.TB) {
	CheckSteps(t, "producer index", checkProducerIndex)
}

// CheckRegistrySteps holds the engine's registry to its layout
// (transfer.Registry.CheckLayout) at every engine step until the test
// ends, and holds it to copy-on-write: every holder list the registry
// published at one step must read the same at every later step — a writer
// installs a new list, it never edits one a reader may hold.
func CheckRegistrySteps(t testing.TB) {
	type list struct {
		first *string
		n     int
	}
	type view struct{ list, was []string } // a published list, and what it read when first seen
	var mu sync.Mutex
	seen := map[list]bool{}
	var views []view
	CheckSteps(t, "registry", func(e *Engine) error {
		reg := e.cfg.Registry
		if reg == nil {
			return nil
		}
		if err := reg.CheckLayout(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, v := range views {
			if !slices.Equal(v.list, v.was) {
				return fmt.Errorf("a published holder list was written through: reads %v, was %v", v.list, v.was)
			}
		}
		for _, en := range reg.Entries() {
			if l := en.Locations; len(l) > 0 && !seen[list{&l[0], len(l)}] {
				seen[list{&l[0], len(l)}] = true
				views = append(views, view{l, slices.Clone(l)})
			}
		}
		return nil
	})
}
