package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// verdict is the steering decision for one partial result.
type verdict int

const (
	verdictContinue verdict = iota + 1 // proceed unchanged
	verdictAdjust                      // proceed with decision.Params
	verdictAbort                       // stop the simulation
)

func (v verdict) String() string {
	switch v {
	case verdictContinue:
		return "continue"
	case verdictAdjust:
		return "adjust"
	case verdictAbort:
		return "abort"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// decision is what the check returns and what the simulation polls.
type decision struct {
	Verdict verdict           `json:"verdict"`
	Reason  string            `json:"reason,omitempty"`
	Params  map[string]string `json:"params,omitempty"`
}

// progress is the simulation's side: one object per partial result under
// "<prefix>/step/<n>", a "<prefix>/latest" pointer to the newest step, and
// the monitor's newest decision under "<prefix>/decision".
type progress struct {
	backend storage.Backend
	prefix  string
	step    int
}

// publish persists one partial result and returns its step number.
func (p *progress) publish(partial []byte) (int, error) {
	step := p.step + 1
	if err := p.backend.Put(p.stepID(step), partial); err != nil {
		return 0, fmt.Errorf("publish step %d: %w", step, err)
	}
	raw, err := json.Marshal(step)
	if err != nil {
		return 0, err
	}
	if err := p.backend.Put(p.id("latest"), raw); err != nil {
		return 0, fmt.Errorf("publish latest: %w", err)
	}
	p.step = step
	return step, nil
}

// decision returns the newest steering decision, or false before the
// monitor decided anything.
func (p *progress) decision() (decision, bool) {
	raw, err := p.backend.Get(p.id("decision"))
	if err != nil {
		return decision{}, false
	}
	var d decision
	if err := json.Unmarshal(raw, &d); err != nil {
		return decision{}, false
	}
	return d, true
}

func (p *progress) id(name string) storage.ObjectID {
	return storage.ObjectID(p.prefix + "/" + name)
}

func (p *progress) stepID(n int) storage.ObjectID {
	return p.id(fmt.Sprintf("step/%d", n))
}

// monitor polls a progress prefix for new partial results, runs check on
// each in step order, and persists the decision where the simulation reads
// it. It owns one goroutine; stop shuts it down and waits.
type monitor struct {
	at    progress
	check func(step int, partial []byte) decision

	mu       sync.Mutex
	lastSeen int

	stopc chan struct{}
	done  chan struct{}
}

func newMonitor(backend storage.Backend, prefix string, check func(int, []byte) decision, interval time.Duration) *monitor {
	m := &monitor{
		at:    progress{backend: backend, prefix: prefix},
		check: check,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-ticker.C:
				m.poll()
			}
		}
	}()
	return m
}

func (m *monitor) poll() {
	raw, err := m.at.backend.Get(m.at.id("latest"))
	if err != nil {
		return // nothing published yet
	}
	var latest int
	if err := json.Unmarshal(raw, &latest); err != nil {
		return
	}
	for step := m.stepsSeen() + 1; step <= latest; step++ {
		partial, err := m.at.backend.Get(m.at.stepID(step))
		if err != nil {
			continue
		}
		if enc, err := json.Marshal(m.check(step, partial)); err == nil {
			_ = m.at.backend.Put(m.at.id("decision"), enc)
		}
		m.mu.Lock()
		m.lastSeen = step
		m.mu.Unlock()
	}
}

// stepsSeen reports how many partial results were checked.
func (m *monitor) stepsSeen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSeen
}

func (m *monitor) stop() {
	close(m.stopc)
	<-m.done
}
