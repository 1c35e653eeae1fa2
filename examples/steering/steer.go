package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// store is the database the simulation publishes to and the monitor
// reads from: named byte blobs, copied in and out.
type store struct {
	mu   sync.RWMutex
	data map[string][]byte
}

func newStore() *store { return &store{data: make(map[string][]byte)} }

func (s *store) put(id string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[id] = append([]byte(nil), val...)
}

// get returns a copy of the blob under id, or false when there is none.
func (s *store) get(id string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	raw, ok := s.data[id]
	return append([]byte(nil), raw...), ok
}

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
	backend *store
	prefix  string
	step    int
}

// publish persists one partial result and returns its step number.
func (p *progress) publish(partial []byte) (int, error) {
	step := p.step + 1
	p.backend.put(p.stepID(step), partial)
	raw, err := json.Marshal(step)
	if err != nil {
		return 0, err
	}
	p.backend.put(p.id("latest"), raw)
	p.step = step
	return step, nil
}

// decision returns the newest steering decision, or false before the
// monitor decided anything.
func (p *progress) decision() (decision, bool) {
	raw, ok := p.backend.get(p.id("decision"))
	if !ok {
		return decision{}, false
	}
	var d decision
	if err := json.Unmarshal(raw, &d); err != nil {
		return decision{}, false
	}
	return d, true
}

func (p *progress) id(name string) string {
	return p.prefix + "/" + name
}

func (p *progress) stepID(n int) string {
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

func newMonitor(backend *store, prefix string, check func(int, []byte) decision, interval time.Duration) *monitor {
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
	raw, ok := m.at.backend.get(m.at.id("latest"))
	if !ok {
		return // nothing published yet
	}
	var latest int
	if err := json.Unmarshal(raw, &latest); err != nil {
		return
	}
	for step := m.stepsSeen() + 1; step <= latest; step++ {
		partial, ok := m.at.backend.get(m.at.stepID(step))
		if !ok {
			continue
		}
		if enc, err := json.Marshal(m.check(step, partial)); err == nil {
			m.at.backend.put(m.at.id("decision"), enc)
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
