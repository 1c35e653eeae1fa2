package resources

import (
	"fmt"
	"sync"
	"time"
)

// Provider acquires and releases nodes on demand: the paper's "different
// connectors, each bridging to each provider API" (Sec. VI-A). Providers
// must be safe for concurrent use.
type Provider interface {
	// Name identifies the provider ("aws-sim", "slurm-sim", …).
	Name() string
	// Acquire provisions one node of the provider's flavour. The
	// returned delay is the provisioning time (VM boot, SLURM queue
	// wait) that the caller must account for before the node is usable.
	Acquire() (node *Node, delay time.Duration, err error)
	// Release decommissions a node previously acquired.
	Release(node *Node) error
}

// SimProvider is an in-memory cloud/SLURM connector with a capacity limit
// and a fixed provisioning delay. It satisfies Provider.
type SimProvider struct {
	name  string
	desc  Description
	delay time.Duration
	limit int

	mu      sync.Mutex
	serial  int
	granted int
}

var _ Provider = (*SimProvider)(nil)

// NewSimProvider returns a provider that hands out nodes with the given
// description, up to limit concurrently, after the given provisioning delay.
func NewSimProvider(name string, desc Description, limit int, delay time.Duration) *SimProvider {
	return &SimProvider{name: name, desc: desc, delay: delay, limit: limit}
}

// Name implements Provider.
func (s *SimProvider) Name() string { return s.name }

// Acquire implements Provider.
func (s *SimProvider) Acquire() (*Node, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.granted >= s.limit {
		return nil, 0, fmt.Errorf("provider %s: %w (limit %d)", s.name, ErrInsufficient, s.limit)
	}
	s.granted++
	s.serial++
	name := fmt.Sprintf("%s-%d", s.name, s.serial)
	return NewNode(name, s.desc), s.delay, nil
}

// Release implements Provider.
func (s *SimProvider) Release(*Node) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.granted > 0 {
		s.granted--
	}
	return nil
}

// ScalePolicy tunes the elasticity decision.
type ScalePolicy struct {
	// MinNodes and MaxNodes bound the elastic part of the pool.
	MinNodes, MaxNodes int
	// TasksPerCore is the pending-work threshold that triggers growth:
	// grow while pending tasks > TasksPerCore × current cores.
	TasksPerCore float64
	// IdleCoresToShrink triggers shrink when free cores exceed it and
	// nothing is pending.
	IdleCoresToShrink int
	// CostPerNodeHour prices one node of this manager's tier in abstract
	// cost units per hour — the tier-aware signal the cost-scoring
	// planner (internal/autoscale) ranks variants by. The threshold
	// planner never reads it: it stays cost-blind, which is exactly the
	// baseline the autoscale benchmarks compare against.
	CostPerNodeHour float64
}

// ElasticManager is the mechanism of COMPSs-style elasticity: it
// acquires and releases nodes of one tier through a Provider, explicitly
// (GrowOne / Reclaim / ShrinkOne), so both the simulator (virtual time)
// and the live runtime (wall time) can drive it. The decision of when to
// scale belongs to the planners in internal/autoscale, which read this
// manager's ScalePolicy and node counts.
//
// Downscaling is a drain-then-remove cycle: ShrinkOne first cordons its
// victim (no new placements land on it) and removes it only once every
// running reservation has been released, so a scale-down decision can
// never kill in-flight work. While a node is mid-drain, a load spike is
// answered by Reclaim — the cordon is lifted instead of paying the
// provider for a fresh node.
type ElasticManager struct {
	provider Provider
	policy   ScalePolicy
	cordon   func(name string) error // optional engine-backed drain hook

	mu       sync.Mutex
	elastic  map[string]*Node // nodes this manager acquired
	draining map[string]*Node // cordoned, waiting to bleed dry
}

// NewElasticManager returns a manager bound to one provider.
func NewElasticManager(p Provider, policy ScalePolicy) *ElasticManager {
	return &ElasticManager{
		provider: p,
		policy:   policy,
		elastic:  make(map[string]*Node),
		draining: make(map[string]*Node),
	}
}

// SetCordon installs the hook ShrinkOne drains victims through —
// engine-backed deployments pass Engine.DrainNode so the cordon lands on
// the scheduler's books (and the trace) and not just on the node. Without
// a hook the node is drained directly.
func (m *ElasticManager) SetCordon(fn func(name string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cordon = fn
}

// Policy returns the manager's scale policy (bounds and tier cost).
func (m *ElasticManager) Policy() ScalePolicy { return m.policy }

// ElasticCount reports the nodes currently acquired by this manager.
func (m *ElasticManager) ElasticCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.elastic)
}

// DrainingCount reports the nodes currently mid-drain.
func (m *ElasticManager) DrainingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.draining)
}

// DrainedCount reports the cordoned nodes that have bled dry: removal
// candidates ShrinkOne can reap without touching running work. A
// cordoned node takes no placements, so leaving a drained one in the
// pool buys nothing at full price.
func (m *ElasticManager) DrainedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, d := range m.draining {
		if d.Running() == 0 {
			n++
		}
	}
	return n
}

// Reclaim cancels one pending drain-then-remove cycle: the cordon is
// lifted and the node (lowest name first, deterministically) serves
// placements again. It returns the reclaimed node, or nil when nothing is
// draining — the free way to grow while a shrink is still in flight.
func (m *ElasticManager) Reclaim() *Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n *Node
	for _, d := range m.draining {
		if n == nil || d.Name() < n.Name() {
			n = d
		}
	}
	if n == nil {
		return nil
	}
	delete(m.draining, n.Name())
	n.Undrain()
	return n
}

// GrowOne acquires a node from the provider and adds it to the pool. It
// returns the node and the provisioning delay to account for.
func (m *ElasticManager) GrowOne(pool *Pool) (*Node, time.Duration, error) {
	node, delay, err := m.provider.Acquire()
	if err != nil {
		return nil, 0, err
	}
	if err := pool.Add(node); err != nil {
		_ = m.provider.Release(node)
		return nil, 0, err
	}
	m.mu.Lock()
	m.elastic[node.Name()] = node
	m.mu.Unlock()
	return node, delay, nil
}

// ShrinkOne advances the drain-then-remove downscale cycle and returns
// the node it removed from the pool, if any. Every victim is cordoned
// (engine DrainNode when a cordon hook is installed, Node.Drain
// otherwise) before it leaves the pool, so running work always finishes:
//
//   - a node already draining that has bled dry is removed and released
//     to the provider (deterministically: lowest name first);
//   - otherwise, with no drain in flight, one elastic node is cordoned —
//     idle nodes are removed in the same call (their drain is complete by
//     definition), busy nodes return nil now and are reaped by a later
//     call once their reservations release.
//
// At most one node drains at a time, so a burst of Shrink decisions
// cannot cordon the whole pool before the first removal lands.
func (m *ElasticManager) ShrinkOne(pool *Pool) (*Node, error) {
	m.mu.Lock()
	// Phase 2: reap a drained node that has bled dry.
	var victim *Node
	for _, n := range m.draining {
		if n.Running() == 0 {
			if victim == nil || n.Name() < victim.Name() {
				victim = n
			}
		}
	}
	if victim != nil {
		delete(m.draining, victim.Name())
		delete(m.elastic, victim.Name())
		m.mu.Unlock()
		return m.removeVictim(pool, victim)
	}
	if len(m.draining) > 0 {
		m.mu.Unlock()
		return nil, nil // the in-flight drain is still bleeding
	}
	// Phase 1: cordon a new victim, preferring idle nodes.
	var idle, busy *Node
	for _, n := range m.elastic {
		if n.Running() == 0 {
			if idle == nil || n.Name() < idle.Name() {
				idle = n
			}
		} else if busy == nil || n.Name() < busy.Name() {
			busy = n
		}
	}
	cordon := m.cordon
	victim = idle
	if victim == nil {
		victim = busy
	}
	if victim == nil {
		m.mu.Unlock()
		return nil, nil
	}
	// The victim sits in draining from selection until removal, so a
	// concurrent ShrinkOne honours the one-drain-at-a-time invariant
	// even while this call is between cordon and removal.
	m.draining[victim.Name()] = victim
	m.mu.Unlock()

	if cordon != nil {
		if err := cordon(victim.Name()); err != nil {
			victim.Drain() // the hook could not see the node; cordon it directly
		}
	} else {
		victim.Drain()
	}
	if idle == nil || victim.Running() > 0 {
		// Busy victim — or a placement slipped in between the idle check
		// and the cordon: the drain holds, removal waits for the work to
		// finish (a later call reaps it).
		return nil, nil
	}
	// Idle and cordoned: remove in the same call.
	m.mu.Lock()
	if _, still := m.draining[victim.Name()]; !still {
		m.mu.Unlock()
		return nil, nil // a concurrent Reclaim took the victim back
	}
	delete(m.draining, victim.Name())
	delete(m.elastic, victim.Name())
	m.mu.Unlock()
	return m.removeVictim(pool, victim)
}

// removeVictim takes a fully drained victim out of the pool and hands it
// back to the provider.
func (m *ElasticManager) removeVictim(pool *Pool, victim *Node) (*Node, error) {
	if err := pool.Remove(victim.Name()); err != nil {
		return nil, err
	}
	if err := m.provider.Release(victim); err != nil {
		return victim, err
	}
	return victim, nil
}
