// Package faults scripts fault-injection scenarios against the shared
// scheduling engine — the recovery drills of the paper's experiment E7
// ("part of the application failed on a fog node … the execution of the
// method was resubmitted to another node", Sec. VI-B), made backend
// agnostic.
//
// A Scenario is a time-ordered list of fault events; the five kinds map
// one-to-one onto the engine's fault surface:
//
//   - Crash    → Engine.FailNode: the node leaves the pool, its replicas
//     are dropped, running tasks are killed (epoch invalidation) and
//     resubmitted through lineage recovery;
//   - Slow     → Engine.SlowNode: future placements carry a duration
//     multiplier (factor 1 restores full speed);
//   - Drain    → Engine.DrainNode: cordon — running work finishes, new
//     placements avoid the node;
//   - Cut      → Engine.Partition: a link (node or zone endpoints) is
//     severed; staging across it is impossible and the engine's
//     availability policy (engine.Availability) decides whether affected
//     tasks run anyway, park, or recompute their producers;
//   - HealLink → Engine.Heal: the link returns, parked tasks whose data
//     became reachable are woken, and queued work re-plans its staging.
//
// Run arms the events on any Timer — the simulator's virtual clock or a
// wall-clock timer (WallTimer) — and fires them into any Injector — the
// simulator or the live runtime, which layers its own cleanup (event
// invalidation, goroutine context cancellation) over the shared engine
// choreography. The same script therefore produces the same
// kill/recover/park/wake sequence on both backends, which is what lets
// the parity suites assert identical re-execution counts across them.
// The returned Drill accumulates per-event Outcomes (crash reports,
// injection errors) and Wait blocks until every armed event has fired.
//
// Scenarios are built in Go or parsed from the compact CLI grammar
// ("crash@2s:n0,slow@3s:n1x2,cut@4s:n0-n2,heal@8s:n0-n2"; see Parse)
// that cmd/flowgo-sim exposes as -faults. The operator-facing guide to
// the whole fault model — grammar, availability policies, recovery
// drills — is docs/FAULTS.md.
package faults

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// Kind is the type of one fault event.
type Kind int

// Fault kinds.
const (
	// Crash removes Node from the pool, killing and recovering its tasks.
	Crash Kind = iota + 1
	// Slow multiplies the modelled duration of Node's future launches by
	// Factor (1 restores full speed).
	Slow
	// Drain cordons Node: running work finishes, new placements avoid it.
	Drain
	// Cut severs the network link between Node and Peer (node or zone
	// names) so staging across it blocks.
	Cut
	// HealLink restores a link severed by Cut.
	HealLink
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Slow:
		return "slow"
	case Drain:
		return "drain"
	case Cut:
		return "cut"
	case HealLink:
		return "heal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scripted fault.
type Event struct {
	// At is the injection instant, relative to the run's epoch (virtual
	// time on the simulator, elapsed wall time on the live runtime).
	At time.Duration
	// Kind selects the fault.
	Kind Kind
	// Node is the target node (Crash, Slow, Drain) or the first endpoint
	// (Cut, HealLink).
	Node string
	// Peer is the second endpoint of Cut / HealLink.
	Peer string
	// Factor is the Slow duration multiplier.
	Factor float64
}

// Scenario is a fault script. Order does not matter; events fire by At.
type Scenario []Event

// Validate reports the first structurally invalid event (unknown kind,
// missing target, non-positive slow factor). Targets are not checked
// against a pool — a scenario is written before the run it disturbs.
func (s Scenario) Validate() error {
	for i, ev := range s {
		switch ev.Kind {
		case Crash, Slow, Drain:
			if ev.Node == "" {
				return fmt.Errorf("faults: event %d (%s): missing node", i, ev.Kind)
			}
			if ev.Kind == Slow && ev.Factor <= 0 {
				return fmt.Errorf("faults: event %d (slow %s): factor must be > 0", i, ev.Node)
			}
		case Cut, HealLink:
			if ev.Node == "" || ev.Peer == "" {
				return fmt.Errorf("faults: event %d (%s): missing endpoint", i, ev.Kind)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// Injector receives fault events. Both backends implement it —
// *infra.Sim over the virtual clock and *core.Runtime over goroutines —
// by delegating to the engine's fault surface and layering their own
// cleanup (event invalidation, goroutine cancellation) on top.
type Injector interface {
	// FailNode crashes a node and triggers lineage recovery.
	FailNode(name string) (engine.FailReport, error)
	// SlowNode sets a node's duration multiplier.
	SlowNode(name string, factor float64) error
	// DrainNode cordons a node.
	DrainNode(name string) error
	// Partition cuts the link between two endpoints.
	Partition(a, b string) error
	// Heal restores a cut link.
	Heal(a, b string) error
}

// Timer schedules a callback at an absolute offset from the run's epoch.
// *simclock.Clock satisfies it directly; WallTimer adapts real time.
type Timer interface {
	At(t time.Duration, fn func())
}

// Outcome records what one fired event did.
type Outcome struct {
	// Event is the scripted fault.
	Event Event
	// Report is the crash report (Crash events only).
	Report engine.FailReport
	// Err is the injection error, if any (e.g. an unknown node).
	Err error
}

// Drill tracks a running scenario. It is safe for concurrent use — wall
// timers fire from their own goroutines.
type Drill struct {
	mu       sync.Mutex
	outcomes []Outcome
	pending  sync.WaitGroup
}

// Wait blocks until every armed event has fired. On a virtual-time Timer
// the events fire inside the simulation's Run, so Wait returns immediately
// after it; on a WallTimer it blocks in real time.
func (d *Drill) Wait() { d.pending.Wait() }

// Outcomes returns the fired events' outcomes in firing order.
func (d *Drill) Outcomes() []Outcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Outcome, len(d.outcomes))
	copy(out, d.outcomes)
	return out
}

// Killed sums the tasks killed by the drill's crash events so far.
func (d *Drill) Killed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, o := range d.outcomes {
		n += len(o.Report.Killed)
	}
	return n
}

// Run validates the scenario and arms every event on the timer. The
// returned Drill accumulates outcomes as events fire.
func Run(tm Timer, inj Injector, s Scenario) (*Drill, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := &Drill{}
	d.pending.Add(len(s))
	for _, ev := range s {
		ev := ev
		tm.At(ev.At, func() {
			defer d.pending.Done()
			o := Outcome{Event: ev}
			switch ev.Kind {
			case Crash:
				o.Report, o.Err = inj.FailNode(ev.Node)
			case Slow:
				o.Err = inj.SlowNode(ev.Node, ev.Factor)
			case Drain:
				o.Err = inj.DrainNode(ev.Node)
			case Cut:
				o.Err = inj.Partition(ev.Node, ev.Peer)
			case HealLink:
				o.Err = inj.Heal(ev.Node, ev.Peer)
			}
			d.mu.Lock()
			d.outcomes = append(d.outcomes, o)
			d.mu.Unlock()
		})
	}
	return d, nil
}

// WallTimer schedules callbacks on real time, measured from its creation —
// the live runtime's Timer. Stop cancels events that have not fired (their
// Drill slots never complete, so use Stop only when abandoning a drill).
type WallTimer struct {
	epoch time.Time

	mu     sync.Mutex
	timers []*time.Timer
}

// NewWallTimer returns a timer whose epoch is now.
func NewWallTimer() *WallTimer {
	return &WallTimer{epoch: time.Now()}
}

// At implements Timer. Offsets already in the past fire immediately.
func (w *WallTimer) At(t time.Duration, fn func()) {
	d := t - time.Since(w.epoch)
	if d < 0 {
		d = 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.timers = append(w.timers, time.AfterFunc(d, fn))
}

// Stop cancels all pending callbacks.
func (w *WallTimer) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range w.timers {
		t.Stop()
	}
	w.timers = nil
}
