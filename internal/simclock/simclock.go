// Package simclock provides a deterministic discrete-event virtual clock.
//
// The clock underpins the computing-continuum simulator (internal/infra):
// experiments that the paper ran on MareNostrum (100 nodes, 4800 cores,
// millions of tasks) execute here in virtual time, so a full parameter sweep
// finishes in milliseconds and is exactly reproducible.
//
// Events scheduled at the same instant fire in scheduling order (FIFO),
// which keeps simulations deterministic without requiring callers to add
// artificial epsilon offsets.
package simclock

import (
	"time"

	"repro/internal/minheap"
)

// event is a single scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before orders events by (at, seq): same-instant events fire FIFO.
func before(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Clock is a discrete-event virtual clock. It is not safe for concurrent
// use: the simulator drives it from a single goroutine, which is what makes
// runs deterministic.
type Clock struct {
	now    time.Duration
	seq    uint64
	events minheap.Heap[event]
}

// New returns a clock positioned at virtual time zero.
func New() *Clock {
	return &Clock{events: minheap.Heap[event]{Less: before}}
}

// Now reports the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration {
	return c.now
}

// Pending reports how many events are scheduled and not yet fired.
func (c *Clock) Pending() int {
	return c.events.Len()
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// clamps to the present: the event fires at the current time, after any
// events already due.
func (c *Clock) At(t time.Duration, fn func()) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	c.events.Push(event{at: t, seq: c.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time. Negative
// delays clamp to zero.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.At(c.now+d, fn)
}

// Defer schedules fn at the current instant, after every event already
// queued for this instant (same-time events fire in scheduling order).
// Simulation engines use it to coalesce work across a batch of same-time
// events: the first completion of an instant defers one scheduling wave
// that then sees every completion of that instant at once.
func (c *Clock) Defer(fn func()) {
	c.At(c.now, fn)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (c *Clock) Step() bool {
	if c.events.Len() == 0 {
		return false
	}
	ev := c.events.Pop()
	c.now = ev.at
	ev.fn()
	return true
}

// Run fires events until none remain. Event callbacks may schedule further
// events; Run continues until the queue drains.
func (c *Clock) Run() {
	for c.Step() {
	}
}
