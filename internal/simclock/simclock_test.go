package simclock

import (
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending() = %d, want 0", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	c := New()
	var order []int
	c.At(3*time.Second, func() { order = append(order, 3) })
	c.At(1*time.Second, func() { order = append(order, 1) })
	c.At(2*time.Second, func() { order = append(order, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", c.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	c := New()
	var fired time.Duration
	c.At(5*time.Second, func() {
		c.After(2*time.Second, func() { fired = c.Now() })
	})
	c.Run()
	if fired != 7*time.Second {
		t.Fatalf("nested After fired at %v, want 7s", fired)
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	c := New()
	var fired time.Duration
	c.At(10*time.Second, func() {
		c.At(1*time.Second, func() { fired = c.Now() })
	})
	c.Run()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamp to 10s", fired)
	}
}

func TestNegativeAfterClampsToZero(t *testing.T) {
	c := New()
	var fired bool
	c.After(-time.Second, func() { fired = true })
	c.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	c := New()
	if c.Step() {
		t.Fatal("Step() on empty clock returned true")
	}
}

func TestEventsCanCascade(t *testing.T) {
	c := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			c.After(time.Millisecond, step)
		}
	}
	c.After(0, step)
	c.Run()
	if count != 100 {
		t.Fatalf("cascade ran %d times, want 100", count)
	}
	if c.Now() != 99*time.Millisecond {
		t.Fatalf("Now() = %v, want 99ms", c.Now())
	}
}

func TestDeferRunsAfterCurrentInstant(t *testing.T) {
	c := New()
	var order []string
	c.At(time.Second, func() {
		order = append(order, "first")
		c.Defer(func() { order = append(order, "deferred") })
		c.At(time.Second, func() { order = append(order, "second") })
	})
	c.At(time.Second, func() { order = append(order, "queued") })
	c.Run()
	// The deferred callback fires at the same instant but after every
	// event already queued for it ("queued"), in scheduling order.
	want := []string{"first", "queued", "deferred", "second"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", c.Now())
	}
}

// TestEventsAllocateNothing is the clock's deterministic cost gate: with
// the event heap warm, scheduling an event and firing it allocates no
// object (events are values in the heap's own slice).
func TestEventsAllocateNothing(t *testing.T) {
	c := New()
	fn := func() {}
	for i := 0; i < 64; i++ { // pending events, as a simulation keeps one per running task
		c.At(time.Hour, fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		c.After(time.Second, fn)
		c.Step()
	}); avg != 0 {
		t.Fatalf("At+Step allocates %.1f objects per event, want 0", avg)
	}
}
