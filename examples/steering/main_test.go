package main

import (
	"encoding/json"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestVerdictString(t *testing.T) {
	for v, want := range map[verdict]string{verdictContinue: "continue", verdictAdjust: "adjust", verdictAbort: "abort"} {
		if v.String() != want {
			t.Errorf("%d = %q", int(v), v.String())
		}
	}
}

func TestPublishAndDecisionRoundTrip(t *testing.T) {
	backend := newStore()
	prog := &progress{backend: backend, prefix: "sim1"}

	if _, ok := prog.decision(); ok {
		t.Fatal("decision before any monitoring")
	}
	step, err := prog.publish([]byte("42"))
	if err != nil || step != 1 {
		t.Fatalf("publish: %d %v", step, err)
	}

	mon := newMonitor(backend, "sim1", func(step int, partial []byte) decision {
		return decision{Verdict: verdictContinue, Reason: "step " + strconv.Itoa(step) + " ok: " + string(partial)}
	}, time.Millisecond)
	defer mon.stop()

	waitFor(t, func() bool { return mon.stepsSeen() >= 1 })
	d, ok := prog.decision()
	if !ok || d.Verdict != verdictContinue || d.Reason != "step 1 ok: 42" {
		t.Fatalf("decision = %+v ok=%v", d, ok)
	}
}

func TestSteeringDetectsDivergence(t *testing.T) {
	// The paper's scenario: a long simulation publishes residuals; the
	// monitor asks for a smaller step when they grow and aborts when they
	// diverge.
	backend := newStore()
	prog := &progress{backend: backend, prefix: "climate"}
	mon := newMonitor(backend, "climate", func(_ int, partial []byte) decision {
		var residual float64
		if json.Unmarshal(partial, &residual) != nil {
			return decision{Verdict: verdictAbort, Reason: "unreadable partial"}
		}
		if residual > 100 {
			return decision{Verdict: verdictAbort, Reason: "diverging"}
		}
		if residual > 10 {
			return decision{Verdict: verdictAdjust, Params: map[string]string{"dt": "halve"}}
		}
		return decision{Verdict: verdictContinue}
	}, time.Millisecond)
	defer mon.stop()

	// The "simulation": residuals 1, 20, 500, reading the verdict after each.
	var seen []decision
	for _, residual := range []float64{1, 20, 500} {
		raw, err := json.Marshal(residual)
		if err != nil {
			t.Fatal(err)
		}
		step, err := prog.publish(raw)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return mon.stepsSeen() >= step })
		d, ok := prog.decision()
		if !ok {
			t.Fatalf("no decision after step %d", step)
		}
		seen = append(seen, d)
		if d.Verdict == verdictAbort {
			break
		}
	}
	if len(seen) != 3 || seen[0].Verdict != verdictContinue ||
		seen[1].Verdict != verdictAdjust || seen[2].Verdict != verdictAbort {
		t.Fatalf("decisions = %+v, want continue, adjust, abort", seen)
	}
	if seen[1].Params["dt"] != "halve" {
		t.Fatalf("adjust params = %v", seen[1].Params)
	}
	if seen[2].Reason != "diverging" {
		t.Fatalf("abort reason = %q", seen[2].Reason)
	}
}

func TestMonitorCatchesUpOnBurst(t *testing.T) {
	backend := newStore()
	prog := &progress{backend: backend, prefix: "burst"}
	// Publish 5 steps before the monitor starts.
	for i := 0; i < 5; i++ {
		if _, err := prog.publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var checked []int
	mon := newMonitor(backend, "burst", func(step int, _ []byte) decision {
		mu.Lock()
		checked = append(checked, step)
		mu.Unlock()
		return decision{Verdict: verdictContinue}
	}, time.Millisecond)
	defer mon.stop()
	waitFor(t, func() bool { return mon.stepsSeen() == 5 })
	mu.Lock()
	defer mu.Unlock()
	if len(checked) != 5 {
		t.Fatalf("checked steps %v, want 1..5 once each", checked)
	}
	for i, step := range checked {
		if step != i+1 {
			t.Fatalf("checked steps %v, want 1..5 in order", checked)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
