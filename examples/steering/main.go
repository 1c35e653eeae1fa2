// Steering: computational steering through a data store (paper Sec.
// VI-C): "the support to store data on databases … allows scientists
// to check partial results before their long-lasting simulations end the
// execution. This checking enables to detect in early stages if the
// simulation is not behaving as expected and should be steered … Our
// vision is that the workflow environment should provide scientists with
// tools or mechanism that facilitates this steering."
//
// A long simulation publishes residuals to the store after each
// phase; a monitor inspects them and steers — here it halves the timestep
// when the solver gets rough and aborts on divergence, so the scientist
// does not burn hours of compute on a doomed run.
//
//	go run ./examples/steering
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "steering:", err)
		os.Exit(1)
	}
}

func run() error {
	backend := newStore()
	prog := &progress{backend: backend, prefix: "run42"}

	mon := newMonitor(backend, "run42", func(step int, partial []byte) decision {
		var residual float64
		if err := json.Unmarshal(partial, &residual); err != nil {
			return decision{Verdict: verdictAbort, Reason: "unreadable partial result"}
		}
		switch {
		case math.IsNaN(residual) || residual > 50:
			return decision{Verdict: verdictAbort,
				Reason: fmt.Sprintf("residual %.2f diverged at step %d", residual, step)}
		case residual > 5:
			return decision{Verdict: verdictAdjust,
				Reason: fmt.Sprintf("residual %.2f too rough", residual),
				Params: map[string]string{"dt": "0.5x"}}
		default:
			return decision{Verdict: verdictContinue}
		}
	}, 2*time.Millisecond)
	defer mon.stop()

	// The "simulation": an unstable explicit integrator whose residual
	// grows until the timestep is halved.
	dt := 1.0
	residual := 1.0
	for step := 1; step <= 12; step++ {
		// Integrate one phase: residual grows with dt.
		residual *= 1 + dt
		raw, err := json.Marshal(residual)
		if err != nil {
			return err
		}
		if _, err := prog.publish(raw); err != nil {
			return err
		}
		fmt.Printf("step %2d: dt=%.2f residual=%8.2f", step, dt, residual)

		// Wait for the monitor's verdict on this step (interactive loop).
		deadline := time.Now().Add(time.Second)
		for mon.stepsSeen() < step {
			if time.Now().After(deadline) {
				return fmt.Errorf("monitor stalled at step %d", step)
			}
			time.Sleep(time.Millisecond)
		}
		d, ok := prog.decision()
		if !ok {
			fmt.Println("  (no decision)")
			continue
		}
		fmt.Printf("  -> %s %s\n", d.Verdict, d.Reason)
		switch d.Verdict {
		case verdictAbort:
			fmt.Println("simulation aborted by steering — compute hours saved")
			return nil
		case verdictAdjust:
			dt *= 0.5
			residual *= 0.4 // the smaller step stabilises the solver
		case verdictContinue:
		}
	}
	fmt.Println("simulation completed under steering")
	return nil
}
