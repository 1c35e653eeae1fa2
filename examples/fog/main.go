// Fog: the agent deployment of Figs. 5–6. Three agents start on loopback
// HTTP: a 1-core fog "device" and two stronger peers. The device offloads
// a batch of Monte-Carlo tasks; halfway through, one peer is killed, and
// the device re-runs each lost request it still holds on the surviving
// executors (there is no persist step).
//
//	go run ./examples/fog
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/agent"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fog:", err)
		os.Exit(1)
	}
}

func registry() *agent.Registry {
	reg := agent.NewRegistry()
	reg.Register("pi", func(args []json.RawMessage) (json.RawMessage, error) {
		var n int
		if len(args) != 1 || json.Unmarshal(args[0], &n) != nil || n <= 0 {
			return nil, errors.New("pi wants a positive sample count")
		}
		time.Sleep(30 * time.Millisecond) // make offloading worthwhile
		const phi, phi2 = 0.6180339887498949, 0.7548776662466927
		in := 0
		x, y := 0.5, 0.5
		for i := 0; i < n; i++ {
			x += phi
			x -= math.Floor(x)
			y += phi2
			y -= math.Floor(y)
			if (x-0.5)*(x-0.5)+(y-0.5)*(y-0.5) <= 0.25 {
				in++
			}
		}
		return json.Marshal(4 * float64(in) / float64(n))
	})
	return reg
}

func run() error {
	reg := registry()

	fragile, err := agent.New(agent.Config{Name: "fog-peer", Registry: reg, Cores: 2})
	if err != nil {
		return err
	}
	defer fragile.Close()
	cloud, err := agent.New(agent.Config{Name: "cloud-peer", Registry: reg, Cores: 4})
	if err != nil {
		return err
	}
	defer cloud.Close()
	device, err := agent.New(agent.Config{Name: "device", Registry: reg, Cores: 1})
	if err != nil {
		return err
	}
	defer device.Close()
	device.SetPeers([]string{fragile.URL(), cloud.URL()})
	fmt.Printf("device=%s fog-peer=%s cloud-peer=%s\n", device.URL(), fragile.URL(), cloud.URL())

	const tasks = 16
	arg, err := json.Marshal(200000)
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	results := make([]float64, tasks)
	errs := make([]error, tasks)
	start := time.Now()
	for i := 0; i < tasks; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := device.RunAnywhere("pi", []json.RawMessage{arg})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = json.Unmarshal(res, &results[i])
		}()
	}

	// Kill the fog peer mid-batch: "disappeared for low battery or
	// because no longer in the fog area" (paper Sec. VI-B).
	time.Sleep(60 * time.Millisecond)
	fmt.Println("!! fog-peer disappears")
	fragile.Close()

	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	mean := 0.0
	for _, r := range results {
		mean += r
	}
	mean /= tasks
	fmt.Printf("%d tasks done in %v, π ≈ %.5f, recovered offloads: %d\n",
		tasks, time.Since(start).Round(time.Millisecond), mean, device.Recoveries())
	return nil
}
