// Command flowgo-agent runs one COMPSs-style agent (paper Sec. VI-B,
// Fig. 6): a REST microservice that executes registered functions locally
// and can offload to peer agents. Start several on different ports and
// point them at each other with -peers to form a fog-to-cloud deployment.
//
// Example (three agents on one machine):
//
//	flowgo-agent -addr 127.0.0.1:8081 -name fog1 -cores 1 &
//	flowgo-agent -addr 127.0.0.1:8082 -name cloud1 -cores 8 &
//	flowgo-agent -addr 127.0.0.1:8080 -name origin -cores 2 \
//	    -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Then submit work with flowgo-submit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/obsv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flowgo-agent:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		name        = flag.String("name", "", "agent name (default: listen address)")
		cores       = flag.Int("cores", 2, "local worker count")
		peers       = flag.String("peers", "", "comma-separated peer base URLs")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address")
	)
	flag.Parse()

	cfg := agent.Config{
		Name:     *name,
		Cores:    *cores,
		Addr:     *addr,
		Registry: demoRegistry(),
	}
	if *metricsAddr != "" {
		cfg.Metrics = obsv.NewRegistry()
	}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	a, err := agent.New(cfg)
	if err != nil {
		return err
	}
	defer a.Close()
	fmt.Printf("agent %s listening on %s (cores=%d peers=%d)\n",
		a.Name(), a.URL(), *cores, len(cfg.Peers))
	if *metricsAddr != "" {
		bound, shutdown, err := obsv.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer func() { _ = shutdown() }()
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

// demoRegistry provides the functions every agent of the demo application
// can execute ("each agent … can execute the same application code").
func demoRegistry() *agent.Registry {
	reg := agent.NewRegistry()
	reg.Register("echo", func(args []json.RawMessage) (json.RawMessage, error) {
		return json.Marshal(args)
	})
	reg.Register("square", func(args []json.RawMessage) (json.RawMessage, error) {
		var x float64
		if len(args) != 1 || json.Unmarshal(args[0], &x) != nil {
			return nil, errors.New("square wants one number")
		}
		return json.Marshal(x * x)
	})
	reg.Register("sleep", func(args []json.RawMessage) (json.RawMessage, error) {
		var ms int
		if len(args) != 1 || json.Unmarshal(args[0], &ms) != nil || ms < 0 {
			return nil, errors.New("sleep wants one non-negative millisecond count")
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return json.Marshal(fmt.Sprintf("slept %dms", ms))
	})
	reg.Register("montecarlo-pi", func(args []json.RawMessage) (json.RawMessage, error) {
		var n int
		if len(args) != 1 || json.Unmarshal(args[0], &n) != nil || n <= 0 {
			return nil, errors.New("montecarlo-pi wants a positive sample count")
		}
		// Deterministic low-discrepancy sampling (additive recurrence) so
		// results are reproducible across agents.
		const phi = 0.6180339887498949
		const phi2 = 0.7548776662466927
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
