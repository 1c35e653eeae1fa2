package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/obsv"
)

// agentWindows is how many measuring windows a run's time is divided into;
// each yields one sample of every agent-http metric.
const agentWindows = 5

func echo(args []json.RawMessage) (json.RawMessage, error) {
	if len(args) == 0 {
		return json.RawMessage("null"), nil
	}
	return args[0], nil
}

// agentCallers is the closed loop's width: two callers, each waiting for its
// reply before sending the next request — but never more client goroutines
// than there are processors to run them.
func agentCallers() int { return min(2, runtime.GOMAXPROCS(0)) }

// agentWindow is what one measuring window observed.
type agentWindow struct {
	sec     section
	lat     []time.Duration // Client.Run round trips
	submits []time.Duration // traced windows: the two halves of a round trip
	waits   []time.Duration
	failed  int // replies that failed or differed from their payload
}

// agentLoad runs the closed loop against url for the given time and checks
// every reply against its payload.
func (b *bench) agentLoad(sp *spanRec, url string, ring []json.RawMessage, window time.Duration) agentWindow {
	callers := agentCallers()
	per := make([]agentWindow, callers)
	client := agent.NewClient(2*time.Second, agentPoll)
	root := sp.begin("rep", 0)
	var w agentWindow
	w.sec = timeSection(func() {
		deadline := time.Now().Add(window)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				mine := &per[c]
				for i := c; time.Now().Before(deadline); i += callers {
					payload := ring[i%len(ring)]
					args := []json.RawMessage{payload}
					t0 := time.Now()
					var reply json.RawMessage
					var err error
					if sp == nil {
						reply, err = client.Run(url, "echo", args)
					} else {
						// The same two calls Client.Run makes, each under
						// its own span.
						var id string
						s := sp.begin("Client.Submit", root)
						id, err = client.Submit(url, "echo", args)
						sp.end(s)
						mine.submits = append(mine.submits, time.Since(t0))
						if err == nil {
							t1 := time.Now()
							s = sp.begin("Client.Wait", root)
							reply, err = client.Wait(url, id)
							sp.end(s)
							mine.waits = append(mine.waits, time.Since(t1))
						}
					}
					mine.lat = append(mine.lat, time.Since(t0))
					if err != nil || !bytes.Equal(reply, payload) {
						mine.failed++
					}
				}
			}(c)
		}
		wg.Wait()
	})
	sp.end(root)
	for _, p := range per {
		w.lat = append(w.lat, p.lat...)
		w.submits = append(w.submits, p.submits...)
		w.waits = append(w.waits, p.waits...)
		w.failed += p.failed
	}
	b.attempt(len(w.lat))
	b.failf(w.failed, "%d of %d echo replies failed or differed from their payload", w.failed, len(w.lat))
	return w
}

func runAgentHTTP(b *bench) {
	window := time.Duration(6 * b.scale * float64(time.Second))
	windows := b.reps
	if b.seconds > 0 {
		window = time.Duration(b.seconds / agentWindows * float64(time.Second))
		windows = agentWindows
	}
	if b.trace {
		windows = traceArms
	}

	var ring []json.RawMessage
	var ag *agent.Agent
	var reg *obsv.Registry
	start := func() {
		if ag != nil {
			ag.Close()
		}
		ring = agentPayloadRing(b.seed)
		funcs := agent.NewRegistry()
		funcs.Register("echo", echo)
		reg = nil
		if b.trace {
			reg = obsv.NewRegistry()
		}
		var err error
		ag, err = agent.New(agent.Config{Name: "bench", Cores: agentCores, Registry: funcs, PollInterval: agentPoll, Metrics: reg})
		if err != nil {
			b.failf(1, "agent: %v", err)
			ag = nil
		}
	}
	b.setUp(func() {
		start()
		if ag != nil {
			b.agentLoad(nil, ag.URL(), ring, window/10)
		}
	})
	if ag == nil {
		return
	}
	defer ag.Close()

	var wins []agentWindow
	for i := 0; i < windows; i++ {
		sp := b.armSpans(i)
		wins = append(wins, b.agentLoad(sp, ag.URL(), ring, window))
	}

	var perS, allocs, bytesPer, p50, p99, p999, cost []float64
	for i, w := range wins {
		n := float64(len(w.lat))
		cost = append(cost, w.sec.wall.Seconds()/n)
		if !b.endToEndSample(i) {
			continue
		}
		perS = append(perS, n/w.sec.wall.Seconds())
		allocs = append(allocs, float64(w.sec.mallocs)/n)
		bytesPer = append(bytesPer, float64(w.sec.bytes)/n)
		us := durationsUS(w.lat)
		p50 = append(p50, quantile(us, 0.50))
		p99 = append(p99, quantile(us, 0.99))
		p999 = append(p999, quantile(us, 0.999))
	}
	b.setMedian("tasks_per_s", perS)
	b.setMedian("allocs_per_task", allocs)
	b.setMedian("bytes_per_task", bytesPer)
	b.setMedian("op_p50_us", p50)
	b.setMedian("agent.http_p50_us", p50)
	b.setMedian("agent.http_p99_us", p99)
	b.setMedian("agent.http_p999_us", p999)
	b.note("op_samples", float64(len(wins[0].lat)))
	b.note("callers", float64(agentCallers()))

	b.setTraceOverhead(cost, false)
	if b.trace {
		tr := wins[tracedArm]
		b.set("agent.submit_p50_us", median(durationsUS(tr.submits)))
		b.set("agent.wait_p50_us", median(durationsUS(tr.waits)))
		// Polls per request over everything this agent served (both windows
		// and the warm-up): status reads / task posts.
		posts := registrySum(reg, `flowgo_agent_http_requests_total{endpoint="task"}`)
		gets := registrySum(reg, `flowgo_agent_http_requests_total{endpoint="task-status"}`)
		b.set("agent.polls_per_req", ratio(gets, posts))

		// The agent's own queue without HTTP. RunLocal waits with a poll
		// sleep of its own, so this is floored by timer granularity.
		local := make([]time.Duration, 0, scaled(replayOps/50, b.scale, 20))
		id := b.spans.begin("replay.agent.RunLocal", 0)
		for i := 0; i < cap(local); i++ {
			payload := ring[i%len(ring)]
			t0 := time.Now()
			reply, err := ag.RunLocal("echo", []json.RawMessage{payload})
			local = append(local, time.Since(t0))
			b.check(err == nil && bytes.Equal(reply, payload), "RunLocal reply differs from its payload (err %v)", err)
		}
		b.spans.end(id)
		b.set("agent.runlocal_p50_us", median(durationsUS(local)))
		// A round trip is the two client calls; what they do not cover of
		// the callers' time is the load generator's own loop.
		var explained, busy time.Duration
		for i := range tr.submits {
			explained += tr.submits[i]
		}
		for i := range tr.waits {
			explained += tr.waits[i]
		}
		busy = tr.sec.wall * time.Duration(agentCallers())
		b.set("attrib.share", ratio(explained.Seconds(), busy.Seconds()))
		b.set("attrib.unexplained_s", (busy - explained).Seconds())
	}
}
