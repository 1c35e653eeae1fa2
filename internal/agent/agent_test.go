package agent

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

// testRegistry registers square (x²) and slowEcho.
func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("square", func(args []json.RawMessage) (json.RawMessage, error) {
		var x float64
		if len(args) != 1 || json.Unmarshal(args[0], &x) != nil {
			return nil, errors.New("square wants one number")
		}
		return json.Marshal(x * x)
	})
	reg.Register("slow", func(args []json.RawMessage) (json.RawMessage, error) {
		time.Sleep(50 * time.Millisecond)
		return json.Marshal("done")
	})
	reg.Register("boom", func(args []json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("kaboom")
	})
	return reg
}

// offload is what RunAnywhere does once it chose to offload.
func offload(a *Agent, name string, args []json.RawMessage) (json.RawMessage, error) {
	return a.offload(a.rankPeers(), name, args)
}

func startAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testRegistry()
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

// eventually polls cond until it holds; the tests use it to wait for
// agent state that no channel announces.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func arg(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRunLocal(t *testing.T) {
	a := startAgent(t, Config{Name: "solo"})
	res, err := a.RunLocal("square", []json.RawMessage{arg(t, 7)})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	if err := json.Unmarshal(res, &got); err != nil || got != 49 {
		t.Fatalf("result = %s (%v)", res, err)
	}
}

func TestRunLocalUnknownFunc(t *testing.T) {
	a := startAgent(t, Config{})
	if _, err := a.RunLocal("ghost", nil); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLocalTaskError(t *testing.T) {
	a := startAgent(t, Config{})
	if _, err := a.RunLocal("boom", nil); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestRESTTaskLifecycle(t *testing.T) {
	a := startAgent(t, Config{Name: "rest"})
	body := strings.NewReader(`{"name":"square","args":[3]}`)
	resp, err := http.Post(a.URL()+"/task", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st TaskStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("no task ID")
	}
	// Poll until done.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r2, err := http.Get(a.URL() + "/task/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur TaskStatus
		if err := json.NewDecoder(r2.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		_ = r2.Body.Close()
		if cur.State == StateDone {
			var got float64
			if err := json.Unmarshal(cur.Result, &got); err != nil || got != 9 {
				t.Fatalf("result = %s", cur.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in state %s", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRESTRejectsUnknownFunction(t *testing.T) {
	a := startAgent(t, Config{})
	resp, err := http.Post(a.URL()+"/task", "application/json", strings.NewReader(`{"name":"ghost"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHealthEndpoint(t *testing.T) {
	a := startAgent(t, Config{Name: "h", Cores: 3})
	resp, err := http.Get(a.URL() + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Name != "h" || h.Cores != 3 || h.Busy != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestResourcesEndpointAddsCores(t *testing.T) {
	a := startAgent(t, Config{Cores: 1})
	resp, err := http.Post(a.URL()+"/resources", "application/json", strings.NewReader(`{"addCores":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cores != 3 {
		t.Fatalf("cores = %d, want 3", h.Cores)
	}
}

func TestOffloadToLeastLoadedPeer(t *testing.T) {
	reg := testRegistry()
	peerA := startAgent(t, Config{Name: "peerA", Registry: reg, Cores: 1})
	peerB := startAgent(t, Config{Name: "peerB", Registry: reg, Cores: 4})
	// Load peerA so peerB is clearly less loaded.
	for i := 0; i < 3; i++ {
		if _, err := peerA.enqueue(TaskRequest{Name: "slow"}); err != nil {
			t.Fatal(err)
		}
	}
	origin := startAgent(t, Config{Name: "origin", Registry: reg,
		Peers: []string{peerA.URL(), peerB.URL()}})
	res, err := offload(origin, "square", []json.RawMessage{arg(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	if err := json.Unmarshal(res, &got); err != nil || got != 25 {
		t.Fatalf("offload result = %s", res)
	}
}

func TestOffloadRecoversFromPeerLoss(t *testing.T) {
	reg := testRegistry()

	dying := startAgent(t, Config{Name: "dying", Registry: reg, Cores: 1})
	// The dying agent runs "slow" tasks; kill it while the offloaded task
	// is in flight.
	survivor := startAgent(t, Config{Name: "survivor", Registry: reg, Cores: 2})
	origin := startAgent(t, Config{Name: "origin", Registry: reg,
		Peers: []string{dying.URL(), survivor.URL()}})

	// Make "dying" the least loaded (survivor busy) so the offload goes
	// there first.
	for i := 0; i < 8; i++ {
		if _, err := survivor.enqueue(TaskRequest{Name: "slow"}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var res json.RawMessage
	var offErr error
	go func() {
		defer wg.Done()
		res, offErr = offload(origin, "slow", nil)
	}()
	time.Sleep(20 * time.Millisecond) // let the task land on "dying"
	dying.Close()                     // peer disappears mid-task
	wg.Wait()

	if offErr != nil {
		t.Fatalf("offload after peer loss failed: %v", offErr)
	}
	var got string
	if err := json.Unmarshal(res, &got); err != nil || got != "done" {
		t.Fatalf("result = %s", res)
	}
	if origin.Recoveries() == 0 {
		t.Fatal("no recovery recorded despite peer loss")
	}
}

func TestOffloadDoesNotMaskTaskFailure(t *testing.T) {
	reg := testRegistry()
	peer := startAgent(t, Config{Name: "peer", Registry: reg})
	origin := startAgent(t, Config{Name: "o", Registry: reg, Peers: []string{peer.URL()}})
	if _, err := offload(origin, "boom", nil); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want remote kaboom", err)
	}
	if origin.Recoveries() != 0 {
		t.Fatal("task failure must not count as peer loss")
	}
}

func TestOffloadWithoutPeersRunsLocally(t *testing.T) {
	a := startAgent(t, Config{})
	res, err := offload(a, "square", []json.RawMessage{arg(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	if err := json.Unmarshal(res, &got); err != nil || got != 16 {
		t.Fatalf("result = %s", res)
	}
}

func TestRunAnywherePrefersIdleLocal(t *testing.T) {
	reg := testRegistry()
	peer := startAgent(t, Config{Name: "peer", Registry: reg, Cores: 1})
	// Load the peer.
	for i := 0; i < 4; i++ {
		if _, err := peer.enqueue(TaskRequest{Name: "slow"}); err != nil {
			t.Fatal(err)
		}
	}
	local := startAgent(t, Config{Name: "local", Registry: reg, Cores: 2, Peers: []string{peer.URL()}})
	start := time.Now()
	if _, err := local.RunAnywhere("square", []json.RawMessage{arg(t, 2)}); err != nil {
		t.Fatal(err)
	}
	// Running locally avoids the peer's ~200ms backlog.
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("RunAnywhere took %v: apparently queued behind the busy peer", elapsed)
	}
}

func TestCloseIsIdempotentAndStopsSubmissions(t *testing.T) {
	a := startAgent(t, Config{})
	a.Close()
	a.Close()
	if _, err := a.enqueue(TaskRequest{Name: "square"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close = %v", err)
	}
}

// TestRunLocalBlocksOnTheSignal: RunLocal returns when the worker signals
// completion, whatever the poll interval — that knob only paces waits on
// peers now.
func TestRunLocalBlocksOnTheSignal(t *testing.T) {
	reg := testRegistry()
	reg.Register("nap", func([]json.RawMessage) (json.RawMessage, error) {
		time.Sleep(10 * time.Millisecond)
		return json.Marshal("rested")
	})
	a := startAgent(t, Config{Registry: reg, PollInterval: time.Hour})
	got := make(chan error, 1)
	go func() {
		res, err := a.RunLocal("nap", nil)
		if err == nil && string(res) != `"rested"` {
			err = fmt.Errorf("result = %s", res)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("RunLocal of a 10ms function still waiting after 1s: it is sleeping, not signalled")
	}
}

// TestAwaitParkedAndLateWaiters: the completion signal has no lost
// wake-up. A waiter parked before the task finishes is woken by it, and a
// waiter arriving after it finished returns at once without a signal ever
// having been made.
func TestAwaitParkedAndLateWaiters(t *testing.T) {
	reg := testRegistry()
	gate := make(chan struct{})
	reg.Register("gated", func([]json.RawMessage) (json.RawMessage, error) {
		<-gate
		return json.Marshal("through")
	})
	a := startAgent(t, Config{Registry: reg})

	parked, err := a.enqueue(TaskRequest{Name: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		res, err := a.await(parked)
		got <- fmt.Sprint(string(res), err)
	}()
	eventually(t, "the waiter left its signal on the running task", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return parked.done != nil && parked.status.State == StateRunning
	})
	close(gate)
	if out := <-got; out != `"through"<nil>` {
		t.Fatalf("parked waiter got %s", out)
	}

	late, err := a.enqueue(TaskRequest{Name: "square", Args: []json.RawMessage{arg(t, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the task finished with nobody waiting", func() bool {
		st, _ := a.Status(late.status.ID)
		return st.State == StateDone
	})
	if res, err := a.await(late); err != nil || string(res) != "9" {
		t.Fatalf("late waiter got %s %v", res, err)
	}
	if late.done != nil {
		t.Fatal("a signal was made for a task that had already finished")
	}
}

// TestRunAnywhereProbesEachPeerOnce: one offloaded call costs one GET
// /health per peer — the ranking RunAnywhere decided on is the ranking
// the offload uses.
func TestRunAnywhereProbesEachPeerOnce(t *testing.T) {
	reg := testRegistry()
	served := obsv.NewRegistry() // shared, so the peers' counters add up
	var peers []string
	for i := 0; i < 3; i++ {
		p := startAgent(t, Config{Name: fmt.Sprintf("peer%d", i), Registry: reg, Cores: 4, Metrics: served})
		peers = append(peers, p.URL())
	}
	origin := startAgent(t, Config{Name: "origin", Registry: reg, Cores: 1, Peers: peers, Metrics: obsv.NewRegistry()})
	// A 1-core origin with a backlog facing idle 4-core peers offloads.
	for i := 0; i < 2; i++ {
		if _, err := origin.enqueue(TaskRequest{Name: "slow"}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := origin.RunAnywhere("square", []json.RawMessage{arg(t, 6)})
	if err != nil || string(res) != "36" {
		t.Fatalf("RunAnywhere = %s %v", res, err)
	}
	if n := origin.met.offloads.Value(); n != 1 {
		t.Fatalf("offloads = %d, want 1: the call did not take the offload path", n)
	}
	probes := served.Counter("flowgo_agent_http_requests_total", "", obsv.Labels("endpoint", "health")).Value()
	if probes != 3 {
		t.Fatalf("an offloaded RunAnywhere cost %d GET /health over 3 peers, want 3", probes)
	}
}

func TestManyConcurrentLocalTasks(t *testing.T) {
	a := startAgent(t, Config{Cores: 4})
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := a.RunLocal("square", []json.RawMessage{arg(t, float64(i))})
			if err != nil {
				errs[i] = err
				return
			}
			var got float64
			if err := json.Unmarshal(res, &got); err != nil || got != float64(i*i) {
				errs[i] = fmt.Errorf("bad result %s for %d", res, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTasksListingEndpoint(t *testing.T) {
	a := startAgent(t, Config{Name: "lister"})
	for i := 0; i < 3; i++ {
		if _, err := a.RunLocal("square", []json.RawMessage{arg(t, float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(a.URL() + "/tasks")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var list []TaskStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d tasks, want 3", len(list))
	}
	for _, st := range list {
		if st.State != StateDone {
			t.Fatalf("task %s in state %s", st.ID, st.State)
		}
		if st.Result != nil {
			t.Fatal("listing should elide results")
		}
	}
}
