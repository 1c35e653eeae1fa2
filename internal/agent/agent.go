// Package agent implements the fog-to-cloud deployment of the runtime
// (paper Sec. VI-B, Figs. 5–6): "The runtime is deployed as a microservice
// … Each Agent is independent of the other and can execute the same
// application code acting as a worker whenever needed. The application is
// instantiated as a service and listens for execution requests submitted to
// the REST API."
//
// Agents are plain net/http servers (the paper's Docker/Kubernetes
// packaging is orthogonal). An agent executes tasks locally
// on a bounded worker pool and can offload to peer agents over REST
// (fog-to-fog, fog-to-cloud). A peer's disappearance is survivable: the
// offloading call still holds the request and simply resubmits it
// elsewhere (experiment E7); there is no persist step.
package agent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Errors returned by agent operations.
var (
	// ErrUnknownFunc is returned for unregistered function names.
	ErrUnknownFunc = errors.New("agent: unknown function")
	// ErrPeerLost is returned when a peer stops answering mid-task.
	ErrPeerLost = errors.New("agent: peer lost")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("agent: closed")
	// ErrTaskPanic is the failure of a task whose function panicked; the
	// error wraps it together with the recovered value.
	ErrTaskPanic = errors.New("agent: task function panicked")
)

// Front-door limits. Every exchange of the protocol is one small JSON
// document answered at once (tasks run asynchronously), so a peer that
// takes longer than these is broken or hostile. The header timeout
// matches the 2s the agents' own clients allow a whole request.
const (
	maxBodyBytes      = 16 << 20
	maxHeaderBytes    = 64 << 10
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = time.Minute
	// closeDeadline bounds Close: what is still open or running when it
	// expires is abandoned, not waited for.
	closeDeadline = time.Second
	// maxWorkers caps the worker pool POST /resources can grow.
	maxWorkers = 1024
	// retainFinished finished tasks stay pollable (in-flight ones always
	// are); an older ID answers 404 like one the agent never issued.
	retainFinished = 4096
)

// Func is an agent-executable function: JSON in, JSON out, so the same
// registration works in-process and across the REST boundary.
type Func func(args []json.RawMessage) (json.RawMessage, error)

// Registry maps function names to implementations. Every agent of an
// application registers the same code ("each agent … can execute the same
// application code"). Registry is safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Func)}
}

// Register adds a function; re-registration replaces.
func (r *Registry) Register(name string, fn Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = fn
}

// Lookup resolves a function.
func (r *Registry) Lookup(name string) (Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	return fn, ok
}

// call runs the named function, turning a panic into an ordinary task
// failure: one bad function must not take the agent and its queue down.
func (r *Registry) call(name string, args []json.RawMessage) (result json.RawMessage, err error) {
	fn, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFunc, name)
	}
	defer func() {
		if p := recover(); p != nil {
			result, err = nil, fmt.Errorf("%w: %v", ErrTaskPanic, p)
		}
	}()
	return fn(args)
}

// Task states reported by the REST API.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// TaskRequest is the POST /task body.
type TaskRequest struct {
	Name string            `json:"name"`
	Args []json.RawMessage `json:"args"`
}

// TaskStatus is the GET /task/{id} response.
type TaskStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Health is the GET /health response, consumed by peers for load-aware
// offloading.
type Health struct {
	Name   string `json:"name"`
	Cores  int    `json:"cores"`
	Busy   int    `json:"busy"`
	Queued int    `json:"queued"`
}

// Load is the offload score: queued + busy per core.
func (h Health) Load() float64 {
	if h.Cores <= 0 {
		return 1e9
	}
	return float64(h.Busy+h.Queued) / float64(h.Cores)
}

// Config assembles an agent.
type Config struct {
	// Name identifies the agent (defaults to the listen address).
	Name string
	// Cores bounds local concurrency (default 2).
	Cores int
	// Registry supplies the executable functions. Required.
	Registry *Registry
	// Peers are base URLs of other agents (can be set later).
	Peers []string
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// PollInterval tunes offload polling (default 5ms).
	PollInterval time.Duration
	// Metrics, when set, receives agent instruments (queue depth, busy
	// workers, executed/failed tasks, offloads, per-endpoint request
	// counts). Serve it with obsv.Serve for a Prometheus endpoint.
	Metrics *obsv.Registry
}

type agentTask struct {
	req    TaskRequest
	status TaskStatus
	// done is the completion signal: the worker closes it, once, when
	// the status turns done or failed. The first waiter makes it (see
	// await), so a task that is only polled over REST never has one.
	done chan struct{}
}

// Agent is one runtime microservice.
type Agent struct {
	cfg    Config
	srv    *http.Server
	lis    net.Listener
	client *Client // speaks to peers; its waits abort on quit

	mu       sync.Mutex
	tasks    map[string]*agentTask // in flight + the finished ring
	queue    []*agentTask
	finished []*agentTask // ring of the last retainFinished finished tasks
	head     int          // next ring slot to overwrite
	busy     int
	serial   int
	peers    []string
	closed   bool

	recoveries atomic.Int64 // offloads re-run after a peer loss

	met metrics

	wake *sync.Cond    // on mu: the queue grew, or closed was set
	quit chan struct{} // closed by Close: releases in-process and peer waits
	wg   sync.WaitGroup
}

// New starts an agent listening on cfg.Addr.
func New(cfg Config) (*Agent, error) {
	if cfg.Registry == nil {
		return nil, errors.New("agent: registry is required")
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("agent listen: %w", err)
	}
	if cfg.Name == "" {
		cfg.Name = lis.Addr().String()
	}
	a := &Agent{
		cfg:      cfg,
		lis:      lis,
		client:   NewClient(2*time.Second, cfg.PollInterval),
		tasks:    make(map[string]*agentTask),
		finished: make([]*agentTask, retainFinished),
		peers:    append([]string(nil), cfg.Peers...),
		quit:     make(chan struct{}),
	}
	a.met = newMetrics(cfg.Metrics, a)
	a.wake = sync.NewCond(&a.mu)
	a.client.quit = a.quit
	mux := http.NewServeMux()
	// The mux answers a wrong method 405, except that it would redirect
	// GET /task to /task/ (a 404): that one is routed to its 405 by hand.
	mux.HandleFunc("POST /task", counted(cfg.Metrics, "task", a.handleTask))
	mux.HandleFunc("GET /task", counted(cfg.Metrics, "task", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
	}))
	mux.HandleFunc("GET /task/", counted(cfg.Metrics, "task-status", a.handleTaskStatus))
	mux.HandleFunc("GET /tasks", counted(cfg.Metrics, "tasks", a.handleTasks))
	mux.HandleFunc("/health", counted(cfg.Metrics, "health", a.handleHealth))
	mux.HandleFunc("POST /resources", counted(cfg.Metrics, "resources", a.handleResources))
	a.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		_ = a.srv.Serve(lis)
	}()
	for i := 0; i < cfg.Cores; i++ {
		a.wg.Add(1)
		go a.worker()
	}
	return a, nil
}

// URL returns the agent's base URL.
func (a *Agent) URL() string { return "http://" + a.lis.Addr().String() }

// Name returns the agent name.
func (a *Agent) Name() string { return a.cfg.Name }

// SetPeers replaces the peer list at execution time.
func (a *Agent) SetPeers(urls []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.peers = append([]string(nil), urls...)
}

// Recoveries reports how many offloaded tasks were recovered after peer
// loss.
func (a *Agent) Recoveries() int { return int(a.recoveries.Load()) }

// Close stops the HTTP server and the workers within closeDeadline. Queued
// tasks are abandoned and callers blocked in RunLocal or RunAnywhere
// return ErrClosed; a connection still open at the deadline is dropped, a
// function still running then finishes on its own.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.wake.Broadcast()
	a.mu.Unlock()
	close(a.quit)
	ctx, cancel := context.WithTimeout(context.Background(), closeDeadline)
	defer cancel()
	if err := a.srv.Shutdown(ctx); err != nil {
		_ = a.srv.Close() // already past the deadline: nothing left to do with a second error
	}
	// The workers get what is left of the same deadline.
	go func() { a.wg.Wait(); cancel() }()
	<-ctx.Done()
}

// --- local execution ---

// worker executes queued tasks, one at a time per core, until Close.
func (a *Agent) worker() {
	defer a.wg.Done()
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		for len(a.queue) == 0 && !a.closed {
			a.wake.Wait()
		}
		if a.closed {
			return
		}
		t := a.queue[0]
		a.queue = a.queue[1:]
		t.status.State = StateRunning
		a.busy++
		a.mu.Unlock()

		started := time.Now()
		result, err := a.cfg.Registry.call(t.req.Name, t.req.Args)
		a.met.execSeconds.ObserveDuration(time.Since(started))

		a.mu.Lock()
		if err != nil {
			t.status.State = StateFailed
			t.status.Error = err.Error()
			a.met.failed.Inc()
		} else {
			t.status.State = StateDone
			t.status.Result = result
			a.met.executed.Inc()
		}
		a.busy--
		if old := a.finished[a.head]; old != nil {
			delete(a.tasks, old.status.ID)
		}
		a.finished[a.head] = t
		a.head = (a.head + 1) % len(a.finished)
		if t.done != nil {
			close(t.done)
		}
	}
}

// enqueue registers a task locally and wakes a worker.
func (a *Agent) enqueue(req TaskRequest) (*agentTask, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, ErrClosed
	}
	a.serial++
	id := fmt.Sprintf("%s-t%d", a.cfg.Name, a.serial)
	t := &agentTask{req: req, status: TaskStatus{ID: id, State: StateQueued}}
	a.tasks[id] = t
	a.queue = append(a.queue, t)
	a.wake.Signal()
	return t, nil
}

// Status returns the status of a local task.
func (a *Agent) Status(id string) (TaskStatus, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tasks[id]
	if !ok {
		return TaskStatus{}, false
	}
	return t.status, true
}

// health snapshots load.
func (a *Agent) health() Health {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Health{Name: a.cfg.Name, Cores: a.cfg.Cores, Busy: a.busy, Queued: len(a.queue)}
}

// --- HTTP handlers (the REST interface of Fig. 6) ---

func (a *Agent) handleTask(w http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	if !readJSON(w, r, &req) {
		return
	}
	if _, ok := a.cfg.Registry.Lookup(req.Name); !ok {
		http.Error(w, fmt.Sprintf("unknown function %q", req.Name), http.StatusNotFound)
		return
	}
	t, err := a.enqueue(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// Not t.status: a worker may already be writing it.
	writeJSON(w, TaskStatus{ID: t.status.ID, State: StateQueued})
}

func (a *Agent) handleTaskStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := a.Status(strings.TrimPrefix(r.URL.Path, "/task/"))
	if !ok {
		http.Error(w, "unknown task", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.health())
}

// handleTasks lists every retained task's status — the monitoring surface the
// paper's interactivity/steering goals require ("monitoring, streaming and
// visualization of the scientific results", Sec. I). Results are elided to
// keep the listing small; fetch them per-task.
func (a *Agent) handleTasks(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	out := make([]TaskStatus, 0, len(a.tasks))
	for _, t := range a.tasks {
		st := t.status
		st.Result = nil
		out = append(out, st)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, out)
}

// handleResources updates local capacity at execution time ("the set of
// available resources can be updated through the REST API").
func (a *Agent) handleResources(w http.ResponseWriter, r *http.Request) {
	var req struct {
		AddCores int `json:"addCores"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	a.mu.Lock()
	// The bound is a subtraction so a huge addCores cannot overflow it; a
	// closed agent (Close is waiting on wg) takes no new workers either.
	ok := req.AddCores > 0 && req.AddCores <= maxWorkers-a.cfg.Cores && !a.closed
	if ok {
		a.cfg.Cores += req.AddCores
		for i := 0; i < req.AddCores; i++ {
			a.wg.Add(1)
			go a.worker()
		}
	}
	a.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("addCores must be positive and keep the agent within %d cores", maxWorkers), http.StatusBadRequest)
		return
	}
	writeJSON(w, a.health())
}

// readJSON decodes a POST body of at most maxBodyBytes into v; a body that
// does not parse is answered 400 here and reported as false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return err == nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
