// Package agent implements the fog-to-cloud deployment of the runtime
// (paper Sec. VI-B, Figs. 5–6): "The runtime is deployed as a microservice
// … Each Agent is independent of the other and can execute the same
// application code acting as a worker whenever needed. The application is
// instantiated as a service and listens for execution requests submitted to
// the REST API."
//
// Agents are plain net/http servers (the paper's Docker/Kubernetes
// packaging is orthogonal — DESIGN.md §4). An agent executes tasks locally
// on a bounded worker pool, can offload to peer agents over REST
// (fog-to-fog, fog-to-cloud), and persists task arguments to a dataClay
// store before offloading so that a peer's disappearance is survivable:
// the task is simply resubmitted elsewhere (experiment E7).
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
	"time"

	"repro/internal/obsv"
	"repro/internal/storage/dataclay"
)

// Errors returned by agent operations.
var (
	// ErrUnknownFunc is returned for unregistered function names.
	ErrUnknownFunc = errors.New("agent: unknown function")
	// ErrPeerLost is returned when a peer stops answering mid-task.
	ErrPeerLost = errors.New("agent: peer lost")
	// ErrNoCapacity is returned when no executor (local or peer) accepts.
	ErrNoCapacity = errors.New("agent: no capacity anywhere")
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
)

// Func is an agent-executable function: JSON in, JSON out, so the same
// registration works in-process and across the REST boundary.
type Func func(args []json.RawMessage) (json.RawMessage, error)

// call runs fn, turning a panic into an ordinary task failure: one bad
// function must not take the agent (and every queued task) down.
func (fn Func) call(args []json.RawMessage) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("%w: %v", ErrTaskPanic, r)
		}
	}()
	return fn(args)
}

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
	// Store is the shared dataClay store for persist-before-offload.
	// Optional: without it, offloaded work cannot be recovered.
	Store *dataclay.Store
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
	id     string
	req    TaskRequest
	status TaskStatus
}

// Agent is one runtime microservice.
type Agent struct {
	cfg    Config
	srv    *http.Server
	lis    net.Listener
	client *http.Client

	mu     sync.Mutex
	tasks  map[string]*agentTask
	queue  []*agentTask
	busy   int
	serial int
	peers  []string
	closed bool

	recoveries int // offloads re-run after a peer loss

	met metrics

	work chan struct{} // worker wake-up tokens
	quit chan struct{}
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
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 5 * time.Millisecond
	}
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("agent listen: %w", err)
	}
	if cfg.Name == "" {
		cfg.Name = lis.Addr().String()
	}
	a := &Agent{
		cfg:    cfg,
		lis:    lis,
		client: &http.Client{Timeout: 2 * time.Second},
		tasks:  make(map[string]*agentTask),
		peers:  append([]string(nil), cfg.Peers...),
		met:    newMetrics(cfg.Metrics),
		work:   make(chan struct{}, 4096),
		quit:   make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/task", counted(cfg.Metrics, "task", a.handleTask))
	mux.HandleFunc("/task/", counted(cfg.Metrics, "task-status", a.handleTaskStatus))
	mux.HandleFunc("/tasks", counted(cfg.Metrics, "tasks", a.handleTasks))
	mux.HandleFunc("/health", counted(cfg.Metrics, "health", a.handleHealth))
	mux.HandleFunc("/resources", counted(cfg.Metrics, "resources", a.handleResources))
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
func (a *Agent) Recoveries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recoveries
}

// Close stops the HTTP server and the workers. Queued tasks are abandoned.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.quit)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = a.srv.Shutdown(ctx)
	a.wg.Wait()
}

// --- local execution ---

// worker executes queued tasks, one at a time per core.
func (a *Agent) worker() {
	defer a.wg.Done()
	for {
		select {
		case <-a.quit:
			return
		case <-a.work:
		}
		a.mu.Lock()
		if len(a.queue) == 0 {
			a.mu.Unlock()
			continue
		}
		t := a.queue[0]
		a.queue = a.queue[1:]
		t.status.State = StateRunning
		a.busy++
		a.mu.Unlock()
		a.met.queued.Add(-1)
		a.met.busy.Add(1)

		started := time.Now()
		fn, ok := a.cfg.Registry.Lookup(t.req.Name)
		var result json.RawMessage
		var err error
		if !ok {
			err = fmt.Errorf("%w: %s", ErrUnknownFunc, t.req.Name)
		} else {
			result, err = fn.call(t.req.Args)
		}
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
		a.mu.Unlock()
		a.met.busy.Add(-1)
	}
}

// enqueue registers a task locally and wakes a worker.
func (a *Agent) enqueue(req TaskRequest) (string, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return "", ErrClosed
	}
	a.serial++
	id := fmt.Sprintf("%s-t%d", a.cfg.Name, a.serial)
	t := &agentTask{id: id, req: req, status: TaskStatus{ID: id, State: StateQueued}}
	a.tasks[id] = t
	a.queue = append(a.queue, t)
	a.mu.Unlock()
	a.met.queued.Add(1)
	select {
	case a.work <- struct{}{}:
	default:
	}
	return id, nil
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req TaskRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, ok := a.cfg.Registry.Lookup(req.Name); !ok {
		http.Error(w, fmt.Sprintf("unknown function %q", req.Name), http.StatusNotFound)
		return
	}
	id, err := a.enqueue(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, TaskStatus{ID: id, State: StateQueued})
}

func (a *Agent) handleTaskStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/task/")
	st, ok := a.Status(id)
	if !ok {
		http.Error(w, "unknown task", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.health())
}

// handleTasks lists every task's status — the monitoring surface the
// paper's interactivity/steering goals require ("monitoring, streaming and
// visualization of the scientific results", Sec. I). Results are elided to
// keep the listing small; fetch them per-task.
func (a *Agent) handleTasks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		AddCores int `json:"addCores"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.AddCores <= 0 {
		http.Error(w, "addCores must be positive", http.StatusBadRequest)
		return
	}
	a.mu.Lock()
	a.cfg.Cores += req.AddCores
	n := req.AddCores
	a.mu.Unlock()
	for i := 0; i < n; i++ {
		a.wg.Add(1)
		go a.worker()
	}
	writeJSON(w, a.health())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
