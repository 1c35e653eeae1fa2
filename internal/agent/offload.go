package agent

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/storage/dataclay"
)

// taskBlobClass is the dataClay class used to persist offloaded task
// requests (persist-before-offload, paper Sec. VI-B: "whenever a task is
// submitted to a remote agent, the COMPSs runtime persists any
// not-yet-persisted object passed in as a parameter of the task").
const taskBlobClass = "agent.taskblob"

// RegisterBlobClass registers the task-persistence class on a store. Safe
// to call more than once.
func RegisterBlobClass(store *dataclay.Store) {
	store.RegisterClass(dataclay.Class{
		Name:    taskBlobClass,
		Methods: map[string]dataclay.Method{},
		Size: func(state any) int64 {
			raw, _ := state.([]byte) // anything else has no size: len(nil) is 0
			return int64(len(raw))
		},
	})
}

// persistRequest stores the request payload and returns the object ID.
func (a *Agent) persistRequest(req TaskRequest) (dataclay.ObjectID, error) {
	if a.cfg.Store == nil {
		return "", nil
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("persist request: %w", err)
	}
	return a.cfg.Store.NewObject(taskBlobClass, raw)
}

// forgetRequest deletes a persisted request once its offload resolved.
func (a *Agent) forgetRequest(id dataclay.ObjectID) {
	if a.cfg.Store != nil && id != "" {
		_ = a.cfg.Store.Delete(id) // only an unknown ID fails, and id is ours
	}
}

// recoverRequest reloads a persisted request; false when there is no store,
// the request was not persisted, or the stored object does not decode.
func (a *Agent) recoverRequest(id dataclay.ObjectID) (req TaskRequest, ok bool) {
	if a.cfg.Store == nil || id == "" {
		return req, false
	}
	state, err := a.cfg.Store.Fetch(id)
	raw, isBytes := state.([]byte)
	ok = err == nil && isBytes && json.Unmarshal(raw, &req) == nil
	return req, ok
}

// RunLocal executes a function on this agent and blocks until the worker
// signals its completion (or the agent closes).
func (a *Agent) RunLocal(name string, args []json.RawMessage) (json.RawMessage, error) {
	t, err := a.enqueue(TaskRequest{Name: name, Args: args})
	if err != nil {
		return nil, err
	}
	return a.await(t)
}

// await blocks until t has finished. A waiter that finds the task still
// in flight leaves its completion signal on it; the worker's last write to
// t.status comes before it closes the signal, both under a.mu, so the
// status is final either way once await reads it.
func (a *Agent) await(t *agentTask) (json.RawMessage, error) {
	a.mu.Lock()
	if t.done == nil && t.status.State != StateDone && t.status.State != StateFailed {
		t.done = make(chan struct{})
	}
	done := t.done
	a.mu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-a.quit:
			return nil, ErrClosed
		}
	}
	if t.status.State == StateFailed {
		return nil, fmt.Errorf("task failed: %s", t.status.Error)
	}
	return t.status.Result, nil
}

// rankPeers probes each configured peer once: the live ones by load.
func (a *Agent) rankPeers() []peer {
	a.mu.Lock()
	urls := append([]string(nil), a.peers...)
	a.mu.Unlock()
	return a.client.rank(urls)
}

// offload runs a function on the first live peer of a ranking, persisting
// the request first. If the chosen peer disappears mid-task, the request is
// recovered from the store and resubmitted to the next peer (finally
// falling back to local execution) — the recovery behaviour of E7. The
// persisted request is deleted once the offload resolves, however it does.
func (a *Agent) offload(peers []peer, name string, args []json.RawMessage) (json.RawMessage, error) {
	req := TaskRequest{Name: name, Args: args}
	blobID, err := a.persistRequest(req)
	if err != nil {
		return nil, err
	}
	defer a.forgetRequest(blobID)
	res, err := failover(peers, func(url string) (json.RawMessage, error) {
		a.met.offloads.Inc()
		attempt := req
		// Demonstrate true recovery: reload the request from the store
		// (when it was persisted) rather than trusting in-memory state.
		if rec, ok := a.recoverRequest(blobID); ok {
			attempt = rec
		}
		res, err := a.client.Run(url, attempt.Name, attempt.Args)
		if errors.Is(err, ErrPeerLost) {
			a.recoveries.Add(1)
		}
		return res, err
	})
	if !errors.Is(err, ErrPeerLost) {
		return res, err
	}
	// All peers gone (or none configured): run locally.
	return a.RunLocal(name, args)
}

// RunAnywhere picks an executor: locally when the local load *after
// accepting this task* stays below the best peer's, otherwise the
// least-loaded peer — the fog-to-fog / fog-to-cloud decision of Fig. 5.
func (a *Agent) RunAnywhere(name string, args []json.RawMessage) (json.RawMessage, error) {
	peers := a.rankPeers()
	if len(peers) == 0 {
		return a.RunLocal(name, args)
	}
	// Include the task being placed on both sides of the comparison, so
	// a 1-core device facing idle 4-core peers offloads instead of
	// self-queueing.
	local, best := a.health(), peers[0].health
	local.Queued++
	best.Queued++
	if local.Load() <= best.Load() {
		return a.RunLocal(name, args)
	}
	return a.offload(peers, name, args)
}
