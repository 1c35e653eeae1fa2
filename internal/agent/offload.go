package agent

import (
	"encoding/json"
	"errors"
	"fmt"
)

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

// offload runs a function on the first live peer of a ranking. If the
// chosen peer disappears mid-task, the request this call holds is
// resubmitted to the next peer (finally falling back to local execution)
// — the recovery behaviour of E7. No second copy is kept: a fault that
// loses the request loses this process, and any in-process copy with it.
func (a *Agent) offload(peers []peer, name string, args []json.RawMessage) (json.RawMessage, error) {
	res, err := failover(peers, func(url string) (json.RawMessage, error) {
		a.met.offloads.Inc()
		res, err := a.client.Run(url, name, args)
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
