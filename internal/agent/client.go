package agent

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// Client is the client side of the agent REST protocol — the only one in
// the tree: agents offload to their peers through it, and so do programs
// that orchestrate agents without being one (flowgo-submit, the compss
// remote-task backend). It is safe for concurrent use.
type Client struct {
	http         *http.Client
	pollInterval time.Duration
	// quit aborts Wait with ErrClosed. An Agent's client carries the
	// agent's stop channel; a standalone client's is nil and never fires.
	quit <-chan struct{}
}

// NewClient returns a client with the given per-request timeout and poll
// interval (defaults: 2s, 5ms).
func NewClient(timeout, pollInterval time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	if pollInterval <= 0 {
		pollInterval = 5 * time.Millisecond
	}
	return &Client{
		http:         &http.Client{Timeout: timeout},
		pollInterval: pollInterval,
	}
}

// reply decodes the JSON answer to one protocol request into v. An agent
// that cannot be reached, answers anything but 200 (so also one that no
// longer knows a task ID: it restarted, or evicted the status) or sends a
// malformed body cannot be relied on: ErrPeerLost.
func reply(url string, resp *http.Response, err error, v any) error {
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrPeerLost, url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: %s: status %d", ErrPeerLost, url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrPeerLost, url, err)
	}
	return nil
}

// Health queries one agent's load.
func (c *Client) Health(url string) (Health, error) {
	var h Health
	resp, err := c.http.Get(url + "/health")
	err = reply(url, resp, err, &h)
	return h, err
}

// Submit posts a task and returns its remote ID.
func (c *Client) Submit(url, name string, args []json.RawMessage) (string, error) {
	body, err := json.Marshal(TaskRequest{Name: name, Args: args})
	if err != nil {
		return "", err
	}
	resp, err := c.http.Post(url+"/task", "application/json", bytes.NewReader(body))
	if err == nil && resp.StatusCode == http.StatusNotFound {
		_ = resp.Body.Close()
		return "", fmt.Errorf("agent %s: %w: %s", url, ErrUnknownFunc, name)
	}
	var st TaskStatus
	err = reply(url, resp, err, &st)
	return st.ID, err
}

// Wait polls until the remote task finishes. It is the one poll loop in
// the tree, and polls because plain HTTP makes it.
func (c *Client) Wait(url, id string) (json.RawMessage, error) {
	for {
		var st TaskStatus
		resp, err := c.http.Get(url + "/task/" + id)
		if err := reply(url, resp, err, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case StateDone:
			return st.Result, nil
		case StateFailed:
			return nil, fmt.Errorf("remote task failed: %s", st.Error)
		}
		select {
		case <-c.quit:
			return nil, ErrClosed
		case <-time.After(c.pollInterval):
		}
	}
}

// Run submits to one agent and waits.
func (c *Client) Run(url, name string, args []json.RawMessage) (json.RawMessage, error) {
	id, err := c.Submit(url, name, args)
	if err != nil {
		return nil, err
	}
	return c.Wait(url, id)
}

// peer is one agent that answered /health, with the load it reported.
type peer struct {
	url    string
	health Health
}

// rank asks every agent for its load — one GET /health each — and returns
// those that answered, least loaded first (ties by URL).
func (c *Client) rank(urls []string) []peer {
	var alive []peer
	for _, u := range urls {
		if h, err := c.Health(u); err == nil {
			alive = append(alive, peer{url: u, health: h})
		}
	}
	sort.Slice(alive, func(i, j int) bool {
		if li, lj := alive[i].health.Load(), alive[j].health.Load(); li != lj {
			return li < lj
		}
		return alive[i].url < alive[j].url
	})
	return alive
}

// failover tries the ranked agents in order. Only a lost agent
// (ErrPeerLost) moves it on to the next one: a task failure is the task's
// answer and is returned, never masked by a retry elsewhere. With nobody
// to try, or everybody lost, the error is ErrPeerLost.
func failover(peers []peer, try func(url string) (json.RawMessage, error)) (res json.RawMessage, err error) {
	err = ErrPeerLost
	for _, p := range peers {
		if res, err = try(p.url); !errors.Is(err, ErrPeerLost) {
			return res, err
		}
	}
	return nil, err
}

// RunOnCluster runs the function on the least-loaded live agent, failing
// over to the next one if the chosen agent disappears mid-task. Task
// failures (the function returning an error) are reported, not retried.
func (c *Client) RunOnCluster(urls []string, name string, args []json.RawMessage) (json.RawMessage, error) {
	alive := c.rank(urls)
	if len(alive) == 0 {
		return nil, fmt.Errorf("agent client: %w: none of %d agents answered", ErrPeerLost, len(urls))
	}
	return failover(alive, func(url string) (json.RawMessage, error) {
		return c.Run(url, name, args)
	})
}
