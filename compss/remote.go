package compss

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/agent"
)

// Remote tasks execute on COMPSs agents (paper Sec. VI-B): the task body
// ships its IN parameters as JSON to the least-loaded agent of a cluster
// and binds the JSON response to its single OUT parameter. Every agent of
// the application must have the function registered under the same name
// ("each Agent … can execute the same application code").

// RegisterRemoteTask registers a task whose body runs on one of the given
// agents, chosen by load, with failover if the chosen agent disappears.
// Each HTTP request is bounded at 2s and completion is polled every 5ms
// (agent.NewClient's defaults; the task itself may run longer). IN
// parameters must be JSON-marshalable; the decoded response binds to the
// single Write parameter (numbers arrive as float64, objects as
// map[string]any — standard encoding/json semantics).
func (c *COMPSs) RegisterRemoteTask(name string, agentURLs []string) error {
	if len(agentURLs) == 0 {
		return fmt.Errorf("compss: remote task %s needs at least one agent URL", name)
	}
	client := agent.NewClient(0, 0)
	urls := append([]string(nil), agentURLs...)

	fn := func(_ context.Context, args []any) ([]any, error) {
		raw := make([]json.RawMessage, 0, len(args))
		for _, a := range args {
			if a == nil {
				continue // output slot
			}
			enc, err := json.Marshal(a)
			if err != nil {
				return nil, fmt.Errorf("remote task %s: encode arg: %w", name, err)
			}
			raw = append(raw, enc)
		}
		res, err := client.RunOnCluster(urls, name, raw)
		if err != nil {
			return nil, fmt.Errorf("remote task %s: %w", name, err)
		}
		var out any
		if len(res) > 0 {
			if err := json.Unmarshal(res, &out); err != nil {
				return nil, fmt.Errorf("remote task %s: decode result: %w", name, err)
			}
		}
		return []any{out}, nil
	}
	return c.RegisterTask(name, fn)
}
