package agent

import (
	"net/http"

	"repro/internal/obsv"
)

// metrics is the agent's instrument bundle. Without a registry every
// field stays nil, and nil obsv instruments discard writes, so the hot
// paths carry no enable branches.
type metrics struct {
	executed    *obsv.Counter   // tasks finished successfully
	failed      *obsv.Counter   // tasks finished in error
	execSeconds *obsv.Histogram // local execution wall time
	offloads    *obsv.Counter   // tasks sent to a peer
}

// newMetrics registers a's instruments on reg, and the counts a keeps
// for itself — queue depth, busy workers, recoveries — as func-backed
// series read at scrape time.
func newMetrics(reg *obsv.Registry, a *Agent) metrics {
	if reg == nil {
		return metrics{}
	}
	reg.GaugeFunc("flowgo_agent_queue_depth",
		"Tasks accepted but not yet picked up by a worker.", "",
		func() int64 { return int64(a.health().Queued) })
	reg.GaugeFunc("flowgo_agent_busy_workers",
		"Workers currently executing a task.", "",
		func() int64 { return int64(a.health().Busy) })
	reg.CounterFunc("flowgo_agent_recoveries_total",
		"Offloaded tasks recovered and resubmitted after a peer loss.", "",
		a.recoveries.Load)
	return metrics{
		executed: reg.Counter("flowgo_agent_tasks_executed_total",
			"Tasks this agent executed to completion.", ""),
		failed: reg.Counter("flowgo_agent_tasks_failed_total",
			"Tasks this agent executed that returned an error.", ""),
		execSeconds: reg.Histogram("flowgo_agent_exec_seconds",
			"Local task execution wall time.", "",
			obsv.ExpBuckets(0.001, 4, 10)),
		offloads: reg.Counter("flowgo_agent_offloads_total",
			"Tasks submitted to a peer agent.", ""),
	}
}

// counted wraps an HTTP handler with a per-endpoint request counter.
func counted(reg *obsv.Registry, endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	var c *obsv.Counter
	if reg != nil {
		c = reg.Counter("flowgo_agent_http_requests_total",
			"REST requests served, by endpoint.", obsv.Labels("endpoint", endpoint))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		fn(w, r)
	}
}
