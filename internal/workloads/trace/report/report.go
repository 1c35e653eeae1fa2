// Package report turns engine timing records and a replayed trace into
// latency summaries: p50/p95/p99 queue wait and makespan, overall and
// per tenant. The engine stamps every task's submit→ready→start→done
// milestones on its clock (virtual or wall); this package joins them
// with the trace's tenant tags by task ID and computes percentile
// statistics with hand-checkable linear-interpolation math. The output
// is the latency object of flowgo-sim's -bench-out report and the
// latency block it prints after every run; the per-tenant breakdown
// needs a trace.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/engine"
	wtrace "repro/internal/workloads/trace"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the sample
// set by linear interpolation between closest ranks. A single sample is
// every percentile; an empty set is NaN.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// Pcts summarises one latency distribution in milliseconds.
type Pcts struct {
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
	Count int     `json:"count"`
}

// pcts computes the summary of a millisecond sample set.
func pcts(ms []float64) Pcts {
	if len(ms) == 0 {
		return Pcts{}
	}
	return Pcts{
		P50:   Percentile(ms, 50),
		P95:   Percentile(ms, 95),
		P99:   Percentile(ms, 99),
		Max:   Percentile(ms, 100),
		Count: len(ms),
	}
}

// TenantSummary is one tenant's slice of the run.
type TenantSummary struct {
	// Tenant is the trace tag ("" appears as "-").
	Tenant string `json:"tenant"`
	// Tasks is the number of completed tasks attributed to the tenant.
	Tasks int `json:"tasks"`
	// QueueWait summarises start−ready per task.
	QueueWait Pcts `json:"queue_wait"`
	// MakespanMS is the tenant's span: last done − first submit.
	MakespanMS float64 `json:"makespan_ms"`
}

// Summary is the full latency report of one run.
type Summary struct {
	// Tasks counts timing records considered; Completed those that
	// reached done (the only ones contributing latency samples).
	Tasks     int `json:"tasks"`
	Completed int `json:"completed"`
	// QueueWait is start−ready (time spent runnable but unplaced),
	// EndToEnd done−submit, Exec done−start.
	QueueWait Pcts `json:"queue_wait"`
	EndToEnd  Pcts `json:"end_to_end"`
	Exec      Pcts `json:"exec"`
	// MakespanMS is last done − first submit over everything.
	MakespanMS float64 `json:"makespan_ms"`
	// Tenants is the per-tenant breakdown (tag order), present when the
	// replay had a trace with tenant tags.
	Tenants []TenantSummary `json:"tenants,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TraceMeta is the per-task slice of the trace the summary joins with
// the engine's timings: the tenant tag and the recorded arrival offset.
// The arrival replaces the engine's Submit timestamp in end-to-end and
// makespan math, because the sim replayer registers every spec at t=0
// and models arrival as a delayed release — the trace offset, not the
// registration instant, is when the task "arrived".
type TraceMeta struct {
	Tenant   string
	SubmitNS int64
}

// MetaOf maps the trace's task IDs to their metadata for Build.
func MetaOf(t *wtrace.Trace) map[int64]TraceMeta {
	m := make(map[int64]TraceMeta, len(t.Tasks))
	for _, r := range t.Tasks {
		m[r.ID] = TraceMeta{Tenant: r.Tenant, SubmitNS: r.SubmitNS}
	}
	return m
}

// Build computes the summary from engine timings. meta joins trace
// metadata (tenant tags, arrival offsets) by task ID — pass
// MetaOf(trace) for a replay, or nil when there is no trace (the
// engine's own Submit timestamps then anchor end-to-end latency and the
// per-tenant breakdown is omitted).
func Build(timings []engine.Timing, meta map[int64]TraceMeta) Summary {
	sum := Summary{Tasks: len(timings)}
	var queue, e2e, exec []float64
	type span struct {
		first, last time.Duration
		queue       []float64
		tasks       int
	}
	perTenant := map[string]*span{}
	var order []string
	var first, last time.Duration = -1, -1
	for _, tm := range timings {
		if tm.Done < 0 {
			continue
		}
		sum.Completed++
		m, hasMeta := meta[tm.ID]
		submit := tm.Submit
		if hasMeta {
			submit = time.Duration(m.SubmitNS)
		}
		if first < 0 || submit < first {
			first = submit
		}
		if tm.Done > last {
			last = tm.Done
		}
		var qw float64
		if tm.Ready >= 0 && tm.Start >= tm.Ready {
			qw = ms(tm.Start - tm.Ready)
			queue = append(queue, qw)
		}
		e2e = append(e2e, ms(tm.Done-submit))
		if tm.Start >= 0 {
			exec = append(exec, ms(tm.Done-tm.Start))
		}
		if hasMeta {
			ts := perTenant[m.Tenant]
			if ts == nil {
				ts = &span{first: submit, last: tm.Done}
				perTenant[m.Tenant] = ts
				order = append(order, m.Tenant)
			}
			if submit < ts.first {
				ts.first = submit
			}
			if tm.Done > ts.last {
				ts.last = tm.Done
			}
			ts.tasks++
			if tm.Ready >= 0 && tm.Start >= tm.Ready {
				ts.queue = append(ts.queue, qw)
			}
		}
	}
	sum.QueueWait = pcts(queue)
	sum.EndToEnd = pcts(e2e)
	sum.Exec = pcts(exec)
	if last >= 0 {
		sum.MakespanMS = ms(last - first)
	}
	sort.Strings(order)
	for _, tag := range order {
		ts := perTenant[tag]
		name := tag
		if name == "" {
			name = "-"
		}
		sum.Tenants = append(sum.Tenants, TenantSummary{
			Tenant:     name,
			Tasks:      ts.tasks,
			QueueWait:  pcts(ts.queue),
			MakespanMS: ms(ts.last - ts.first),
		})
	}
	return sum
}

// WriteText prints the summary as the human-readable block flowgo-sim
// shows after a run.
func (s Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "latency: %d/%d tasks completed, makespan %.1fms\n",
		s.Completed, s.Tasks, s.MakespanMS)
	fmt.Fprintf(w, "  queue wait  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		s.QueueWait.P50, s.QueueWait.P95, s.QueueWait.P99, s.QueueWait.Max)
	fmt.Fprintf(w, "  end-to-end  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		s.EndToEnd.P50, s.EndToEnd.P95, s.EndToEnd.P99, s.EndToEnd.Max)
	for _, t := range s.Tenants {
		fmt.Fprintf(w, "  tenant %-10s %6d tasks  queue p99 %.2fms  makespan %.1fms\n",
			t.Tenant, t.Tasks, t.QueueWait.P99, t.MakespanMS)
	}
}
