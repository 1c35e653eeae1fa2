package autoscale

import (
	"sort"
	"sync"

	"repro/internal/obsv"
)

// Quota bounds one tenant's use of the runtime. The same quota applies
// to every tenant; weights skew only the order in which queued work is
// released, not the in-flight bound.
type Quota struct {
	// MaxInFlight caps a tenant's admitted-but-uncompleted tasks
	// (admission to completion, dependency waits included). <= 0 means
	// unlimited — the controller then only counts.
	MaxInFlight int
	// MaxTotal caps admitted-but-uncompleted tasks across ALL tenants —
	// the shared-capacity bound that makes the weighted release order
	// bite: under a per-tenant cap alone every freed slot belongs to
	// the tenant that freed it, so backlogged tenants never compete.
	// <= 0 means no global bound.
	MaxTotal int
	// MaxQueued caps a tenant's wait queue once an in-flight cap is
	// reached; submissions beyond it are rejected. <= 0 means the queue
	// is unbounded and Submit never rejects.
	MaxQueued int
	// Weights skew fair release order while tenants contend for the
	// MaxTotal bound: a tenant with weight 2 is released twice as often
	// as a tenant with weight 1 while both stay backlogged. Missing or
	// non-positive entries default to 1.
	Weights map[string]float64
}

// Outcome reports what Submit did with one submission.
type Outcome int

// Submission outcomes.
const (
	// Admitted: within quota, proceed immediately.
	Admitted Outcome = iota
	// Queued: over the in-flight cap; held until a Complete frees a
	// slot and fair ordering picks this tenant.
	Queued
	// Rejected: the tenant's queue bound is exceeded.
	Rejected
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Admitted:
		return "admitted"
	case Queued:
		return "queued"
	case Rejected:
		return "rejected"
	default:
		return "outcome?"
	}
}

// Released is one queued submission promoted by a freed quota slot.
type Released struct {
	Tenant  string
	Payload any
}

// AdmissionStats is a consistent snapshot of the controller's counters.
type AdmissionStats struct {
	// Admitted counts immediate admissions; Released counts queued
	// submissions later promoted (every Released was first Queued).
	Admitted, Queued, Rejected, Released int
	// InFlight and QueuedNow are current occupancy across all tenants.
	InFlight, QueuedNow int
}

// DefaultTenant is the bucket submissions without a tenant tag land in.
const DefaultTenant = "default"

// Admission enforces per-tenant quotas with weighted fair release — the
// layer both backends put in front of batch submission. Admission is
// payload-agnostic: backends queue whatever lets them resume the held
// submission (the simulator queues engine task IDs whose synthetic hold
// it releases, the live runtime queues its own). Safe for concurrent
// use; release order is deterministic for a given operation sequence
// (least weighted service first, ties by tenant name, FIFO per tenant).
type Admission struct {
	mu       sync.Mutex
	q        Quota
	inflight map[string]int
	queues   map[string][]any
	// served is each tenant's weighted virtual service: +1/weight per
	// admitted task. Queued tenants with the least service release
	// first, which is stride scheduling — over any backlogged window a
	// tenant's share of releases converges to weight/Σweights.
	served map[string]float64
	stats  AdmissionStats
}

// NewAdmission returns a controller enforcing q.
func NewAdmission(q Quota) *Admission {
	return &Admission{
		q:        q,
		inflight: make(map[string]int),
		queues:   make(map[string][]any),
		served:   make(map[string]float64),
	}
}

// Expose registers the controller's counters on reg as func-backed
// series, each read from Stats at scrape time.
func (a *Admission) Expose(reg *obsv.Registry) {
	read := func(f func(AdmissionStats) int) func() int64 {
		return func() int64 { return int64(f(a.Stats())) }
	}
	reg.CounterFunc("flowgo_admission_admitted_total", "Submissions admitted within quota.", "",
		read(func(s AdmissionStats) int { return s.Admitted }))
	reg.CounterFunc("flowgo_admission_queued_total", "Submissions queued for a freed quota slot.", "",
		read(func(s AdmissionStats) int { return s.Queued }))
	reg.CounterFunc("flowgo_admission_rejected_total", "Submissions rejected (queue bound exceeded).", "",
		read(func(s AdmissionStats) int { return s.Rejected }))
	reg.CounterFunc("flowgo_admission_released_total", "Queued submissions promoted to admitted.", "",
		read(func(s AdmissionStats) int { return s.Released }))
	reg.GaugeFunc("flowgo_admission_in_flight", "Admitted-but-uncompleted tasks across tenants.", "",
		read(func(s AdmissionStats) int { return s.InFlight }))
	reg.GaugeFunc("flowgo_admission_queue_depth", "Queued submissions across tenants.", "",
		read(func(s AdmissionStats) int { return s.QueuedNow }))
}

// Quota returns the configured quota.
func (a *Admission) Quota() Quota { return a.q }

func (a *Admission) weight(tenant string) float64 {
	if w, ok := a.q.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

func canonical(tenant string) string {
	if tenant == "" {
		return DefaultTenant
	}
	return tenant
}

// Submit asks to run one task for tenant. On Queued the payload is held
// and comes back from a later Complete; on Admitted (and Rejected) the
// payload is not retained. The caller must pair every Admitted and
// Released task with exactly one Complete.
func (a *Admission) Submit(tenant string, payload any) Outcome {
	tenant = canonical(tenant)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.roomLocked(tenant) {
		a.admitLocked(tenant)
		a.stats.Admitted++
		return Admitted
	}
	if a.q.MaxQueued > 0 && len(a.queues[tenant]) >= a.q.MaxQueued {
		a.stats.Rejected++
		return Rejected
	}
	a.queues[tenant] = append(a.queues[tenant], payload)
	a.stats.QueuedNow++
	a.stats.Queued++
	return Queued
}

// roomLocked reports whether tenant may take one more in-flight task:
// under its own cap and under the shared MaxTotal bound.
func (a *Admission) roomLocked(tenant string) bool {
	if a.q.MaxInFlight > 0 && a.inflight[tenant] >= a.q.MaxInFlight {
		return false
	}
	return a.q.MaxTotal <= 0 || a.stats.InFlight < a.q.MaxTotal
}

// admitLocked books one admission for tenant.
func (a *Admission) admitLocked(tenant string) {
	a.inflight[tenant]++
	a.served[tenant] += 1 / a.weight(tenant)
	a.stats.InFlight++
}

// Complete returns tenant's quota slot and promotes queued work into
// it: the backlogged tenant with the least weighted service (ties by
// name) releases first, FIFO within a tenant. The returned slice is in
// release order; each entry's task is now admitted and must get its own
// Complete when it finishes.
func (a *Admission) Complete(tenant string) []Released {
	tenant = canonical(tenant)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight[tenant] > 0 {
		a.inflight[tenant]--
		a.stats.InFlight--
	}
	if a.stats.QueuedNow == 0 {
		return nil
	}
	var out []Released
	for {
		next := a.nextTenantLocked()
		if next == "" {
			return out
		}
		q := a.queues[next]
		payload := q[0]
		if len(q) == 1 {
			delete(a.queues, next)
		} else {
			a.queues[next] = q[1:]
		}
		a.stats.QueuedNow--
		a.admitLocked(next)
		a.stats.Released++
		out = append(out, Released{Tenant: next, Payload: payload})
	}
}

// nextTenantLocked picks the queued tenant to release next, or "" when
// every queued tenant is at its in-flight cap (or nothing is queued).
func (a *Admission) nextTenantLocked() string {
	if a.stats.QueuedNow == 0 {
		return ""
	}
	names := make([]string, 0, len(a.queues))
	for t := range a.queues {
		names = append(names, t)
	}
	sort.Strings(names)
	best := ""
	for _, t := range names {
		if !a.roomLocked(t) {
			continue
		}
		if best == "" || a.served[t] < a.served[best] {
			best = t
		}
	}
	return best
}

// Stats returns a consistent snapshot of the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
