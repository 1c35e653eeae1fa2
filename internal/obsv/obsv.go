// Package obsv is the runtime observability layer: a lock-cheap metrics
// registry (counters, gauges, fixed-bucket histograms) sampled into
// in-memory time-series on either clock — virtual time in the simulator,
// wall time in the live runtime — and exported as Prometheus text, Chrome
// trace-event JSON (via internal/trace) or a report section.
//
// The paper observes its runtime post hoc, through Paraver traces of
// finished runs; this package closes the same gap for the reproduction's
// live half: queue depth, steal rate, park/wake churn and checkpoint cost
// become continuous signals rather than end-of-run counters, which is
// exactly the input the metrics-driven autoscaler work needs.
//
// Design constraints, in order:
//
//   - A count its owner already keeps is not counted twice: it is a
//     func-backed series (CounterFunc, GaugeFunc) whose function the
//     registry calls at Visit, WritePrometheus and Sampler.Sample with no
//     registry lock held, so the function may take its owner's lock.
//   - Facts only the metrics record are instruments. Hot-path
//     increments are single atomic adds on pre-resolved instrument
//     pointers: no map lookups, no label rendering, no allocation.
//     Callers resolve instruments once and hold the pointer.
//   - Every instrument is one atomic word (a histogram, one per bucket):
//     its writers mostly arrive under their owner's lock (the engine's
//     mutex), and the ones that do not — the agent's workers — are few.
//   - Everything observed through the engine's Clock is deterministic on
//     the simulator: identical runs produce byte-identical sampled
//     series. Wall-time observations (checkpoint capture cost) are the
//     documented exception.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter: one atomic word. Obtain
// counters from a Registry. A nil *Counter discards all writes, so call
// sites need no guards.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d (a zero-alloc single atomic add).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous value (queue depth, parked count). Gauges are
// typically mutated under the owner's own lock (the engine's mutex), so
// one atomic word suffices. A nil *Gauge discards all writes.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds
// (Prometheus "le" semantics: an observation lands in the first bucket
// whose bound is >= the value); the implicit +Inf bucket catches the
// rest. Bounds are fixed at registration, so Observe is a binary search
// plus two atomic adds — zero allocation. A nil *Histogram discards all
// observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram validates and copies the bounds (strictly increasing).
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v. Bound sets are small (≤ ~12 in this repo), so a
	// linear scan beats the sort.SearchFloat64s call on the hot path —
	// especially for the common small observations that land early.
	i := 0
	for i < len(h.bounds) && h.bounds[i] < v {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	if v == 0 {
		return // sum += 0 is a no-op; skip the CAS
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the Prometheus base
// unit, so exported histograms compare across tools.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket observation counts, non-cumulative,
// with the +Inf bucket last (len(Bounds())+1 entries).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// Kind classifies a metric family for export.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labelled instrument inside a family, or, for a
// func-backed counter or gauge, its owner's read function.
type series struct {
	labels string // rendered {k="v",...} suffix ("" when unlabelled)
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64
}

// value reads a counter or gauge series.
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.c != nil:
		return s.c.Value()
	default:
		return s.g.Value()
	}
}

// family is all series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	bounds []float64      // histogram bucket bounds
	gen    *atomic.Uint64 // the owning registry's insert counter

	mu     sync.Mutex
	byKey  map[string]*series
	sorted []*series // label-sorted; rebuilt on insert
}

// get returns (creating on first use) the series for a label suffix. A
// non-nil fn makes a new counter or gauge series func-backed; it is
// stored before the insert generation moves, which publishes it to Visit.
func (f *family) get(labels string, fn func() int64) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[labels]; ok {
		return s
	}
	s := &series{labels: labels, fn: fn}
	switch {
	case f.kind == KindHistogram:
		s.h = newHistogram(f.bounds)
	case fn != nil: // func-backed: no instrument
	case f.kind == KindCounter:
		s.c = &Counter{}
	default:
		s.g = &Gauge{}
	}
	f.byKey[labels] = s
	f.sorted = append(f.sorted, s)
	sort.Slice(f.sorted, func(i, j int) bool { return f.sorted[i].labels < f.sorted[j].labels })
	f.gen.Add(1)
	return s
}

// snapshot returns the label-sorted series under the family lock.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*series(nil), f.sorted...)
}

// Registry is a named collection of metric families. All methods are safe
// for concurrent use; instrument resolution (Counter/Gauge/...) is meant
// for setup paths, with the returned pointers held for the hot path.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // sorted; rebuilt on insert

	// gen counts inserts (families and series); Visit caches its
	// flattened walk keyed on it, so steady-state sampling — the sim
	// samples every virtual interval — allocates nothing.
	gen        atomic.Uint64
	vmu        sync.Mutex
	visitGen   uint64
	visitCache []visitEntry
}

// visitEntry is one pre-rendered Visit sample: the full sample name and
// where to read its value.
type visitEntry struct {
	sample string
	kind   Kind
	sum    bool // histogram: _sum (true) vs _count (false)
	s      *series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating on first use) the named family. Re-use with
// a different kind panics: that is a programming error, like registering
// two metrics under one name in any metrics library.
func (r *Registry) familyFor(name, help string, kind Kind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obsv: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, bounds: bounds, gen: &r.gen, byKey: make(map[string]*series)}
	r.families[name] = f
	r.gen.Add(1)
	pos := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[pos+1:], r.names[pos:])
	r.names[pos] = name
	return f
}

// Labels renders a label suffix in a canonical order. Pass key/value
// pairs: Labels("sig", "c4", "tier", "hpc") → `{sig="c4",tier="hpc"}`.
// Resolve once and cache the instrument; never call this per increment.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obsv: Labels wants key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter resolves the named counter with an optional pre-rendered label
// suffix (use Labels). The first resolution registers the family.
func (r *Registry) Counter(name, help, labels string) *Counter {
	return r.familyFor(name, help, KindCounter, nil).get(labels, nil).c
}

// Gauge resolves the named gauge.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	return r.familyFor(name, help, KindGauge, nil).get(labels, nil).g
}

// CounterFunc registers a counter whose value is fn's result, read at
// every Visit, WritePrometheus and Sampler.Sample: the series of a count
// its owner already keeps. fn runs with no registry lock held, so it may
// take the owner's lock; it must not register series itself. The first
// registration of a series wins: a later CounterFunc or Counter on the
// same name and labels keeps its fn (and Counter returns nil).
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.familyFor(name, help, KindCounter, nil).get(labels, fn)
}

// GaugeFunc is CounterFunc for an instantaneous value.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() int64) {
	r.familyFor(name, help, KindGauge, nil).get(labels, fn)
}

// Histogram resolves the named histogram. Bounds must be identical for
// every series of one family (they are fixed by the first registration).
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	return r.familyFor(name, help, KindHistogram, bounds).get(labels, nil).h
}

// Visit walks every series in deterministic order (families by name,
// series by label suffix), calling fn with the sample name — family name
// plus label suffix — and the series values, calling a func-backed
// series' function with no registry lock held. Histograms visit as
// two samples, name_count and name_sum (buckets are export-only detail;
// see WritePrometheus).
func (r *Registry) Visit(fn func(sample string, v float64)) {
	// The flattened walk (sample names included) is cached keyed on the
	// insert generation: steady-state sampling rebuilds nothing and
	// allocates nothing. An insert racing the generation read only delays
	// the new sample to the next Visit.
	g := r.gen.Load()
	r.vmu.Lock()
	if r.visitCache == nil || r.visitGen != g {
		r.visitCache = r.buildVisitCache()
		r.visitGen = g
	}
	cache := r.visitCache
	r.vmu.Unlock()
	for i := range cache {
		e := &cache[i]
		switch {
		case e.kind != KindHistogram:
			fn(e.sample, float64(e.s.value()))
		case e.sum:
			fn(e.sample, e.s.h.Sum())
		default:
			fn(e.sample, float64(e.s.h.Count()))
		}
	}
}

// buildVisitCache flattens every series (families by name, series by
// label suffix) into pre-rendered visit entries.
func (r *Registry) buildVisitCache() []visitEntry {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.names))
	for _, n := range r.names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	var out []visitEntry
	for _, f := range fams {
		for _, s := range f.snapshot() {
			switch f.kind {
			case KindCounter, KindGauge:
				out = append(out, visitEntry{sample: f.name + s.labels, kind: f.kind, s: s})
			case KindHistogram:
				out = append(out, visitEntry{sample: f.name + "_count" + s.labels, kind: f.kind, s: s})
				out = append(out, visitEntry{sample: f.name + "_sum" + s.labels, kind: f.kind, sum: true, s: s})
			}
		}
	}
	return out
}
