package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point is one sampled value of one series.
type Point struct {
	At    time.Duration `json:"at_ns"` // offset from run start (virtual or wall)
	Value float64       `json:"value"`
}

// TimeSeries is the sampled history of one metric sample (a family name
// plus rendered label suffix).
type TimeSeries struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Sampler snapshots a Registry into in-memory time-series. The caller
// supplies the clock discipline: internal/host arms Sample on the
// backend's timer — the simulator's virtual clock (deterministic,
// byte-identical series run to run) or the live runtime's wall timer. A
// nil *Sampler ignores all calls, so backends wire it unconditionally.
type Sampler struct {
	reg *Registry

	mu     sync.Mutex
	series map[string]*TimeSeries
	names  []string // sorted; rebuilt lazily on encode
	dirty  bool
	// order mirrors the registry's Visit order, so steady-state samples
	// append by position instead of hashing every sample name. Rebuilt
	// in place whenever the visit order grows a new sample.
	order []*TimeSeries
}

// NewSampler returns a sampler over reg.
func NewSampler(reg *Registry) *Sampler {
	return &Sampler{reg: reg, series: make(map[string]*TimeSeries)}
}

// Sample takes one snapshot of every registry sample, stamped at. Call
// it from the owning clock: the sim's event loop or a wall timer.
func (s *Sampler) Sample(at time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	s.reg.Visit(func(name string, v float64) {
		// Fast path: the visit order is stable between samples, so the
		// cached position is the right series (same interned name from the
		// registry's visit cache — the comparison is pointer-equal).
		if i < len(s.order) && s.order[i].Name == name {
			ts := s.order[i]
			ts.Points = append(ts.Points, Point{At: at, Value: v})
			i++
			return
		}
		// A new sample appeared (or the order shifted): splice it into the
		// order cache at this position and fall back to the name map.
		ts, ok := s.series[name]
		if !ok {
			ts = &TimeSeries{Name: name}
			s.series[name] = ts
			s.dirty = true
		}
		s.order = append(s.order[:i], append([]*TimeSeries{ts}, s.order[i:]...)...)
		ts.Points = append(ts.Points, Point{At: at, Value: v})
		i++
	})
}

// sortedLocked returns the series in name order. Caller holds s.mu.
func (s *Sampler) sortedLocked() []*TimeSeries {
	if s.dirty {
		s.names = s.names[:0]
		for n := range s.series {
			s.names = append(s.names, n)
		}
		sort.Strings(s.names)
		s.dirty = false
	}
	out := make([]*TimeSeries, 0, len(s.names))
	for _, n := range s.names {
		out = append(out, s.series[n])
	}
	return out
}

// Series returns a deep copy of every sampled series in name order.
func (s *Sampler) Series() []TimeSeries {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TimeSeries, 0, len(s.series))
	for _, ts := range s.sortedLocked() {
		out = append(out, TimeSeries{Name: ts.Name, Points: append([]Point(nil), ts.Points...)})
	}
	return out
}

// WriteText writes the sampled series in a stable line format:
//
//	<name> <at-as-duration> <value>
//
// Series are name-sorted and points chronological, so two deterministic
// runs produce byte-identical files — the CI determinism smoke diffs
// exactly this output.
func (s *Sampler) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, ts := range s.sortedLocked() {
		for _, p := range ts.Points {
			b.WriteString(ts.Name)
			b.WriteByte(' ')
			b.WriteString(p.At.String())
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(p.Value, 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary returns a one-line digest (series count, total points) for
// progress logs.
func (s *Sampler) Summary() string {
	if s == nil {
		return "sampler off"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	points := 0
	for _, ts := range s.series {
		points += len(ts.Points)
	}
	return fmt.Sprintf("%d series, %d points", len(s.series), points)
}
