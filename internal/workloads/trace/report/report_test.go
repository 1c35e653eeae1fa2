package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestPercentileFixtures pins the interpolation math to hand-computed
// values.
func TestPercentileFixtures(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		// [10 20 30 40]: rank(p50) = 0.5*3 = 1.5 → 20 + 0.5*(30−20) = 25.
		{"even-median", []float64{10, 20, 30, 40}, 50, 25},
		// [10 20 30]: rank(p50) = 1 exactly.
		{"odd-median", []float64{30, 10, 20}, 50, 20},
		// [10 20 30 40]: rank(p25) = 0.75 → 10 + 0.75*10 = 17.5.
		{"quartile", []float64{10, 20, 30, 40}, 25, 17.5},
		// [1..10]: rank(p99) = 0.99*9 = 8.91 → 9 + 0.91*1 = 9.91.
		{"p99-interp", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99, 9.91},
		{"p0-is-min", []float64{7, 3, 9}, 0, 3},
		{"p100-is-max", []float64{7, 3, 9}, 100, 9},
		// n=1: every percentile is the sample.
		{"single-p50", []float64{42}, 50, 42},
		{"single-p99", []float64{42}, 99, 42},
		// All equal: every percentile is that value.
		{"all-equal", []float64{5, 5, 5, 5}, 95, 5},
	}
	for _, c := range cases {
		if got := Percentile(c.samples, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: P%v(%v) = %v, want %v", c.name, c.p, c.samples, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty sample set must be NaN")
	}
}

func tsec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// TestBuildSummary drives Build with hand-laid timings: two tenants,
// one incomplete task, one task with a queue wait.
func TestBuildSummary(t *testing.T) {
	timings := []engine.Timing{
		// Queue waits 1s, runs 2s: ready 0 → start 1 → done 3.
		{ID: 1, Submit: 0, Ready: 0, Start: tsec(1), Done: tsec(3)},
		// No queue wait: arrives (trace offset 2s), runs 4s.
		{ID: 2, Submit: 0, Ready: tsec(2), Start: tsec(2), Done: tsec(6)},
		// Never completed: excluded from every distribution.
		{ID: 3, Submit: 0, Ready: tsec(2), Start: -1, Done: -1},
	}
	meta := map[int64]TraceMeta{
		1: {Tenant: "a", SubmitNS: 0},
		2: {Tenant: "b", SubmitNS: int64(tsec(2))},
		3: {Tenant: "b", SubmitNS: int64(tsec(2))},
	}
	s := Build(timings, meta)
	if s.Tasks != 3 || s.Completed != 2 {
		t.Fatalf("tasks/completed = %d/%d", s.Tasks, s.Completed)
	}
	// Queue waits: [1000ms, 0ms] → p50 = 500 (interpolated), max 1000.
	if s.QueueWait.Count != 2 || s.QueueWait.P50 != 500 || s.QueueWait.Max != 1000 {
		t.Fatalf("queue wait = %+v", s.QueueWait)
	}
	// End-to-end anchored at the TRACE offsets: task 1 done−0 = 3000ms,
	// task 2 done−2s = 4000ms.
	if s.EndToEnd.Max != 4000 || s.EndToEnd.P50 != 3500 {
		t.Fatalf("end-to-end = %+v", s.EndToEnd)
	}
	// Makespan: last done (6s) − first arrival (0) = 6000ms.
	if s.MakespanMS != 6000 {
		t.Fatalf("makespan = %v", s.MakespanMS)
	}
	if len(s.Tenants) != 2 {
		t.Fatalf("tenants = %+v", s.Tenants)
	}
	a, b := s.Tenants[0], s.Tenants[1]
	if a.Tenant != "a" || a.Tasks != 1 || a.MakespanMS != 3000 {
		t.Fatalf("tenant a = %+v", a)
	}
	// Tenant b: only task 2 completed; span 2s→6s.
	if b.Tenant != "b" || b.Tasks != 1 || b.MakespanMS != 4000 {
		t.Fatalf("tenant b = %+v", b)
	}
}

// TestBuildNoMeta: without trace metadata the engine's Submit anchors
// end-to-end and no tenant section appears.
func TestBuildNoMeta(t *testing.T) {
	s := Build([]engine.Timing{
		{ID: 1, Submit: tsec(1), Ready: tsec(1), Start: tsec(1), Done: tsec(2)},
	}, nil)
	if s.EndToEnd.P50 != 1000 || len(s.Tenants) != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.QueueWait.P50 != 0 || s.QueueWait.Count != 1 {
		t.Fatalf("queue wait = %+v", s.QueueWait)
	}
}

// TestBuildEmpty: a run with nothing completed yields a zero summary,
// not NaNs in the JSON.
func TestBuildEmpty(t *testing.T) {
	s := Build(nil, nil)
	if s.Tasks != 0 || s.Completed != 0 || s.QueueWait.P99 != 0 || s.MakespanMS != 0 {
		t.Fatalf("summary = %+v", s)
	}
	data, err := json.Marshal(s)
	if err != nil || !strings.Contains(string(data), "\"queue_wait\"") {
		t.Fatalf("marshal: %v\n%s", err, data)
	}
}

// TestWriteText smoke-checks the human block.
func TestWriteText(t *testing.T) {
	var sb strings.Builder
	s := Build([]engine.Timing{
		{ID: 1, Submit: 0, Ready: 0, Start: tsec(1), Done: tsec(2)},
	}, map[int64]TraceMeta{1: {Tenant: "t0"}})
	s.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"queue wait", "p99", "tenant t0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text block missing %q:\n%s", want, out)
		}
	}
}
