package obsv

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "test counter", "")
	var wg sync.WaitGroup
	const workers, per = 32, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestCounterAddAllocatesNothing is the hot-path cost gate: an increment
// is one atomic add on a resolved pointer.
func TestCounterAddAllocatesNothing(t *testing.T) {
	c := NewRegistry().Counter("c_total", "test counter", "")
	if avg := testing.AllocsPerRun(1000, func() { c.Add(3) }); avg != 0 {
		t.Fatalf("Counter.Add allocates %.1f objects, want 0", avg)
	}
	if got := c.Value(); got != 3*1001 { // AllocsPerRun warms up with one extra call
		t.Fatalf("counter = %d, want %d", got, 3*1001)
	}
}

func TestNilInstrumentsDiscard(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Add(1)
	c.Inc()
	h.Observe(1.5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var s *Sampler
	s.Sample(0)
	if err := s.WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
	m := NewEngineMetrics(nil)
	m.StealAttempts.Inc()
	m.WaveSize.Observe(3)
	km := NewCkptMetrics(nil)
	km.Saves.Inc()
	km.CaptureSeconds.Observe(0.1)
}

// TestHistogramBucketEdges pins the le semantics at exact bucket bounds:
// an observation equal to a bound lands in that bound's bucket, epsilon
// above it spills to the next, and values past the last bound land in
// +Inf. (Satellite: histogram bucket edge values.)
func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "test", "", []float64{1, 2, 4})
	h.Observe(1)                    // == bound 1 → bucket 0
	h.Observe(math.Nextafter(1, 2)) // just above 1 → bucket 1
	h.Observe(2)                    // == bound 2 → bucket 1
	h.Observe(4)                    // == last bound → bucket 2
	h.Observe(math.Nextafter(4, 5)) // just above last bound → +Inf
	h.Observe(math.Inf(1))          // +Inf → +Inf bucket
	h.Observe(0)                    // below first bound → bucket 0
	h.Observe(math.Nextafter(2, 1)) // just below 2 → bucket 1
	want := []int64{2, 3, 1, 2}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
}

func TestHistogramSumConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_sum", "test", "", []float64{10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Sum(), 8*500*0.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestLabelsCanonicalOrder(t *testing.T) {
	a := Labels("tier", "hpc", "sig", "c4")
	b := Labels("sig", "c4", "tier", "hpc")
	if a != b {
		t.Fatalf("label order not canonical: %q vs %q", a, b)
	}
	if want := `{sig="c4",tier="hpc"}`; a != want {
		t.Fatalf("labels = %q, want %q", a, want)
	}
	if got := Labels("k", "a\"b\\c\nd"); !strings.Contains(got, `a\"b\\c\nd`) {
		t.Fatalf("escaping broken: %q", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs run.", Labels("kind", "sim")).Add(3)
	reg.GaugeFunc("depth", "Queue depth.", "", func() int64 { return 7 })
	h := reg.Histogram("lat_seconds", "Latency.", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		`jobs_total{kind="sim"} 3`,
		"# TYPE depth gauge",
		"depth 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabelledBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d_seconds", "test", Labels("sig", "c4"), []float64{1})
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `d_seconds_bucket{sig="c4",le="1"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("missing %q:\n%s", want, buf.String())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different kind must panic")
		}
	}()
	reg.GaugeFunc("x", "", "", func() int64 { return 0 })
}

func TestSamplerDeterministicText(t *testing.T) {
	run := func() string {
		reg := NewRegistry()
		c := reg.Counter("b_total", "", "")
		var depth int64
		reg.GaugeFunc("a_depth", "", "", func() int64 { return depth })
		s := NewSampler(reg)
		for i := 1; i <= 3; i++ {
			c.Add(int64(i))
			depth = int64(10 * i)
			s.Sample(time.Duration(i) * time.Second)
		}
		var buf bytes.Buffer
		if err := s.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("sampler text not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.HasPrefix(a, "a_depth 1s 10\n") {
		t.Fatalf("series not name-sorted / formatted:\n%s", a)
	}
	if !strings.Contains(a, "b_total 3s 6\n") {
		t.Fatalf("missing cumulative counter point:\n%s", a)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "", "").Inc()
	addr, shutdown, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestFuncSeriesReadAtScrape: a func-backed series is its owner's count
// read at scrape time — by Visit, WritePrometheus and Sampler.Sample
// alike — and the first registration of a series keeps its function.
func TestFuncSeriesReadAtScrape(t *testing.T) {
	reg := NewRegistry()
	var n, depth int64
	reg.CounterFunc("owned_total", "Owner's count.", "", func() int64 { return n })
	reg.GaugeFunc("owned_depth", "Owner's depth.", Labels("sig", "c4"), func() int64 { return depth })
	reg.GaugeFunc("owned_depth", "Owner's depth.", Labels("sig", "c4"), func() int64 { return -1 })
	if c := reg.Counter("owned_total", "", ""); c != nil {
		t.Fatal("Counter on a func-backed series must return nil")
	}
	s := NewSampler(reg)
	n, depth = 3, 7
	s.Sample(time.Second)
	n, depth = 5, 2
	s.Sample(2 * time.Second)
	vals := map[string]float64{}
	reg.Visit(func(name string, v float64) { vals[name] = v })
	if vals["owned_total"] != 5 || vals[`owned_depth{sig="c4"}`] != 2 {
		t.Fatalf("Visit read %v, want the owner's current counts", vals)
	}
	var prom, text bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE owned_total counter\nowned_total 5\n", "# TYPE owned_depth gauge\n" + `owned_depth{sig="c4"} 2`} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, prom.String())
		}
	}
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := `owned_depth{sig="c4"} 1s 7` + "\n" + `owned_depth{sig="c4"} 2s 2` + "\nowned_total 1s 3\nowned_total 2s 5\n"; text.String() != want {
		t.Fatalf("sampled text:\n%s\nwant:\n%s", text.String(), want)
	}
}
