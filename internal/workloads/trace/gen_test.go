package trace

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"
)

// windowCounts buckets a trace's arrivals into the generator's windows.
func windowCounts(tr *Trace, cfg GenConfig) []int {
	counts := make([]int, cfg.Windows)
	width := cfg.Horizon / time.Duration(cfg.Windows)
	for _, r := range tr.Tasks {
		w := int(time.Duration(r.SubmitNS) / width)
		if w >= len(counts) {
			w = len(counts) - 1
		}
		counts[w]++
	}
	return counts
}

// checkEnvelope asserts every window's realised arrival count sits
// within Poisson noise of the configured rate envelope: |n − λ| ≤
// 5·√λ + 5 per window (a fixed seed makes this deterministic; the bound
// is ~5σ, far outside honest sampling noise but tight enough to catch a
// mis-normalised or mis-shaped envelope immediately).
func checkEnvelope(t *testing.T, tr *Trace, cfg GenConfig) {
	t.Helper()
	expected := cfg.ExpectedPerWindow()
	counts := windowCounts(tr, cfg)
	for w, n := range counts {
		lambda := expected[w]
		tol := 5*math.Sqrt(lambda) + 5
		if d := math.Abs(float64(n) - lambda); d > tol {
			t.Errorf("window %d: %d arrivals vs expected %.1f (tolerance %.1f)", w, n, lambda, tol)
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if d := math.Abs(float64(total - cfg.Tasks)); d > 5*math.Sqrt(float64(cfg.Tasks)) {
		t.Errorf("total %d too far from configured %d", total, cfg.Tasks)
	}
}

func TestPoissonBurstEnvelope(t *testing.T) {
	cfg := DefaultGen(ShapePoissonBurst)
	cfg.Tasks = 20_000
	cfg.Windows = 60 // window = 1m, bursts are 1m every 10m: clean peaks
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, tr, cfg)
	// The burst windows must actually burst: the envelope's peak windows
	// carry BurstFactor× the baseline.
	exp := cfg.ExpectedPerWindow()
	lo, hi := exp[1], exp[0] // window 0 holds the burst (t ∈ [0, BurstLen))
	if hi/lo < cfg.BurstFactor*0.9 {
		t.Fatalf("burst window expectation %.1f not ~%.0f× baseline %.1f", hi, cfg.BurstFactor, lo)
	}
}

func TestDiurnalEnvelope(t *testing.T) {
	cfg := DefaultGen(ShapeDiurnal)
	cfg.Tasks = 20_000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, tr, cfg)
	// Day-night asymmetry: the busiest window's expectation is several
	// times the quietest's.
	exp := cfg.ExpectedPerWindow()
	lo, hi := exp[0], exp[0]
	for _, e := range exp {
		lo, hi = math.Min(lo, e), math.Max(hi, e)
	}
	if hi/lo < 3 {
		t.Fatalf("diurnal envelope too flat: max %.1f / min %.1f", hi, lo)
	}
}

func TestHeavyTailEnvelope(t *testing.T) {
	cfg := DefaultGen(ShapeHeavyTail)
	cfg.Tasks = 20_000
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, tr, cfg)
	// Durations must be heavy-tailed around the configured mean: median
	// well below it, p99 well above, mean within 10%.
	durs := make([]float64, len(tr.Tasks))
	var mean float64
	for i, r := range tr.Tasks {
		durs[i] = float64(r.DurNS)
		mean += float64(r.DurNS)
	}
	mean /= float64(len(durs))
	sort.Float64s(durs)
	p50 := durs[len(durs)/2]
	p99 := durs[len(durs)*99/100]
	if p50 >= float64(cfg.MeanDur) {
		t.Fatalf("median %.0f not below mean %v — not log-normal", p50, cfg.MeanDur)
	}
	if p99 < 5*p50 {
		t.Fatalf("p99/p50 = %.1f — tail too light for sigma %.1f", p99/p50, cfg.SigmaLog)
	}
	if math.Abs(mean-float64(cfg.MeanDur)) > 0.1*float64(cfg.MeanDur) {
		t.Fatalf("realised mean %.0f drifted from configured %v", mean, cfg.MeanDur)
	}
}

// TestGenerateDeterministic: same config = same bytes; different seed =
// different trace.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGen(ShapeDiurnal)
	cfg.Tasks = 500
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(cfg)
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("same config generated different traces")
	}
	cfg.Seed = 2
	c, _ := Generate(cfg)
	if bytes.Equal(encode(a), encode(c)) {
		t.Fatal("different seeds generated identical traces")
	}
}

// TestGenerateCohorts: cohorts share offsets and tenants, and with
// CohortDeps the root's write feeds the members' reads.
func TestGenerateCohorts(t *testing.T) {
	cfg := DefaultGen(ShapePoissonBurst)
	cfg.Tasks = 600
	cfg.CohortSize = 3
	cfg.CohortDeps = true
	cfg.Tenants = 5
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks)%3 != 0 {
		t.Fatalf("%d tasks is not whole cohorts of 3", len(tr.Tasks))
	}
	readers := 0
	for i := 0; i < len(tr.Tasks); i += 3 {
		root, m1, m2 := tr.Tasks[i], tr.Tasks[i+1], tr.Tasks[i+2]
		if m1.SubmitNS != root.SubmitNS || m2.SubmitNS != root.SubmitNS {
			t.Fatalf("cohort at %d does not share its offset", i)
		}
		if m1.Tenant != root.Tenant || m2.Tenant != root.Tenant {
			t.Fatalf("cohort at %d does not share its tenant", i)
		}
		if len(root.Writes) != 1 {
			t.Fatalf("cohort root at %d writes %v", i, root.Writes)
		}
		for _, m := range []Record{m1, m2} {
			if len(m.Reads) == 1 && m.Reads[0] == root.Writes[0].Data {
				readers++
			}
		}
	}
	if want := len(tr.Tasks) / 3 * 2; readers != want {
		t.Fatalf("%d cohort readers wired to their root, want %d", readers, want)
	}
	if got := tenants(tr); len(got) < 3 {
		t.Fatalf("tenant spread too narrow: %v", got)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(GenConfig{Shape: "square-wave", Tasks: 10, Horizon: time.Hour}); err == nil {
		t.Fatal("unknown shape accepted")
	}
	if _, err := Generate(GenConfig{Shape: ShapeDiurnal}); err == nil {
		t.Fatal("zero tasks/horizon accepted")
	}
}
