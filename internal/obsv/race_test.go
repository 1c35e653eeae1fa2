package obsv

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// These tests are race-detector food for the lock-cheap paths: many
// writers on one counter or histogram, Visit walking the registry while
// writers mutate it, and instrument resolution racing sampling. They
// assert exact totals where the API promises them (counters and
// histogram counts are conserved) and run under -race in CI.

func TestCounterConcurrentExactTotal(t *testing.T) {
	const goroutines, perG = 16, 10000
	r := NewRegistry()
	c := r.Counter("churn_total", "test", "")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramConcurrentConserved(t *testing.T) {
	const goroutines, perG = 8, 5000
	r := NewRegistry()
	h := r.Histogram("lat", "test", "", ExpBuckets(0.001, 2, 10))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g + 1)) // per-goroutine constant: exact expected sum
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram lost observations: %d, want %d", got, goroutines*perG)
	}
	var bucketTotal int64
	for _, n := range h.BucketCounts() {
		bucketTotal += n
	}
	if bucketTotal != goroutines*perG {
		t.Fatalf("bucket counts sum to %d, want %d", bucketTotal, goroutines*perG)
	}
	// Sum is CAS-accumulated: every observation lands exactly once.
	want := float64(perG) * float64(goroutines*(goroutines+1)) / 2
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, want)
	}
}

// TestVisitDuringWrites samples the registry continuously while writers
// hammer every instrument kind and new series appear mid-flight. Visit
// must never see a torn name, a vanished instrument, or a decreasing
// counter sample.
func TestVisitDuringWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "test", "")
	g := r.Gauge("depth", "test", "")
	h := r.Histogram("wait", "test", "", []float64{1, 10, 100})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			g.Set(int64(i % 64))
			h.Observe(float64(i % 200))
		}
	}()
	go func() { // registration racing the visit cache rebuild
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Counter("ops_total", "test", Labels("lane", fmt.Sprintf("l%d", i%32))).Inc()
		}
	}()
	go func() {
		defer wg.Done()
		last := map[string]float64{}
		for i := 0; i < 2000; i++ {
			r.Visit(func(sample string, v float64) {
				if sample == "" {
					t.Error("empty sample name")
				}
				if sample == "ops_total" || sample == "wait_count" {
					if prev, ok := last[sample]; ok && v < prev {
						t.Errorf("%s went backwards: %v -> %v", sample, prev, v)
					}
					last[sample] = v
				}
			})
		}
		close(stop)
	}()
	wg.Wait()
}

// TestRegistryConcurrentResolve resolves the same and different series
// from many goroutines at once; every resolver of one (name, labels)
// pair must get the same instrument, and the family set must end
// consistent.
func TestRegistryConcurrentResolve(t *testing.T) {
	r := NewRegistry()
	const goroutines = 12
	ptrs := make([]*Counter, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ptrs[g] = r.Counter("shared_total", "test", Labels("k", "v"))
				r.Gauge(fmt.Sprintf("own_%d", g), "test", "").Set(int64(i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ptrs[g] != ptrs[0] {
			t.Fatalf("goroutine %d resolved a different instrument for the same series", g)
		}
	}
	ptrs[0].Inc()
	found := false
	r.Visit(func(sample string, v float64) {
		if sample == `shared_total{k="v"}` {
			found = true
			if v != 1 {
				t.Fatalf("shared counter = %v, want 1", v)
			}
		}
	})
	if !found {
		t.Fatal("shared series missing from Visit walk")
	}
}
