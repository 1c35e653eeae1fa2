package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obsv"
)

// processStart approximates the moment the process began (package
// initialisation runs before main), the origin of setup_s.
var processStart = time.Now()

// setUpRepeats is how many times a full-size workload sets itself up; setup_s
// is the median, which steadies a figure that is otherwise a single sample
// (the benchmark driver gates it, so it has to hold still within one run).
const setUpRepeats = 3

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds float64 // measure for at least this long (0 = use reps)
	reps    int     // timed repetitions when seconds is 0
	scale   float64 // input size relative to ISSUE 12's; 1 from the command line, less in tests
	trace   bool    // per-layer pass: spans, obsv registry, layer replays
	outDir  string  // traces, results and checkpoint scratch
}

// bench is the state of one workload run: options in, metrics and check
// results out.
type bench struct {
	options
	workload string
	spans    *spanRec // nil unless tracing

	metrics   map[string]float64
	samples   map[string][]float64 // per-repetition values behind a median
	notes     []note
	attempted int64
	failed    int64
	failures  []string
}

// note is a figure printed beside the metrics (sample counts, sizes) that is
// not itself a metric of the ledger.
type note struct {
	name  string
	value float64
}

func newBench(workload string, o options) *bench {
	b := &bench{options: o, workload: workload, metrics: map[string]float64{}, samples: map[string][]float64{}}
	if o.trace {
		b.spans = newSpanRec()
	}
	return b
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// setMedian sets a metric to the median of its per-repetition samples and
// keeps the samples, which -compare uses for the run-to-run spread.
func (b *bench) setMedian(name string, samples []float64) {
	b.samples[name] = samples
	b.metrics[name] = median(samples)
}

func (b *bench) note(name string, v float64) { b.notes = append(b.notes, note{name, v}) }

// attempt counts operations whose outcome is checked.
func (b *bench) attempt(n int) { b.attempted += int64(n) }

// failf counts n failed operations and keeps the reason.
func (b *bench) failf(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.failed += int64(n)
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and fails it unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempt(1)
	if !ok {
		b.failf(1, format, args...)
	}
}

// full reports whether the run uses ISSUE 12's input sizes; shape
// preconditions tuned to those sizes are only asserted then.
func (b *bench) full() bool { return b.scale == 1 }

// setUp runs fn — everything between process start and the first timed
// repetition — and records how long it took. Full-size runs repeat it, as the
// driver's contract asks, and report the median; the products of the last
// round are the ones used. Every round's sample starts at process start: the
// later rounds carry what the process spent before its first set-up, so a
// start-up cost is in the median and not only in the round it dropped.
func (b *bench) setUp(fn func()) {
	rounds := 1
	if b.full() && !b.trace {
		rounds = setUpRepeats
	}
	before := time.Since(processStart)
	var setups []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		fn()
		setups = append(setups, (before + time.Since(t0)).Seconds())
	}
	b.setMedian("setup_s", setups)
}

// minTimedReps is the fewest repetitions a time-driven run makes: three, so
// that the median is a real sample and one disturbed repetition (the first,
// which grows the heap, or one that met a noisy neighbour) cannot move it.
const minTimedReps = 3

// repeat calls fn for each timed repetition: b.reps times, or — when a
// measuring time is given — until that time is used up and minTimedReps
// repetitions are in.
func (b *bench) repeat(fn func(rep int)) int {
	start := time.Now()
	rep := 0
	for {
		fn(rep)
		rep++
		if b.trace {
			if rep == traceArms {
				return rep
			}
		} else if b.seconds > 0 {
			if rep >= minTimedReps && time.Since(start).Seconds() >= b.seconds {
				return rep
			}
		} else if rep >= b.reps {
			return rep
		}
	}
}

// The per-layer pass runs three repetitions: untraced, traced, untraced. The
// traced arm gives the spans and counts; the untraced arms on either side of
// it give the wall it is compared with, so that a drift over the run (heap
// growth, frequency) does not pass for tracing overhead.
const (
	traceArms = 3
	tracedArm = 1
)

// endToEndSample reports whether repetition i is an end-to-end sample: every
// repetition but the traced arm of the per-layer pass.
func (b *bench) endToEndSample(i int) bool { return !b.trace || i != tracedArm }

// registryFor returns the obsv registry of a repetition: a fresh one for the
// traced arm, whose counts the per-layer pass reads, and none otherwise.
func registryFor(sp *spanRec) *obsv.Registry {
	if sp == nil {
		return nil
	}
	return obsv.NewRegistry()
}

// setTraceOverhead compares the traced arm's cost per unit of work with the
// mean of the untraced arms'. Where only the traced arm was given an obsv
// registry (withRegistry), the same figure is what observability costs the
// run: the spans themselves are a handful per repetition.
func (b *bench) setTraceOverhead(cost []float64, withRegistry bool) {
	if !b.trace || len(cost) != traceArms {
		return
	}
	over := cost[tracedArm]/((cost[0]+cost[2])/2) - 1
	b.set("bench.trace_overhead_frac", over)
	if withRegistry {
		b.set("obsv.run_overhead_frac", over)
	}
}

// scratch returns a fresh directory under the output directory. The
// benchmark writes nowhere else.
func (b *bench) scratch(name string) string {
	dir := filepath.Join(b.outDir, fmt.Sprintf("tmp-%s-%d-%s", b.workload, os.Getpid(), name))
	_ = os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.failf(1, "scratch dir: %v", err)
	}
	return dir
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
