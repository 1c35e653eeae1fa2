package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdicts of one metric x workload comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readLedger(path string) (ledger, error) {
	var l ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// compareFiles compares result file b (the change) against a (the parent)
// and returns the process exit code.
func compareFiles(a, b string) int {
	la, errA := readLedger(a)
	lb, errB := readLedger(b)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareLedgers(la, lb)
}

// samplesOf returns the per-repetition samples behind a metric, or the
// single value when the run kept none.
func samplesOf(r runResult, name string) []float64 {
	if s := r.Samples[name]; len(s) > 0 {
		return s
	}
	return []float64{r.Metrics[name]}
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	s := (quantile(v, 0.75) - quantile(v, 0.25)) / m
	if s < 0 {
		return -s
	}
	return s
}

// judge compares the change's samples with the parent's under a metric's
// direction and bound. A median worse by more than the bound is "worse"; but
// where either side's own spread exceeds the bound the runs cannot resolve a
// difference of that size, so the answer is "unresolved" — unless every run
// of the change beats every run of the parent.
func judge(m metricDef, parent, change []float64) string {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	pm, cm := median(parent), median(change)
	worsening := 0.0
	if pm != 0 {
		worsening = sign * (cm - pm) / pm
	}
	if max(spread(parent), spread(change)) > m.Bound {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				if sign*(c-p) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening > m.Bound {
		return verdictWorse
	}
	return verdictOK
}

// compareLedgers prints, per end-to-end metric x workload, both medians, both
// quartile spreads and the verdict against the metric's bound. The
// workload-specific figures that carry a bound of their own (simulated
// makespan and bytes moved, restore time, the round-trip percentiles) are
// judged the same way on the workloads that measure them, so a change that
// alters the simulated outcome does not pass unnoticed. The remaining
// per-layer figures of traced runs are printed without a verdict. It returns
// 1 when any verdict is "worse" or a run failed its output checks, 0
// otherwise.
func compareLedgers(a, b ledger) int {
	find := func(l ledger, workload string, traced bool) *runResult {
		for i := range l.Runs {
			if l.Runs[i].Workload == workload && l.Runs[i].Trace == traced {
				return &l.Runs[i]
			}
		}
		return nil
	}
	code := 0
	if a.Header.Loaded || b.Header.Loaded {
		fmt.Println("# WARNING: at least one side was taken on a loaded machine")
	}
	if a.Header.Seed != b.Header.Seed || a.Header.Seconds != b.Header.Seconds || a.Header.Reps != b.Header.Reps {
		fmt.Printf("# WARNING: the sides differ in seed, reps or seconds (parent %d/%d/%g, change %d/%d/%g): only allocation counts compare across inputs\n",
			a.Header.Seed, a.Header.Reps, a.Header.Seconds, b.Header.Seed, b.Header.Reps, b.Header.Seconds)
	}
	fmt.Printf("%-28s %-13s %14s %14s %8s %8s %7s  %s\n", "metric", "workload", "parent", "change", "iqr_p", "iqr_c", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := find(a, w.Name, false), find(b, w.Name, false)
		if ra == nil || rb == nil {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Printf("%-28s %-13s output checks failed (parent %d, change %d)\n", "failed", w.Name, ra.Failed, rb.Failed)
			code = 1
		}
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			va, inA := ra.Metrics[m.Name]
			vb, inB := rb.Metrics[m.Name]
			if m.Bound == 0 || !inA || !inB || (va == 0 && vb == 0) {
				continue // no bound, or not a figure of this workload
			}
			pa, pb := samplesOf(*ra, m.Name), samplesOf(*rb, m.Name)
			v := judge(m, pa, pb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Printf("%-28s %-13s %14.6g %14.6g %8.4f %8.4f %7.3f  %s\n",
				m.Name, w.Name, median(pa), median(pb), spread(pa), spread(pb), m.Bound, v)
		}
	}
	for _, w := range workloads {
		ra, rb := find(a, w.Name, true), find(b, w.Name, true)
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range perLayer {
			if va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]; va != 0 || vb != 0 {
				fmt.Printf("%-28s %-13s %14.6g %14.6g %8s %8s %7s  per-layer\n", m.Name, w.Name, va, vb, "-", "-", "-")
			}
		}
	}
	return code
}
