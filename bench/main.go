// Command bench is flowgo's performance ledger: one program that times every
// path a user can take — the full simulator, the live runtime, a
// crash-restart campaign and the agent's HTTP front door — end to end, and
// prices every layer under them from outside, through its public API.
//
//	go run ./bench                        # all workloads, end to end
//	go run ./bench -trace                 # ... then the per-layer pass
//	go run ./bench -workload sim-wide     # one workload, in this process
//	go run ./bench -compare a.json b.json # parent vs change
//	go run ./bench -selfcheck             # two sets of the same code
//
// See README.md in this directory for the workloads and the metric glossary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runResult is one workload run (one pass) as stored in the result file.
type runResult struct {
	Workload  string               `json:"workload"`
	Trace     bool                 `json:"trace"`
	Seed      int64                `json:"seed"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Notes     map[string]float64   `json:"notes,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
}

// ledger is the result file: the header and every run of one invocation.
type ledger struct {
	Header header      `json:"header"`
	Runs   []runResult `json:"runs"`
}

// driverResult is the last line of a single-workload run's standard output.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// armSpans returns the span recorder for the traced arm of the per-layer
// pass and nil everywhere else.
func (b *bench) armSpans(rep int) *spanRec {
	if b.trace && rep == tracedArm {
		b.spans.nextRun()
		return b.spans
	}
	return nil
}

// runWorkload executes one workload in this process and returns its result.
func runWorkload(w *workloadDef, o options) runResult {
	b := newBench(w.Name, o)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		b.failf(1, "output directory: %v", err)
	}
	w.run(b)
	b.set("peak_mem_mb", peakMemMB())
	if b.attempted == 0 {
		b.attempt(1)
		b.failf(1, "nothing was attempted")
	}

	if o.trace {
		for _, m := range perLayer {
			if _, ok := b.metrics[m.Name]; !ok {
				b.metrics[m.Name] = 0 // the layer did no work on this workload
			}
		}
		if err := b.spans.write(filepath.Join(o.outDir, "trace-"+w.Name+".json")); err != nil {
			b.failf(1, "span file: %v", err)
		}
	} else {
		for _, m := range endToEnd {
			if _, ok := b.metrics[m.Name]; !ok {
				b.failf(1, "metric %s was not measured", m.Name)
			}
		}
	}
	b.cleanScratch()

	res := runResult{
		Workload: w.Name, Trace: o.trace, Seed: o.seed,
		Metrics: b.metrics, Samples: b.samples, Notes: map[string]float64{},
		Attempted: b.attempted, Failed: b.failed, Failures: b.failures,
	}
	for _, n := range b.notes {
		res.Notes[n.name] = n.value
	}
	return res
}

// cleanScratch removes this run's checkpoint directories.
func (b *bench) cleanScratch() {
	matches, _ := filepath.Glob(filepath.Join(b.outDir, fmt.Sprintf("tmp-%s-%d-*", b.workload, os.Getpid())))
	for _, m := range matches {
		_ = os.RemoveAll(m)
	}
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// printRun prints every figure of a run as "name workload value unit".
func printRun(r runResult) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %-13s %s %s\n", name, r.Workload, strconv.FormatFloat(r.Metrics[name], 'g', -1, 64), unitOf(name))
	}
	for name, v := range r.Notes {
		fmt.Printf("%-40s %-13s %s (note)\n", name, r.Workload, strconv.FormatFloat(v, 'g', -1, 64))
	}
	fmt.Printf("%-40s %-13s %s ratio\n", "failed_frac", r.Workload,
		strconv.FormatFloat(ratio(float64(r.Failed), float64(r.Attempted)), 'g', -1, 64))
	for _, f := range r.Failures {
		fmt.Printf("CHECK FAILED %s: %s\n", r.Workload, f)
	}
}

// printDriverLine prints the one-object summary the benchmark contract asks
// for as the last line of output: the pass's own metric list, nothing else.
func printDriverLine(r runResult) {
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	out := driverResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range list {
		out.Metrics[m.Name] = driverValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// normalizeArgs lets -trace stand alone (the documented switch) while still
// accepting the driver's "--trace 0|1" form, which a boolean flag cannot.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				a += "=1"
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	reps := fs.Int("reps", 3, "timed repetitions per workload (ignored when -seconds is set)")
	seconds := fs.Float64("seconds", 0, "measure each workload for at least this long instead of -reps repetitions")
	traceFlag := fs.Int("trace", 0, "1: run the per-layer pass (spans, layer replays, counts); alone means 1")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for results, span files and checkpoint scratch")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	selfcheck := fs.Bool("selfcheck", false, "run two sets back to back and compare them")
	resultPath := fs.String("result", "", "result file (default <out>/result.json when running all workloads; none for one)")
	_ = fs.Parse(normalizeArgs(os.Args[1:]))

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(fs.Arg(0), fs.Arg(1)))
	}
	if *reps < 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1, -seconds not negative")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, scale: 1, trace: *traceFlag != 0, outDir: *outDir}
	hdr := readHeader(o)

	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		hdr.print()
		res := runWorkload(w, o)
		printRun(res)
		if *resultPath != "" {
			if err := writeLedger(*resultPath, ledger{Header: hdr, Runs: []runResult{res}}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		printDriverLine(res)
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	hdr.print()
	if *selfcheck {
		a, okA := runSet(hdr, o, false, filepath.Join(o.outDir, "selfcheck-a.json"))
		b, okB := runSet(hdr, o, false, filepath.Join(o.outDir, "selfcheck-b.json"))
		code := compareLedgers(a, b)
		if !okA || !okB {
			code = 1
		}
		os.Exit(code)
	}
	path := *resultPath
	if path == "" {
		path = filepath.Join(o.outDir, "result.json")
	}
	if _, ok := runSet(hdr, o, o.trace, path); !ok {
		os.Exit(1)
	}
}

// runSet runs every workload once, each in a fresh process of this same
// binary (fresh heap, its own set-up time and peak memory), end to end first
// and — when asked — the per-layer pass afterwards. It reports whether every
// check passed.
func runSet(hdr header, o options, withTrace bool, path string) (ledger, bool) {
	out := ledger{Header: hdr}
	ok := true
	passes := []bool{false}
	if withTrace {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		for _, w := range workloads {
			res, err := runChild(w.Name, o, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				ok = false
				continue
			}
			ok = ok && res.Failed == 0
			out.Runs = append(out.Runs, res)
		}
	}
	if err := writeLedger(path, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		ok = false
	}
	return out, ok
}

// runChild re-executes this binary for one workload and reads its result
// back from a file.
func runChild(workload string, o options, traced bool) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return runResult{}, err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("child-%d-%s.json", os.Getpid(), workload))
	defer os.Remove(path)
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-reps", strconv.Itoa(o.reps), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", t,
		"-out", o.outDir, "-result", path)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a failed check exits 1 but still leaves a result
	// Pass the child's figures through, minus the header it repeats and the
	// one-line JSON summary meant for the benchmark driver.
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "{") {
			fmt.Print(line)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return runResult{}, runErr
		}
		return runResult{}, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil || len(l.Runs) != 1 {
		return runResult{}, fmt.Errorf("child result unreadable: %v", err)
	}
	return l.Runs[0], nil
}

func writeLedger(path string, l ledger) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
