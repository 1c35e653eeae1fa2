package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"repro/internal/infra"
)

// smallRuns runs every workload once per pass at 1/100 size and caches the
// results, so the tests below share one set of runs. The workloads run side
// by side to stay within tier-1's time: the tests check outputs and names,
// never a timing.
var smallRuns struct {
	once sync.Once
	dir  string
	runs map[string][2]runResult // workload -> [end-to-end pass, per-layer pass]
}

func small(t *testing.T) (map[string][2]runResult, string) {
	t.Helper()
	smallRuns.once.Do(func() {
		dir, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			t.Fatal(err)
		}
		smallRuns.dir = dir
		smallRuns.runs = map[string][2]runResult{}
		pairs := make([][2]runResult, len(workloads))
		var wg sync.WaitGroup
		for i := range workloads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for pass, traced := range []bool{false, true} {
					pairs[i][pass] = runWorkload(&workloads[i], options{seed: 1, reps: 2, scale: 0.01, trace: traced, outDir: dir})
				}
			}(i)
		}
		wg.Wait()
		for i, w := range workloads {
			smallRuns.runs[w.Name] = pairs[i]
		}
	})
	return smallRuns.runs, smallRuns.dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smallRuns.dir != "" {
		_ = os.RemoveAll(smallRuns.dir)
	}
	os.Exit(code)
}

func TestWorkloadsPassTheirChecksAtSmallSize(t *testing.T) {
	runs, _ := small(t)
	for name, pair := range runs {
		for _, r := range pair {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (trace=%v): %d of %d failed: %v", name, r.Trace, r.Failed, r.Attempted, r.Failures)
			}
		}
		for _, m := range endToEnd {
			if v := pair[0].Metrics[m.Name]; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v)
			}
		}
	}
	// The predicted zeros of the per-layer pass.
	zero := func(workload, metric string) {
		if v := runs[workload][1].Metrics[metric]; v != 0 {
			t.Errorf("%s: %s = %v, want 0", workload, metric, v)
		}
	}
	zero("sim-wide", "deps.batch_ns_per_task")
	zero("sim-wide", "transfer.plan_ns")
	zero("sim-wide", "transfer.moves_per_task")
	zero("live-dag", "simclock.event_ns")
	zero("agent-http", "simclock.event_ns")
	for name := range runs {
		if name != "sim-restart" {
			zero(name, "checkpoint.saves")
		}
	}
	if v := runs["sim-restart"][1].Metrics["checkpoint.saves"]; v <= 0 {
		t.Errorf("sim-restart: checkpoint.saves = %v, want > 0", v)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	strip := func(list []metricDef, bound bool) []metricDef {
		out := make([]metricDef, len(list))
		for i, m := range list {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if bound {
				out[i].Bound = m.Bound
			}
		}
		return out
	}
	if got, want := strip(bj.EndToEnd, true), strip(endToEnd, true); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, want)
	}
	if got, want := strip(bj.PerLayer, false), strip(perLayer, false); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n json %v\n code %v", got, want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %q %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}

	// What a run emits equals what BENCHMARK.json lists, in both directions.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	runs, _ := small(t)
	for _, w := range bj.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
		pair, ok := runs[w.Name]
		if !ok {
			t.Errorf("workload %q of BENCHMARK.json was not run", w.Name)
			continue
		}
		listed := map[string]bool{}
		for _, m := range append(append([]metricDef(nil), bj.EndToEnd...), bj.PerLayer...) {
			listed[m.Name] = true
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %+v: bad name, unit or direction", m)
			}
		}
		for pass, list := range [][]metricDef{bj.EndToEnd, bj.PerLayer} {
			// Everything the run measured (what printRun prints) is listed ...
			emitted := pair[pass].Metrics
			for n := range emitted {
				if !listed[n] {
					t.Errorf("%s (pass %d) emits %s, which BENCHMARK.json does not list", w.Name, pass, n)
				}
			}
			// ... and the pass's own list is measured in full.
			for _, m := range list {
				if _, ok := emitted[m.Name]; !ok {
					t.Errorf("%s (pass %d) does not emit %s", w.Name, pass, m.Name)
				}
			}
		}
	}
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// specDigest hashes every field of a spec list the program under test can
// see.
func specDigest(specs []infra.TaskSpec) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, s := range specs {
		put(s.ID)
		h.Write([]byte(s.Class))
		put(int64(s.Duration))
		h.Write([]byte(s.Constraints.Signature()))
		for _, a := range s.Accesses {
			put(int64(a.Data))
			put(int64(a.Dir))
			put(s.OutputBytes[a.Data])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func TestGeneratorsAreSeeded(t *testing.T) {
	if a, b := specDigest(wideSpecs(1, 2000)), specDigest(wideSpecs(1, 2000)); a != b {
		t.Error("wideSpecs differs for one seed")
	}
	if specDigest(wideSpecs(1, 2000)) == specDigest(wideSpecs(2, 2000)) {
		t.Error("wideSpecs is the same for two seeds")
	}
	if a, b := specDigest(stencilSpecs(1, 64, 16).specs), specDigest(stencilSpecs(1, 64, 16).specs); a != b {
		t.Error("stencilSpecs differs for one seed")
	}
	if specDigest(stencilSpecs(1, 64, 16).specs) == specDigest(stencilSpecs(2, 64, 16).specs) {
		t.Error("stencilSpecs is the same for two seeds")
	}
	if !reflect.DeepEqual(liveSpecFor(1, 4, 10), liveSpecFor(1, 4, 10)) || reflect.DeepEqual(liveSpecFor(1, 4, 10), liveSpecFor(2, 4, 10)) {
		t.Error("liveSpecFor is not a function of the seed alone")
	}
	ring := agentPayloadRing(1)
	if !reflect.DeepEqual(ring, agentPayloadRing(1)) || reflect.DeepEqual(ring, agentPayloadRing(2)) {
		t.Error("agentPayloadRing is not a function of the seed alone")
	}
	for _, p := range ring[:16] {
		if len(p) != 56 || !json.Valid(p) {
			t.Errorf("payload %q: want 56 bytes of valid JSON, got %d", p, len(p))
		}
	}
}

func TestStencilShape(t *testing.T) {
	st := stencilSpecs(1, stencilCells, 2*reduceEvery)
	if got, want := len(st.specs), 2*reduceEvery*stencilCells+2*reduceWays; got != want {
		t.Errorf("stencil has %d tasks, want %d", got, want)
	}
	if got, want := criticalPath(st.specs), 2*reduceEvery+1; got != want {
		t.Errorf("critical path %d, want %d: the stencil has serialised", got, want)
	}
}

func TestSpanFilesParseAndParentsExist(t *testing.T) {
	_, dir := small(t)
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var f traceFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Errorf("%s: span file does not parse: %v", w.Name, err)
			continue
		}
		ids := map[int]bool{0: true}
		for _, e := range f.TraceEvents {
			ids[e.Args.ID] = true
		}
		if len(f.TraceEvents) == 0 {
			t.Errorf("%s: no spans", w.Name)
		}
		for _, e := range f.TraceEvents {
			if !ids[e.Args.Parent] {
				t.Errorf("%s: span %q has parent %d, which does not exist", w.Name, e.Name, e.Args.Parent)
			}
			if e.Dur < 0 || e.Ph != "X" {
				t.Errorf("%s: span %q is malformed: %+v", w.Name, e.Name, e)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	cases := []struct {
		m              metricDef
		parent, change []float64
		want           string
	}{
		{lower, []float64{100, 101, 99}, []float64{105, 104, 106}, verdictOK},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictWorse},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictWorse},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictOK},
		{lower, []float64{100, 140, 60}, []float64{120, 150, 90}, verdictUnresolved},
		{lower, []float64{100, 140, 90}, []float64{50, 80, 40}, verdictOK}, // noisy, but every run better
	}
	for i, c := range cases {
		if got := judge(c.m, c.parent, c.change); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

// A change that alters the simulated outcome must not pass -compare, even on
// untraced ledgers, where the figure is not one of the driver's end-to-end
// metrics.
func TestCompareGatesSimulatedOutcome(t *testing.T) {
	set := func(makespan float64) ledger {
		m := map[string]float64{"infra.sim_makespan_s": makespan}
		for _, e := range endToEnd {
			m[e.Name] = 1
		}
		return ledger{Runs: []runResult{{Workload: "sim-wide", Metrics: m, Attempted: 1}}}
	}
	if code := compareLedgers(set(1000), set(1000)); code != 0 {
		t.Errorf("identical ledgers: exit code %d, want 0", code)
	}
	if code := compareLedgers(set(1000), set(1010)); code != 1 {
		t.Errorf("makespan 1%% longer: exit code %d, want 1", code)
	}
}

func TestNormalizeArgs(t *testing.T) {
	cases := map[string][]string{
		"-trace":                    {"-trace=1"},
		"--trace 0 --seed 3":        {"--trace", "0", "--seed", "3"},
		"--trace 1":                 {"--trace", "1"},
		"-trace -workload live-dag": {"-trace=1", "-workload", "live-dag"},
	}
	for in, want := range cases {
		if got := normalizeArgs(regexp.MustCompile(` +`).Split(in, -1)); !reflect.DeepEqual(got, want) {
			t.Errorf("%q: got %v, want %v", in, got, want)
		}
	}
}
