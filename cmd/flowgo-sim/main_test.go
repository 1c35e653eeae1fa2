package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// sim runs flowgo-sim in-process and returns what it printed.
func sim(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("flowgo-sim %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// wantLines fails unless every line of want is a line of out.
func wantLines(t *testing.T, out, want string) {
	t.Helper()
	have := map[string]bool{}
	for _, l := range strings.Split(out, "\n") {
		have[l] = true
	}
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		if !have[l] {
			t.Errorf("missing line %q in:\n%s", l, out)
		}
	}
}

// line returns the line of out that starts with prefix.
func line(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return ""
}

func listing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// drillListing is what TestCrashRestartDrill's run leaves on disk: the
// first base, two compacted bases (the writer's fold of a log) and the
// log beside each. The base names embed content digests, so a change to
// any byte of any base, folded bases included, shows here.
var drillListing = []string{
	"log-000001.ckpt",
	"log-000010.ckpt",
	"log-000019.ckpt",
	"snap-000001-977f62dcb8b81e4c.ckpt",
	"snap-000010-e0750c756995873e.ckpt",
	"snap-000019-6edaec1b711df135.ckpt",
}

// TestCrashRestartDrill checkpoints a faulted run into two directories
// up to a simulated process death, then restores from one. Base names
// embed content digests, so listings equal to drillListing show the
// checkpoint writer still writes the same bases, and the two directories'
// logs must hold the same bytes.
func TestCrashRestartDrill(t *testing.T) {
	dirs := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for _, dir := range dirs {
		out := sim(t, "-workload", "gwas", "-nodes", "8", "-faults", "crash@4m:hpc001",
			"-checkpoint", "every:25", "-checkpoint-dir", dir, "-halt-at", "8m")
		wantLines(t, out, `
faults:          1 scripted, 20 tasks killed, 0 re-executions
availability:    run-anyway (0 deferred, 3 ran-missing)
HALTED:          simulated process death at 8m0s — 562/2347 tasks completed; resume with -restore
makespan:        8m0s (simulated)
tasks completed: 562
data moved:      38.80 GB over 3s
utilisation:     39.2%
energy:          379006 J active, 883006 J total`)
	}
	for _, dir := range dirs {
		if got := listing(t, dir); !reflect.DeepEqual(got, drillListing) {
			t.Fatalf("checkpoint listing of %s:\n%v\nwant\n%v", dir, got, drillListing)
		}
	}
	for _, name := range drillListing[:3] {
		a, errA := os.ReadFile(filepath.Join(dirs[0], name))
		b, errB := os.ReadFile(filepath.Join(dirs[1], name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs between two identical runs (%v, %v)", name, errA, errB)
		}
	}
	out := sim(t, "-workload", "gwas", "-nodes", "8", "-restore", dirs[0])
	wantLines(t, out, `
restored:        515 tasks from snapshot 22 (`+dirs[0]+`)
makespan:        34m9s (simulated)
tasks completed: 1832
data moved:      76.60 GB over 6s
utilisation:     29.8%
energy:          1406695 J active, 3865788 J total`)
}

// TestCheckpointDrills runs the documented halt-then-restore drills
// without faults.
func TestCheckpointDrills(t *testing.T) {
	for _, c := range []struct {
		haltAt, halted, restored string
	}{
		{"5m", `
HALTED:          simulated process death at 5m0s — 334/2347 tasks completed; resume with -restore
data moved:      31.88 GB over 3s
energy:          207209 J active, 567209 J total`, `
restored:        325 tasks from snapshot 13 (DIR)
makespan:        36m12s (simulated)
tasks completed: 2022
data moved:      80.23 GB over 6s
energy:          1555064 J active, 4161321 J total`},
		{"8m", `
HALTED:          simulated process death at 8m0s — 593/2347 tasks completed; resume with -restore
data moved:      44.16 GB over 4s
energy:          399246 J active, 975246 J total`, `
restored:        575 tasks from snapshot 23 (DIR)
makespan:        33m14s (simulated)
tasks completed: 1772
data moved:      70.16 GB over 6s
energy:          1372177 J active, 3765100 J total`},
	} {
		dir := t.TempDir()
		wantLines(t, sim(t, "-workload", "gwas", "-nodes", "8", "-checkpoint", "every:25",
			"-checkpoint-dir", dir, "-halt-at", c.haltAt), c.halted)
		wantLines(t, sim(t, "-workload", "gwas", "-nodes", "8", "-restore", dir),
			strings.Replace(c.restored, "DIR", dir, 1))
	}
}

// TestPartitionAvailability checks that the cut bites under run-anyway
// and that defer removes every missing-input launch.
func TestPartitionAvailability(t *testing.T) {
	args := []string{"-workload", "partition", "-tasks", "8", "-nodes", "4", "-node-type", "cloud",
		"-faults", "cut@5s:hpc-cloud,heal@40s:hpc-cloud", "-availability"}
	if out := sim(t, append(args, "run-anyway")...); !strings.Contains(out, "(0 deferred, 8 ran-missing)") {
		t.Errorf("run-anyway:\n%s", out)
	}
	if out := sim(t, append(args, "defer")...); !strings.Contains(out, "(8 deferred, 0 ran-missing)") {
		t.Errorf("defer:\n%s", out)
	}
}

// TestTraceReplay generates a diurnal trace, writes it and the bench
// JSON, and replays the written file to the same makespan.
func TestTraceReplay(t *testing.T) {
	dir := t.TempDir()
	traceFile, benchFile := filepath.Join(dir, "diurnal.trace"), filepath.Join(dir, "bench.json")
	out := sim(t, "-workload", "diurnal", "-tasks", "2000", "-nodes", "16", "-seed", "7",
		"-trace-out", traceFile, "-bench-out", benchFile)
	if !strings.Contains(out, "queue wait") {
		t.Errorf("no latency block:\n%s", out)
	}
	data, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"p99_ms"`)) {
		t.Errorf("bench JSON has no p99_ms:\n%s", data)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema", "trace", "shape", "seed", "tasks", "nodes", "policy", "sim_makespan_seconds", "latency"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("bench JSON lacks %q", k)
		}
	}
	if doc["schema"] != 1.0 || doc["shape"] != "diurnal" || doc["seed"] != 7.0 {
		t.Errorf("bench JSON identity = schema %v shape %v seed %v", doc["schema"], doc["shape"], doc["seed"])
	}
	replay := sim(t, "-workload", "trace:"+traceFile, "-nodes", "16")
	if a, b := line(t, out, "makespan:"), line(t, replay, "makespan:"); a != b {
		t.Errorf("replay makespan %q, generated run %q", b, a)
	}
}

// TestMetricsSampling checks that two runs sample byte-identical series
// on the virtual clock and that the timeline is Chrome trace-event JSON.
func TestMetricsSampling(t *testing.T) {
	dir := t.TempDir()
	var series [2][]byte
	for i := range series {
		path := filepath.Join(dir, "metrics-"+string(rune('a'+i))+".txt")
		sim(t, "-workload", "gwas", "-nodes", "8", "-metrics-out", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		series[i] = data
	}
	if !bytes.Equal(series[0], series[1]) {
		t.Error("two runs sampled different series")
	}
	if !bytes.Contains(series[0], []byte("flowgo_tasks_completed_total")) {
		t.Errorf("series lacks flowgo_tasks_completed_total:\n%s", series[0])
	}
	timeline := filepath.Join(dir, "timeline.json")
	sim(t, "-workload", "gwas", "-nodes", "8", "-timeline-out", timeline)
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("empty timeline")
	}
}

// TestHaltedReplayPrintsReport: a replay halted mid-run reports the
// halt like any other workload instead of failing.
func TestHaltedReplayPrintsReport(t *testing.T) {
	out := sim(t, "-workload", "diurnal", "-tasks", "2000", "-nodes", "16", "-seed", "7", "-halt-at", "30m")
	wantLines(t, out, `
HALTED:          simulated process death at 30m0s — 2/2012 tasks completed; resume with -restore
tasks completed: 2`)
}

// TestReplayReportsFaultsAndStealing: a replay prints the faults and
// stealing lines its flags ask for.
func TestReplayReportsFaultsAndStealing(t *testing.T) {
	out := sim(t, "-workload", "diurnal", "-tasks", "2000", "-nodes", "16", "-seed", "7",
		"-faults", "crash@2h:hpc001", "-steal", "on-idle")
	wantLines(t, out, `
work stealing:   on-idle (0 stolen)
faults:          1 scripted, 0 tasks killed, 0 re-executions
makespan:        23h51m39s (simulated)
tasks completed: 2012`)
}

// TestParseSteal: there is one stealing mode; a threshold is its backlog
// bound, and threshold:0 is on-idle.
func TestParseSteal(t *testing.T) {
	for in, want := range map[string]engine.StealConfig{
		"off":          {},
		"on-idle":      {Mode: engine.StealOnIdle},
		"threshold:0":  {Mode: engine.StealOnIdle},
		"threshold:50": {Mode: engine.StealOnIdle, Threshold: 50},
	} {
		if got, err := parseSteal(in); err != nil || got != want {
			t.Errorf("parseSteal(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"threshold:-1", "threshold:x"} {
		if _, err := parseSteal(in); err == nil {
			t.Errorf("parseSteal(%q) accepted", in)
		}
	}
}

func TestRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "gwas", "-nodes", "0"}, "cannot be scheduled"},
		{[]string{"-workload", "bogus"}, `unknown workload "bogus"`},
		{[]string{"-steal", "banana"}, `unknown steal mode "banana"`},
		{[]string{"-faults", "crash@oops:n0"}, `bad offset "oops"`},
		{[]string{"-policy", "bogus"}, `unknown policy "bogus"`},
		{[]string{"-node-type", "edge"}, `unknown node type "edge"`},
		{[]string{"-autoscale", "gpu:2"}, `unknown autoscale tier "gpu"`},
		{[]string{"-workload", "gwas", "-trace-out", filepath.Join(t.TempDir(), "x.trace")}, "-trace-out needs a generated trace workload"},
		{[]string{"-workload", "trace:" + filepath.Join(t.TempDir(), "missing.trace")}, "no such file"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("flowgo-sim %s: err = %v, want %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

// TestDocumentedCommands pins the simulated lines of the commands the
// README, docs/FAULTS.md, docs/AUTOSCALING.md and the command's own
// header show.
func TestDocumentedCommands(t *testing.T) {
	for _, c := range []struct {
		cmd  string
		want string
	}{
		{"-workload gwas -nodes 16 -policy locality", `
workload:        gwas (2347 tasks)
pool:            16 × hpc (768 cores)
policy:          locality
makespan:        24m44s (simulated)
tasks completed: 2347
data moved:      179.57 GB over 14s
utilisation:     25.7%
energy:          1757553 J active, 5318843 J total
dep edges:       4623 RAW`},
		{"-workload nmmb -nodes 8 -policy eft", `
workload:        nmmb (64 tasks)
makespan:        1h25m0s (simulated)
tasks completed: 64
utilisation:     8.0%
energy:          944640 J active, 7064640 J total
dep edges:       107 RAW`},
		{"-workload mix -tasks 200 -nodes 4 -node-type fog -policy energy", `
pool:            4 × fog (16 cores)
makespan:        1h30m44s (simulated)
tasks completed: 200
utilisation:     87.7%
energy:          76355 J active, 119910 J total`},
		{"-workload gwas -nodes 8 -faults crash@2m:hpc001,slow@3m:hpc002x2", `
pool:            8 × hpc (336 cores)
faults:          2 scripted, 20 tasks killed, 2 re-executions
availability:    run-anyway (0 deferred, 3 ran-missing)
makespan:        46m55s (simulated)
tasks completed: 2349
data moved:      102.31 GB over 8s
energy:          1938086 J active, 4894036 J total`},
		{"-workload skew -nodes 8 -node-type fog -policy wait-fast -steal on-idle", `
workload:        skew (106 tasks)
pool:            1 × fast + 8 × fog (36 cores)
work stealing:   on-idle (100 stolen)
makespan:        3m20s (simulated)
utilisation:     36.1%`},
		{"-workload skew -tasks 400 -nodes 8 -node-type fog -policy wait-fast -steal on-idle", `
workload:        skew (421 tasks)
work stealing:   on-idle (400 stolen)
makespan:        10m0s (simulated)
utilisation:     46.8%
energy:          8000 J active, 17600 J total`},
		{"-workload gwas -nodes 4 -faults crash@2m:hpc001,slow@3m:hpc002x2,cut@4m:hpc000-hpc003,heal@6m:hpc000-hpc003", `
faults:          4 scripted, 20 tasks killed, 5 re-executions
availability:    run-anyway (0 deferred, 1 ran-missing)
makespan:        1h49m16s (simulated)
tasks completed: 2352
data moved:      52.23 GB over 4s
energy:          2123526 J active, 5073931 J total`},
		{"-workload partition -tasks 8 -nodes 4 -node-type cloud -faults cut@5s:hpc-cloud,heal@40s:hpc-cloud -availability defer", `
pool:            1 × a-src0 + 4 × cloud (36 cores)
faults:          2 scripted, 0 tasks killed, 0 re-executions
availability:    defer (8 deferred, 0 ran-missing)
makespan:        48s (simulated)
data moved:      0.20 GB over 1s
energy:          410 J active, 8075 J total
dep edges:       16 RAW`},
		{"-workload partition -tasks 8 -nodes 4 -node-type cloud -faults cut@5s:hpc-cloud -availability recompute", `
faults:          1 scripted, 0 tasks killed, 1 re-executions
availability:    recompute (8 deferred, 0 ran-missing)
makespan:        20s (simulated)
tasks completed: 11
energy:          430 J active, 3636 J total`},
		{"-workload partition -tasks 8 -nodes 4 -node-type cloud -faults cut@5s:hpc-cloud,heal@1m5s:hpc-cloud -availability defer", `
availability:    defer (8 deferred, 0 ran-missing)
makespan:        1m13s (simulated)
energy:          410 J active, 12075 J total`},
		{"-workload gwas -nodes 8 -faults crash@4m:hpc001", `
faults:          1 scripted, 20 tasks killed, 2 re-executions
availability:    run-anyway (0 deferred, 4 ran-missing)
makespan:        43m54s (simulated)
tasks completed: 2349
data moved:      103.10 GB over 8s
energy:          1757913 J active, 4523133 J total`},
		{"-workload gwas -nodes 8 -faults slow@3m:hpc002x2,cut@4m:hpc000-hpc003,heal@9m:hpc000-hpc003", `
faults:          3 scripted, 0 tasks killed, 0 re-executions
makespan:        42m36s (simulated)
data moved:      112.04 GB over 9s
energy:          1921147 J active, 4988793 J total`},
		{"-workload gwas -nodes 8", `
makespan:        39m55s (simulated)
data moved:      111.38 GB over 9s
utilisation:     31.8%
energy:          1757553 J active, 4631717 J total`},
		{"-workload diurnal -tasks 2000 -nodes 16", `
workload:        diurnal (1940 tasks, arrival span 23h56m38s)
makespan:        23h57m8s (simulated)
tasks completed: 1940
utilisation:     0.1%
latency: 1940/1940 tasks completed, makespan 86103068.2ms
  end-to-end  p50 30000.00ms  p95 30000.00ms  p99 30000.00ms  max 30000.00ms
  tenant tenant-0      460 tasks  queue p99 0.00ms  makespan 78006002.3ms
  tenant tenant-3      503 tasks  queue p99 0.00ms  makespan 83576127.0ms`},
		// The autoscale example starts from one fog node, so the trace
		// needs the elastic tiers.
		{"-workload diurnal -tasks 5000 -nodes 1 -node-type fog -autoscale cloud:4,fog:8 -quota 32", `
makespan:        24h0m40s (simulated)
tasks completed: 5086
autoscale:       57 grow, 399 shrink, 8188 hold decisions
admission:       5086 admitted, 0 queued, 0 released, 0 rejected
  queue wait  p50 36046.80ms  p95 105491.14ms  p99 130460.73ms  max 182050.23ms
  tenant tenant-1     1273 tasks  queue p99 141178.93ms  makespan 82653077.9ms`},
		{"-workload diurnal -tasks 200000 -nodes 64 -metrics-addr 127.0.0.1:0", `
workload:        diurnal (199947 tasks, arrival span 23h59m44s)
makespan:        24h0m14s (simulated)
tasks completed: 199947
utilisation:     2.3%
latency: 199947/199947 tasks completed, makespan 86405413.1ms`},
	} {
		if testing.Short() && strings.Contains(c.cmd, "200000") {
			continue
		}
		wantLines(t, sim(t, strings.Fields(c.cmd)...), c.want)
	}
}
