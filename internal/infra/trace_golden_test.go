package infra_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from this run")

// goldenTraceRun is one small traced stencil that reaches every kind of
// event the tracer renders: sized inputs staged across four nodes (so
// data_transfer), a crash mid-wave (task_failed, task_recovered, the
// node milestone and lineage recompute), and a cut under the default
// run-anyway policy that leaves a reader with an input it cannot fetch
// (data_unavailable, link_cut, link_healed).
func goldenTraceRun(t *testing.T) *trace.Tracer {
	t.Helper()
	const cells, iters, nodes = 8, 4, 4
	specs, stageIn, holders := stencilSpecs(cells, iters, nodes)
	pool := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("s%03d", i), resources.Description{
			Cores: 2, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 1,
		}))
	}
	script, err := faults.Parse("crash@100s:s001,cut@200s:s000-s002,cut@200s:s000-s003,heal@500s:s000-s002,heal@500s:s000-s003")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	sim, err := infra.New(infra.Config{
		Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 100, Latency: time.Millisecond}),
		Policy: sched.Locality{}, StageIn: stageIn, StageInNodes: holders,
		Tracer: tr, Faults: script,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksCompleted != len(specs) {
		t.Fatalf("completed %d of %d", res.TasksCompleted, len(specs))
	}
	return tr
}

// TestTraceMatchesGolden pins what a traced run reads back: the JSON of
// Events() and the Chrome export, byte for byte, against the files under
// testdata/. A change to how the tracer stores or renders events must
// leave both unchanged; rerun with -update only when the events
// themselves are meant to move, and say why.
func TestTraceMatchesGolden(t *testing.T) {
	tr := goldenTraceRun(t)
	for _, kind := range []trace.Kind{
		trace.DataTransfer, trace.DataUnavailable, trace.TaskFailed, trace.TaskRecovered,
		trace.NodeFailed, trace.LinkCut, trace.LinkHealed,
	} {
		if tr.Count(kind) == 0 {
			t.Errorf("the golden run emits no %s event", kind)
		}
	}
	events, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := tr.ExportChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"trace.golden.json":  events,
		"chrome.golden.json": chrome.Bytes(),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from this run (%d bytes, want %d); first difference at byte %d",
				path, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
