package infra_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// goldenMeteredRun is one small metered simulation that moves every
// series the engine and the admission controller report: a stencil's
// sized inputs staged across four fast nodes (transfers), short tasks
// stolen past long heads that WaitFast holds for the fast tier (steals),
// a cut under the defer policy that parks readers until the heal (parks,
// wakes), a crash (a node failure and lineage recompute), and a quota
// below the campaign's width (admission queueing and releases). It
// returns the sampled series in -metrics-out's text and the registry's
// final Prometheus text.
func goldenMeteredRun(t *testing.T) (series, prom []byte) {
	t.Helper()
	const cells, iters, nodes = 8, 4, 4
	specs, stageIn, holders := stencilSpecs(cells, iters, nodes)
	for i := 0; i < 24; i++ {
		out := deps.DataID(1000 + i)
		specs = append(specs, infra.TaskSpec{
			ID: int64(len(specs) + 1), Class: "short", Duration: time.Duration(2+i%5) * time.Second,
			Accesses:    []deps.Access{{Data: out, Dir: deps.Out}},
			OutputBytes: map[deps.DataID]int64{out: 100_000},
		})
	}
	pool := resources.NewPool()
	for i := 0; i < nodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("s%03d", i), resources.Description{
			Cores: 2, MemoryMB: 32_000, Class: resources.Cloud, SpeedFactor: 1,
		}))
	}
	for i := 0; i < 2; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("f%03d", i), resources.Description{
			Cores: 2, MemoryMB: 4_000, Class: resources.Fog, SpeedFactor: 0.25,
		}))
	}
	script, err := faults.Parse("crash@100s:s001,cut@150s:s000-s002,cut@150s:s000-s003,cut@150s:s000-f000,cut@150s:s000-f001,heal@400s:s000-s002,heal@400s:s000-s003,heal@400s:s000-f000,heal@400s:s000-f001")
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	sim, err := infra.New(infra.Config{
		Pool: pool, Net: simnet.New(simnet.Link{BandwidthMBps: 100, Latency: time.Millisecond}),
		Policy:  sched.WaitFast{Inner: sched.Locality{}, MaxSlowdown: 2, MinWait: 10 * time.Second},
		StageIn: stageIn, StageInNodes: holders, Faults: script,
		Steal:        engine.StealConfig{Mode: engine.StealOnIdle},
		Availability: engine.AvailDefer,
		Admission:    autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 16}),
		Metrics:      reg, SampleEvery: 10 * time.Second,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksFailed == 0 {
		t.Error("the golden run's crash killed no task")
	}
	var s, p bytes.Buffer
	if err := sim.Sampler().WriteText(&s); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	return s.Bytes(), p.Bytes()
}

// TestMeteredRunMatchesGolden pins what a metered run reports: the
// sampled series and the final Prometheus text, byte for byte, against
// the files under testdata/. A change to how a count is kept or read
// must leave both unchanged; rerun with -update only when the counts
// themselves are meant to move, and say why.
func TestMeteredRunMatchesGolden(t *testing.T) {
	series, prom := goldenMeteredRun(t)
	for _, name := range []string{
		"flowgo_avail_parks_total", "flowgo_avail_wakes_total", "flowgo_steal_successes_total",
		"flowgo_transfers_total", "flowgo_admission_queued_total", "flowgo_admission_released_total",
	} {
		if bytes.Contains(prom, []byte("\n"+name+" 0\n")) {
			t.Errorf("the golden run leaves %s at 0", name)
		}
	}
	for name, got := range map[string][]byte{
		"metrics.golden.txt":    series,
		"prometheus.golden.txt": prom,
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
