package integration_test

// Tests of the control plane both backends embed (internal/host), seen
// through the backends' own APIs, plus the option-count ratchet.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// TestConfigBudget is the knob ratchet: every Config field is an option
// the parity and benchmark matrices must cover, so adding one has to
// raise the number here, in the diff that adds it, where a reviewer sees
// it. `make budget` prints the same figures.
func TestConfigBudget(t *testing.T) {
	for _, b := range []struct {
		name string
		cfg  any
		max  int
	}{
		{"infra.Config", infra.Config{}, 20},
		{"core.Config", core.Config{}, 14},
		{"engine.Config", engine.Config{}, 12},
		{"agent.Config", agent.Config{}, 8},
		{"checkpoint.Config", checkpoint.Config{}, 5},
	} {
		if n := reflect.TypeOf(b.cfg).NumField(); n > b.max {
			t.Errorf("%s has %d fields, budget %d: a new option must raise its budget explicitly", b.name, n, b.max)
		} else {
			t.Logf("%s: %d fields (budget %d)", b.name, n, b.max)
		}
	}
}

// TestUnconfiguredEntryPoints: the exported control-plane entry points
// behave identically on both backends when the feature behind them was
// never configured — AutoscaleStep holds (it used to dereference a nil
// autoscaler) and Checkpoint returns the one shared sentinel.
func TestUnconfiguredEntryPoints(t *testing.T) {
	pool := func() *resources.Pool {
		p := resources.NewPool()
		_ = p.Add(resources.NewNode("n0", resources.Description{Cores: 1, MemoryMB: 1000, SpeedFactor: 1}))
		return p
	}
	sim, err := infra.New(infra.Config{
		Pool: pool(), Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Policy: sched.FIFO{},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{Pool: pool()})
	defer rt.Shutdown()

	for _, b := range []struct {
		name       string
		step       func() autoscale.Action
		checkpoint func() error
		sentinel   error
	}{
		{"sim", sim.AutoscaleStep, sim.Checkpoint, infra.ErrNoCheckpoint},
		{"live", rt.AutoscaleStep, rt.Checkpoint, core.ErrNoCheckpoint},
	} {
		if act := b.step(); act.Kind != autoscale.Held || act.Node != nil {
			t.Errorf("%s: AutoscaleStep without an autoscaler = %+v, want a hold", b.name, act)
		}
		if err := b.checkpoint(); !errors.Is(err, b.sentinel) {
			t.Errorf("%s: Checkpoint without a store = %v, want %v", b.name, err, b.sentinel)
		}
	}
	if !errors.Is(infra.ErrNoCheckpoint, core.ErrNoCheckpoint) {
		t.Error("the two backends expose different no-checkpoint sentinels")
	}
}

// TestMetricsReachAutoscalerAndAdmission: Config.Metrics is the one
// switch for a backend's instruments, so the autoscaler's decision
// counter and the admission controller's families land on the registry
// on both backends without a hand-wired SetMetrics.
func TestMetricsReachAutoscalerAndAdmission(t *testing.T) {
	tier := autoscale.Tier{Name: "vm", Desc: resources.Description{Cores: 2, MemoryMB: 4000, SpeedFactor: 1}, Max: 1}
	parts := func() (*obsv.Registry, *autoscale.Autoscaler, *autoscale.Admission) {
		scaler, err := autoscale.NewThreshold(tier, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return obsv.NewRegistry(), scaler, autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1})
	}
	simReg, simScaler, simAdm := parts()
	sim, err := infra.New(infra.Config{
		Pool: resources.NewPool(), Net: simnet.New(simnet.Link{BandwidthMBps: 1000}), Policy: sched.FIFO{},
		Metrics: simReg, Autoscale: simScaler, Admission: simAdm,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveReg, liveScaler, liveAdm := parts()
	rt := core.New(core.Config{Pool: resources.NewPool(), Metrics: liveReg, Autoscale: liveScaler, Admission: liveAdm})
	defer rt.Shutdown()

	for _, b := range []struct {
		name string
		reg  *obsv.Registry
		step func() autoscale.Action
	}{
		{"sim", simReg, sim.AutoscaleStep},
		{"live", liveReg, rt.AutoscaleStep},
	} {
		if act := b.step(); act.Kind != autoscale.Held {
			t.Fatalf("%s: step on an idle, empty pool = %+v, want a hold", b.name, act)
		}
		samples := map[string]float64{}
		b.reg.Visit(func(s string, v float64) { samples[s] = v })
		if got := samples[`flowgo_autoscale_decisions_total{kind="hold"}`]; got != 1 {
			t.Errorf("%s: hold decisions = %v, want 1", b.name, got)
		}
		if _, ok := samples["flowgo_admission_admitted_total"]; !ok {
			t.Errorf("%s: no admission family on the registry", b.name)
		}
	}
}
