package integration_test

// Tests of the control plane both backends embed (internal/host), seen
// through the backends' own APIs, plus the option-count ratchet.

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/engine"
	"repro/internal/engine/checkpoint"
	"repro/internal/engine/faults"
	"repro/internal/host"
	"repro/internal/infra"
	"repro/internal/obsv"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestConfigBudget is the knob ratchet: every Config field is an option
// the parity and benchmark matrices must cover, so adding one has to
// raise the number here, in the diff that adds it, where a reviewer sees
// it. Both backends take the one host.Config, so a knob is declared once;
// host.Backend is the backend seam, engine.Config what the host hands the
// engine, and the three together stay within their sum. `make budget`
// prints the same figures.
func TestConfigBudget(t *testing.T) {
	one := reflect.TypeOf(host.Config{})
	for name, cfg := range map[string]any{"infra.Config": infra.Config{}, "core.Config": core.Config{}} {
		if reflect.TypeOf(cfg) != one {
			t.Errorf("%s is not host.Config: both backends take the one option set", name)
		}
	}
	const sumMax = 40
	sum := 0
	for i, b := range []struct {
		name string
		cfg  any
		max  int
	}{
		{"host.Config", host.Config{}, 22},
		{"host.Backend", host.Backend{}, 5},
		{"engine.Config", engine.Config{}, 12},
		{"agent.Config", agent.Config{}, 8},
		{"checkpoint.Config", checkpoint.Config{}, 4},
	} {
		n := reflect.TypeOf(b.cfg).NumField()
		if i < 3 {
			sum += n
		}
		if n > b.max {
			t.Errorf("%s has %d fields, budget %d: a new option must raise its budget explicitly", b.name, n, b.max)
		} else {
			t.Logf("%s: %d fields (budget %d)", b.name, n, b.max)
		}
	}
	if sum > sumMax {
		t.Errorf("host.Config + host.Backend + engine.Config declare %d fields, budget %d", sum, sumMax)
	} else {
		t.Logf("host.Config + host.Backend + engine.Config: %d fields (budget %d)", sum, sumMax)
	}
}

// configKnobs classifies every host.Config field. A field without probe
// is honoured by both backends; one with a probe is honoured only by
// the backend named in only, and the other must refuse the probe value.
var configKnobs = map[string]struct {
	only  string // "sim" or "live"; empty for both
	probe any
}{
	"Pool": {}, "Net": {}, "Policy": {}, "Predictor": {}, "Tracer": {}, "Locations": {},
	"Steal": {}, "Availability": {}, "Checkpoint": {}, "Restore": {}, "Metrics": {},
	"Autoscale": {}, "Admission": {},
	"StageIn":         {"sim", map[deps.DataID]int64{1: 1e6}},
	"StageInNodes":    {"sim", map[deps.DataID][]string{1: {"n0"}}},
	"PersistNode":     {"sim", "n0"},
	"DisableRenaming": {"sim", true},
	"Faults":          {"sim", faults.Scenario{{At: time.Second, Kind: faults.Crash, Node: "n0"}}},
	"HaltAt":          {"sim", time.Second},
	"ElasticEvery":    {"sim", time.Second},
	"SampleEvery":     {"sim", time.Second},
	"Provenance":      {"live", trace.NewProvenance()},
}

// TestEveryConfigFieldIsClassified: no knob is silently ignored by one
// backend. Every host.Config field has an entry in configKnobs, every
// entry names a field, and a one-backend field set on the other backend
// is refused — infra.New with ErrConfig, core.New with a panic.
func TestEveryConfigFieldIsClassified(t *testing.T) {
	typ := reflect.TypeOf(host.Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := configKnobs[typ.Field(i).Name]; !ok {
			t.Errorf("host.Config.%s is not classified in configKnobs: say which backends honour it", typ.Field(i).Name)
		}
	}
	for name, k := range configKnobs {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Errorf("configKnobs names %s, which host.Config no longer has", name)
			continue
		}
		if k.only == "" {
			continue
		}
		var cfg host.Config
		reflect.ValueOf(&cfg).Elem().FieldByIndex(f.Index).Set(reflect.ValueOf(k.probe))
		switch k.only {
		case "sim":
			if !refusedLive(cfg) {
				t.Errorf("core.New accepted %s, which only the simulator honours", name)
			}
		case "live":
			cfg.Pool, cfg.Net, cfg.Policy = resources.NewPool(), simnet.New(simnet.Link{BandwidthMBps: 1000}), sched.FIFO{}
			if _, err := infra.New(cfg, nil); !errors.Is(err, infra.ErrConfig) {
				t.Errorf("infra.New with %s, which only the live runtime honours = %v, want ErrConfig", name, err)
			}
		default:
			t.Errorf("%s: unknown backend %q", name, k.only)
		}
	}
}

// refusedLive reports whether core.New panics on cfg.
func refusedLive(cfg core.Config) (refused bool) {
	defer func() { refused = recover() != nil }()
	core.New(cfg).Shutdown()
	return false
}

// TestUnconfiguredEntryPoints: the exported control-plane entry points
// behave identically on both backends when the feature behind them was
// never configured — AutoscaleStep holds (it used to dereference a nil
// autoscaler) and FlushCheckpoints has no failure to report.
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
		name  string
		step  func() autoscale.Action
		flush func() error
	}{
		{"sim", sim.AutoscaleStep, sim.FlushCheckpoints},
		{"live", rt.AutoscaleStep, rt.FlushCheckpoints},
	} {
		if act := b.step(); act.Kind != autoscale.Held || act.Node != nil {
			t.Errorf("%s: AutoscaleStep without an autoscaler = %+v, want a hold", b.name, act)
		}
		if err := b.flush(); err != nil {
			t.Errorf("%s: FlushCheckpoints without a store = %v, want nil", b.name, err)
		}
	}
}

// TestMetricsReachAutoscalerAndAdmission: Config.Metrics is the one
// switch for a backend's instruments, so the autoscaler's decision
// counter and the admission controller's families land on the registry
// on both backends without a hand-wired Expose.
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
