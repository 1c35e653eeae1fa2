package sched

import (
	"strings"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/mlpredict"
	"repro/internal/resources"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

func nodes(descs ...resources.Description) []*resources.Node {
	out := make([]*resources.Node, len(descs))
	for i, d := range descs {
		out[i] = resources.NewNode(string(rune('a'+i)), d)
	}
	return out
}

func TestFIFOPicksFirst(t *testing.T) {
	ns := nodes(resources.CloudVM, resources.CloudVM)
	got := FIFO{}.Pick(&TaskView{}, ns, nil)
	if got != ns[0] {
		t.Fatal("FIFO should pick the first fitting node")
	}
}

func TestMinLoadBalances(t *testing.T) {
	ns := nodes(resources.CloudVM, resources.CloudVM)
	if err := ns[0].Reserve(resources.Constraints{Cores: 4}); err != nil {
		t.Fatal(err)
	}
	got := MinLoad{}.Pick(&TaskView{}, ns, nil)
	if got != ns[1] {
		t.Fatal("MinLoad should avoid the loaded node")
	}
}

func TestLocalityFollowsData(t *testing.T) {
	ns := nodes(resources.CloudVM, resources.CloudVM)
	reg := transfer.NewRegistry()
	k := transfer.Key{Data: deps.DataID(1), Ver: 1}
	reg.SetSize(k, 500e6)
	reg.AddReplica(k, "b")
	ctx := &Context{Registry: reg}
	tv := &TaskView{InputKeys: []transfer.Key{k}}
	got := Locality{}.Pick(tv, ns, ctx)
	if got.Name() != "b" {
		t.Fatalf("Locality picked %s, want b (holds the data)", got.Name())
	}
}

func TestLocalityWithoutRegistryFallsBack(t *testing.T) {
	ns := nodes(resources.CloudVM)
	if got := (Locality{}).Pick(&TaskView{}, ns, nil); got != ns[0] {
		t.Fatal("Locality without registry should act like FIFO")
	}
}

func TestLocalityTieBreaksOnFreeCores(t *testing.T) {
	ns := nodes(resources.CloudVM, resources.CloudVM)
	if err := ns[0].Reserve(resources.Constraints{Cores: 6}); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Registry: transfer.NewRegistry()}
	got := Locality{}.Pick(&TaskView{}, ns, ctx)
	if got != ns[1] {
		t.Fatal("locality tie-break should prefer free cores")
	}
}

func TestEFTPrefersFasterNode(t *testing.T) {
	fast := resources.Description{Cores: 4, MemoryMB: 1000, SpeedFactor: 2.0}
	slow := resources.Description{Cores: 4, MemoryMB: 1000, SpeedFactor: 0.5}
	ns := nodes(slow, fast)
	tv := &TaskView{EstDuration: 10 * time.Second}
	got := EFT{}.Pick(tv, ns, &Context{})
	if got != ns[1] {
		t.Fatal("EFT should pick the faster node")
	}
}

func TestEFTWeighsTransferAgainstSpeed(t *testing.T) {
	// Node "a" is slower but holds the (huge) input; node "b" is faster
	// but would need a long transfer.
	slowLocal := resources.Description{Cores: 4, MemoryMB: 1000, SpeedFactor: 0.9}
	fastRemote := resources.Description{Cores: 4, MemoryMB: 1000, SpeedFactor: 1.0}
	ns := nodes(slowLocal, fastRemote)
	net := simnet.New(simnet.Link{BandwidthMBps: 1, Latency: 0}) // 1 MB/s: terrible
	reg := transfer.NewRegistry()
	k := transfer.Key{Data: 1, Ver: 1}
	reg.SetSize(k, 100e6) // 100 s to move
	reg.AddReplica(k, "a")
	ctx := &Context{Registry: reg, Net: net}
	tv := &TaskView{EstDuration: 10 * time.Second, InputKeys: []transfer.Key{k}}
	got := EFT{}.Pick(tv, ns, ctx)
	if got.Name() != "a" {
		t.Fatal("EFT should keep the task with its data when transfer dominates")
	}
}

func TestMLFallsBackUntilTrained(t *testing.T) {
	fast := resources.Description{Cores: 4, MemoryMB: 1000, SpeedFactor: 2.0}
	slow := resources.Description{Cores: 4, MemoryMB: 1000, SpeedFactor: 0.5}
	ns := nodes(slow, fast)
	pred := mlpredict.NewPredictor(time.Second)
	ctx := &Context{Predictor: pred}
	tv := &TaskView{Class: "sim", InputBytes: 0}

	// Untrained: behaves like MinLoad (both empty ⇒ first node).
	if got := (ML{}).Pick(tv, ns, ctx); got != ns[0] {
		t.Fatal("untrained ML should fall back to MinLoad")
	}
	// Train it: durations observed.
	for i := 0; i < 5; i++ {
		pred.Observe("sim", 0, 20*time.Second)
	}
	if got := (ML{}).Pick(tv, ns, ctx); got != ns[1] {
		t.Fatal("trained ML should pick the faster node")
	}
}

func TestEnergyAwarePrefersLowPowerWithinSlowdown(t *testing.T) {
	hpc := resources.MareNostrumNode // 6 W/core, speed 1.0
	fog := resources.FogDevice       // 1 W/core, speed 0.25 ⇒ 4x slower
	ns := nodes(hpc, fog)
	tv := &TaskView{EstDuration: time.Second}

	// Slowdown cap 5x: fog is admissible and cheaper.
	got := EnergyAware{MaxSlowdown: 5}.Pick(tv, ns, &Context{})
	if got.Desc().Class != resources.Fog {
		t.Fatal("energy policy should pick the fog node within the slowdown cap")
	}

	// Tight cap 2x: fog excluded, falls back to HPC.
	got = EnergyAware{MaxSlowdown: 2}.Pick(tv, ns, &Context{})
	if got.Desc().Class != resources.HPC {
		t.Fatal("energy policy must respect the slowdown cap")
	}
}

func TestByName(t *testing.T) {
	for _, name := range strings.Split(Names, " | ") {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got := p.Name(); got != name {
			t.Errorf("ByName(%q) = %q", name, got)
		}
	}
	for _, name := range []string{"unknown", ""} {
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), Names) {
			t.Errorf("ByName(%q) error = %v, want one listing %q", name, err, Names)
		}
	}
}

func TestMLPriorityIsLPT(t *testing.T) {
	pred := mlpredict.NewPredictor(time.Second)
	ctx := &Context{Predictor: pred}
	long := &TaskView{Class: "long"}
	short := &TaskView{Class: "short"}

	// Untrained: both rank 0 (submission order decides).
	if (ML{}).Priority(long, ctx) != 0 || (ML{}).Priority(short, ctx) != 0 {
		t.Fatal("untrained priority should be 0")
	}
	for i := 0; i < 4; i++ {
		pred.Observe("long", 0, time.Hour)
		pred.Observe("short", 0, time.Second)
	}
	pl := (ML{}).Priority(long, ctx)
	ps := (ML{}).Priority(short, ctx)
	if pl <= ps {
		t.Fatalf("long priority %v not above short %v", pl, ps)
	}
	// Nil context degrades gracefully.
	if (ML{}).Priority(long, nil) != 0 {
		t.Fatal("nil-context priority should be 0")
	}
}
