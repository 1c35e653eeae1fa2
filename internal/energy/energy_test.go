package energy

import (
	"math"
	"testing"
	"time"

	"repro/internal/resources"
)

func almostEqual(a, b Joules) bool { return math.Abs(float64(a-b)) < 1e-9 }

func TestTaskEnergy(t *testing.T) {
	d := resources.Description{ActiveWattsPerCore: 5}
	// 4 cores × 5 W × 10 s = 200 J.
	if got := TaskEnergy(d, 4, 10*time.Second); !almostEqual(got, 200) {
		t.Fatalf("TaskEnergy = %v, want 200", got)
	}
}

func TestTaskEnergyDefaultsToOneCore(t *testing.T) {
	d := resources.Description{ActiveWattsPerCore: 5}
	if got := TaskEnergy(d, 0, 10*time.Second); !almostEqual(got, 50) {
		t.Fatalf("TaskEnergy(0 cores) = %v, want 50", got)
	}
}

func TestIdleEnergy(t *testing.T) {
	d := resources.Description{IdleWatts: 100}
	if got := IdleEnergy(d, time.Minute); !almostEqual(got, 6000) {
		t.Fatalf("IdleEnergy = %v, want 6000", got)
	}
}

func TestAccountantAccumulates(t *testing.T) {
	a := NewAccountant()
	d := resources.Description{IdleWatts: 10, ActiveWattsPerCore: 2}
	a.AddTask("n1", d, 1, time.Second)   // 2 J
	a.AddTask("n1", d, 2, time.Second)   // 4 J
	a.AddTask("n2", d, 1, 2*time.Second) // 4 J
	if got := a.ActiveEnergy(); !almostEqual(got, 10) {
		t.Fatalf("ActiveEnergy = %v, want 10", got)
	}
	if got := a.active["n1"]; !almostEqual(got, 6) {
		t.Fatalf("active energy of n1 = %v, want 6", got)
	}
	a.SetSpan("n1", d, 10*time.Second) // 100 J idle
	a.SetSpan("n2", d, 10*time.Second) // 100 J idle
	if got := a.TotalEnergy(); !almostEqual(got, 210) {
		t.Fatalf("TotalEnergy = %v, want 210", got)
	}
}

func TestFogBeatsHPCOnTinyTasks(t *testing.T) {
	// The energy rationale for fog offloading: a fog device runs a tiny
	// task slower but at far lower power.
	hpc := resources.MareNostrumNode
	fog := resources.FogDevice
	base := time.Second
	eHPC := TaskEnergy(hpc, 1, time.Duration(float64(base)/hpc.SpeedFactor))
	eFog := TaskEnergy(fog, 1, time.Duration(float64(base)/fog.SpeedFactor))
	if eFog >= eHPC {
		t.Fatalf("fog task energy %v should undercut HPC %v", eFog, eHPC)
	}
}
