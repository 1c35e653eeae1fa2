package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workloads"
)

// smallGWAS keeps experiment tests fast.
func smallGWAS() workloads.GWASConfig {
	return workloads.GWASConfig{
		Chromosomes:         6,
		ImputationsPerChrom: 30,
		MeanTaskSeconds:     60,
		LowMemMB:            2000,
		HighMemMB:           16000,
		HighMemFrac:         0.2,
		InputFileMB:         50,
		Seed:                1,
	}
}

// run fails the test on a runner error.
func run(t *testing.T) func(*Table, error) *Table {
	return func(tab *Table, err error) *Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
}

func TestE1SpeedupGrowsWithNodes(t *testing.T) {
	tab := run(t)(e1Guidance([]int{1, 2, 4, 8}, smallGWAS()))
	if len(tab.rows) != 4 {
		t.Fatalf("rows = %d", len(tab.rows))
	}
	if s := tab.at("1", "speedup").vals[0]; s != 1 {
		t.Fatalf("base speedup = %v", s)
	}
	for _, pair := range [][2]string{{"1", "2"}, {"2", "4"}, {"4", "8"}} {
		if tab.at(pair[1], "makespan").vals[0] > tab.at(pair[0], "makespan").vals[0] {
			t.Fatalf("makespan grew from %s to %s nodes: %+v", pair[0], pair[1], tab.rows)
		}
	}
	// "Good scalability": 8 nodes must give a clearly super-2x speedup.
	if s := tab.at("8", "speedup").vals[0]; s < 2 {
		t.Fatalf("8-node speedup = %v, want ≥ 2", s)
	}
}

func TestE2VariableMemoryWins(t *testing.T) {
	tab := run(t)(e2MemoryConstraints(2, smallGWAS()))
	// The paper reports ≈50% reduction; the shape requirement is a
	// substantial (>25%) improvement.
	if r := tab.at("variable + async", "reduction").vals[0]; r < 25 {
		t.Fatalf("memory-constraint reduction = %.0f%% (static %s, variable %s), want > 25%%", r,
			tab.at("static worst-case", "makespan").text, tab.at("variable + async", "makespan").text)
	}
}

func TestE3ParallelInitWins(t *testing.T) {
	cfg := workloads.DefaultNMMB()
	cfg.Cycles = 2
	tab := run(t)(e3NMMBInit(4, cfg))
	if s := tab.at("task-parallel init", "speedup").vals[0]; s <= 1.0 {
		t.Fatalf("NMMB speedup = %v, want > 1", s)
	}
}

func TestE4LocalityMovesLessData(t *testing.T) {
	tab := run(t)(e4StorageLocality(4, 8, 200, []sched.Policy{sched.Locality{}, sched.FIFO{}}))
	if moved := tab.at("locality", "data moved").vals[0]; moved != 0 {
		t.Fatalf("locality moved %v GB, want 0", moved)
	}
	if tab.at("fifo", "data moved").vals[0] == 0 {
		t.Fatal("fifo moved no data: experiment setup broken")
	}
	if loc, fifo := tab.at("locality", "makespan"), tab.at("fifo", "makespan"); loc.vals[0] > fifo.vals[0] {
		t.Fatalf("locality makespan %s worse than fifo %s", loc.text, fifo.text)
	}
}

func TestE5MethodShippingSavesTransfers(t *testing.T) {
	tab := run(t)(e5MethodShipping(10, 8e6, 16))
	big, small := tab.at("8000000 B", "ratio"), tab.at("16 B", "ratio")
	if r := big.vals[0]; r < 100 {
		t.Fatalf("fetch/shipping ratio at 8 MB = %.1f, want ≥ 100 (shipped=%s fetched=%s)", r,
			tab.at("8000000 B", "method shipping").text, tab.at("8000000 B", "fetch-then-compute").text)
	}
	// An object no larger than its result: shipping the method moves the
	// results instead, so fetching the object must move no more.
	if r := small.vals[0]; r > 1 {
		t.Fatalf("fetch/shipping ratio at 16 B = %.2f, want ≤ 1 (shipped=%s fetched=%s)", r,
			tab.at("16 B", "method shipping").text, tab.at("16 B", "fetch-then-compute").text)
	}
}

func TestE6OffloadingBeatsLocalOnly(t *testing.T) {
	tab := run(t)(e6FogOffload(12, 3, 20*time.Millisecond))
	if s := tab.at("offloading to 3 peers", "speedup").vals[0]; s <= 1.0 {
		t.Fatalf("offload speedup = %.2f (local %s, peers %s)", s,
			tab.at("1-core fog device alone", "wall time").text, tab.at("offloading to 3 peers", "wall time").text)
	}
}

func TestE7LiveDrillRecovers(t *testing.T) {
	tab := run(t)(e7LiveRecoveryDrill(4, 6))
	if r := tab.at("4x6", "result").text; r != "all values correct" {
		t.Fatalf("live drill after the crash: %s", r)
	}
	// Kill counts depend on wall-clock timing; the invariant is that the
	// workload completes correctly whatever the script managed to hit.
	t.Logf("drill: killed %s, re-executed %s in %s", tab.at("4x6", "tasks killed").text,
		tab.at("4x6", "re-executed").text, tab.at("4x6", "wall time").text)
}

func TestE7PersistenceCheapensRecovery(t *testing.T) {
	tab := run(t)(e7FailureRecovery(6, 8))
	const with, without = "with dataClay persistence", "without persistence"
	if tab.at(with, "tasks killed").vals[0] == 0 {
		t.Fatal("failure injection did not kill any task")
	}
	if n := tab.at(with, "completed tasks recomputed").vals[0]; n != 0 {
		t.Fatalf("persistence run re-executed %v completed tasks, want 0", n)
	}
	if tab.at(without, "completed tasks recomputed").vals[0] == 0 {
		t.Fatal("no-persistence run should recompute lost outputs")
	}
	if w, wo := tab.at(with, "makespan"), tab.at(without, "makespan"); wo.vals[0] <= w.vals[0] {
		t.Fatalf("no-persistence makespan %s should exceed persistence %s", wo.text, w.text)
	}
}

func TestE8MLImprovesWithHistory(t *testing.T) {
	tab := run(t)(e8MLScheduler(4, 48))
	if ml, fifo := tab.at("4", "ml makespan"), tab.at("4", "fifo makespan"); ml.vals[0] >= fifo.vals[0] {
		t.Fatalf("trained ML makespan %s not better than FIFO %s", ml.text, fifo.text)
	}
}

func TestE9CrossoverExists(t *testing.T) {
	bandwidths := []float64{1, 10, 100, 1000, 10000}
	tab := run(t)(e9StoreRecompute(bandwidths, 6, 1000, 5, 3))
	// At terrible bandwidth recompute wins; at great bandwidth store wins.
	if store, re := tab.at("1", "store-all"), tab.at("1", "recompute-all"); re.vals[0] >= store.vals[0] {
		t.Fatalf("at 1 MB/s recompute %s should beat store %s", re.text, store.text)
	}
	if store, re := tab.at("10000", "store-all"), tab.at("10000", "recompute-all"); store.vals[0] >= re.vals[0] {
		t.Fatalf("at 10000 MB/s store %s should beat recompute %s", store.text, re.text)
	}
	// Adaptive tracks the winner everywhere (1% slack).
	for _, bw := range bandwidths {
		row := fmt.Sprintf("%.0f", bw)
		best := min(tab.at(row, "store-all").vals[0], tab.at(row, "recompute-all").vals[0])
		if a := tab.at(row, "adaptive"); a.vals[0] > 1.01*best {
			t.Fatalf("adaptive %s worse than best %v at %s MB/s", a.text, time.Duration(best), row)
		}
	}
}

// TestE9AdaptiveStoresPartOfTheChain pins a bandwidth where Adaptive writes
// some intermediates and recomputes others, so that it beats both extremes
// rather than matching one of them as it does on every published row.
func TestE9AdaptiveStoresPartOfTheChain(t *testing.T) {
	tab := run(t)(e9StoreRecompute([]float64{20}, 6, 1000, 5, 3))
	for col, want := range map[string]string{"store-all": "7m30s", "recompute-all": "4m0s", "adaptive": "3m50s"} {
		if got := tab.at("20", col).text; got != want {
			t.Errorf("%s at 20 MB/s = %s, want %s", col, got, want)
		}
	}
	a := tab.at("20", "adaptive").vals[0]
	if best := min(tab.at("20", "store-all").vals[0], tab.at("20", "recompute-all").vals[0]); a >= best {
		t.Fatalf("adaptive %v not below both extremes (best %v)", time.Duration(a), time.Duration(best))
	}
}

func TestE10EnergyPolicySavesEnergy(t *testing.T) {
	tab := run(t)(e10EnergyAware(64))
	if energy, perf := tab.at("energy", "task energy"), tab.at("eft", "task energy"); energy.vals[0] >= perf.vals[0] {
		t.Fatalf("energy policy used %s active vs perf %s", energy.text, perf.text)
	}
	// The trade must respect the slowdown cap (5x).
	if energy, perf := tab.at("energy", "makespan"), tab.at("eft", "makespan"); energy.vals[0] > 5*perf.vals[0] {
		t.Fatalf("energy makespan %s blew past the 5x cap of %s", energy.text, perf.text)
	}
}

func TestE11ElasticUsesFewerNodeSeconds(t *testing.T) {
	tab := run(t)(e11Elasticity(128))
	if el, fixed := tab.at("elastic", "node-seconds"), tab.at("fixed-8", "node-seconds"); el.vals[0] >= fixed.vals[0] {
		t.Fatalf("elastic node-seconds %s not below fixed %s", el.text, fixed.text)
	}
	if peak := tab.at("elastic", "peak nodes").vals[0]; peak > 8 {
		t.Fatalf("elastic peak %v exceeds the tier's Max", peak)
	}
	// Pinned to the figures the pre-host elastic loop produced: the
	// threshold planner behind the shared autoscale step must reproduce
	// them exactly.
	got := [3]float64{tab.at("elastic", "makespan").vals[0], tab.at("elastic", "node-seconds").vals[0],
		tab.at("elastic", "peak nodes").vals[0]}
	if want := [3]float64{float64(22*time.Minute + 52500*time.Millisecond), 3330, 8}; got != want {
		t.Fatalf("elastic row (makespan ns, node-seconds, peak) = %v, want %v", got, want)
	}
}

func TestE12AllLevelsAgree(t *testing.T) {
	tab := run(t)(e12AbstractionLevels(200, 50, 25))
	if len(tab.rows) != 4 {
		t.Fatalf("rows = %d", len(tab.rows))
	}
	hla := tab.at("HLA (dislib)", "result")
	for _, level := range []string{"patterns (map+reduce-tree)", "general purpose (compss)", "runtime API (core)"} {
		if v := tab.at(level, "result"); v.vals[0] != hla.vals[0] {
			t.Fatalf("levels disagree: %s computed %s, HLA %s", level, v.text, hla.text)
		}
	}
}

func TestE13StealingImprovesSkewedRun(t *testing.T) {
	tab := run(t)(e13WorkSteal(5, 200))
	if off, on := tab.at("off", "tasks stolen").vals[0], tab.at("on-idle", "tasks stolen").vals[0]; off != 0 || on == 0 {
		t.Fatalf("steal counts off/on = %v/%v, want 0/>0", off, on)
	}
	if on, off := tab.at("on-idle", "makespan"), tab.at("off", "makespan"); on.vals[0] > off.vals[0] {
		t.Fatalf("stealing-on makespan %s worse than off %s", on.text, off.text)
	}
	if on, off := tab.at("on-idle", "utilisation"), tab.at("off", "utilisation"); on.vals[0] <= off.vals[0] {
		t.Fatalf("stealing-on utilisation %s not above off %s", on.text, off.text)
	}
}

// A rig whose groups name a node alike panics instead of running the
// experiment on a pool one node short.
func TestRigRefusesDuplicateNodeNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rig accepted two groups naming the same nodes")
		}
	}()
	rig(sched.MinLoad{}, mareNostrum(2), mareNostrum(1))
}
