// Command experiments regenerates every experiment table of EXPERIMENTS.md
// (the reproduction of the paper's quantitative claims). Run with -quick
// for a faster, smaller-scale pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	only := flag.String("only", "", "run a single experiment (e1..e16, a1, a2)")
	flag.Parse()
	if err := run(*quick, *only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(quick bool, only string) error {
	type exp struct {
		id string
		fn func(bool) error
	}
	all := []exp{
		{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6},
		{"e7", e7}, {"e8", e8}, {"e9", e9}, {"e10", e10}, {"e11", e11}, {"e12", e12},
		{"e13", e13}, {"e14", e14}, {"e15", e15}, {"e16", e16},
		{"a1", a1}, {"a2", a2},
	}
	for _, e := range all {
		if only != "" && e.id != only {
			continue
		}
		if err := e.fn(quick); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
	}
	return nil
}

func table(title string, header []string, rows [][]string) {
	fmt.Printf("\n== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	_ = w.Flush()
}

func gwasCfg(quick bool) workloads.GWASConfig {
	cfg := workloads.DefaultGWAS()
	if quick {
		cfg.Chromosomes = 6
		cfg.ImputationsPerChrom = 30
	}
	return cfg
}

func e1(quick bool) error {
	nodes := []int{1, 2, 4, 8, 16, 32, 64, 100}
	if quick {
		nodes = []int{1, 2, 4, 8}
	}
	points, err := experiments.E1Guidance(nodes, gwasCfg(quick))
	if err != nil {
		return err
	}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprint(p.Nodes), fmt.Sprint(p.Cores), p.Makespan.Round(time.Second).String(),
			fmt.Sprintf("%.2f", p.Speedup), fmt.Sprintf("%.2f", p.Eff),
		})
	}
	table("E1 — GUIDANCE scalability (paper: good scalability to 100 nodes / 4800 cores)",
		[]string{"nodes", "cores", "makespan", "speedup", "efficiency"}, rows)
	return nil
}

func e2(quick bool) error {
	res, err := experiments.E2MemoryConstraints(2, gwasCfg(quick))
	if err != nil {
		return err
	}
	table("E2 — variable memory constraints (paper: reduced execution time by 50%)",
		[]string{"mode", "makespan", "reduction"},
		[][]string{
			{"static worst-case", res.StaticMakespan.Round(time.Second).String(), ""},
			{"variable + async", res.VariableMakespan.Round(time.Second).String(),
				fmt.Sprintf("%.0f%%", res.Reduction*100)},
		})
	return nil
}

func e3(quick bool) error {
	cfg := workloads.DefaultNMMB()
	if quick {
		cfg.Cycles = 2
	}
	res, err := experiments.E3NMMBInit(4, cfg)
	if err != nil {
		return err
	}
	table("E3 — NMMB-Monarch init parallelisation (paper: better speed-up from parallelising init scripts)",
		[]string{"driver", "makespan", "speedup"},
		[][]string{
			{"serial init", res.SerialMakespan.Round(time.Second).String(), "1.00"},
			{"task-parallel init", res.ParallelMakespan.Round(time.Second).String(),
				fmt.Sprintf("%.2f", res.Speedup)},
		})
	return nil
}

func e4(quick bool) error {
	shards := 16
	if quick {
		shards = 8
	}
	rows, err := experiments.E4StorageLocality(4, shards, 200,
		[]sched.Policy{sched.Locality{}, sched.EFT{}, sched.FIFO{}})
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Policy, fmt.Sprintf("%.1f GB", float64(r.BytesMoved)/1e9),
			r.Makespan.Round(time.Second).String()})
	}
	table("E4 — storage locality via getLocations (paper: schedule tasks where the data resides)",
		[]string{"policy", "data moved", "makespan"}, out)
	return nil
}

func e5(bool) error {
	res, err := experiments.E5MethodShipping(64, 20)
	if err != nil {
		return err
	}
	table("E5 — dataClay in-store execution (paper: minimizes the number of data transfers)",
		[]string{"access style", "bytes moved"},
		[][]string{
			{"method shipping", fmt.Sprintf("%d", res.ShippedBytes)},
			{"fetch-then-compute", fmt.Sprintf("%d", res.FetchedBytes)},
			{"ratio", fmt.Sprintf("%.0fx", res.Ratio)},
		})
	return nil
}

func e6(quick bool) error {
	tasks := 24
	if quick {
		tasks = 12
	}
	res, err := experiments.E6FogOffload(tasks, 3, 20*time.Millisecond)
	if err != nil {
		return err
	}
	table("E6 — fog-to-cloud offloading over REST agents (Fig. 5/6)",
		[]string{"mode", "wall time", "speedup"},
		[][]string{
			{"1-core fog device alone", res.LocalOnly.Round(time.Millisecond).String(), "1.00"},
			{fmt.Sprintf("offloading to %d peers", res.PeerAgents),
				res.WithPeers.Round(time.Millisecond).String(), fmt.Sprintf("%.2f", res.Speedup)},
		})
	return nil
}

func e7(bool) error {
	rows, err := experiments.E7FailureRecovery(6, 8)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		mode := "without persistence"
		if r.Persistence {
			mode = "with dataClay persistence"
		}
		out = append(out, []string{mode, r.Makespan.Round(time.Second).String(),
			fmt.Sprint(r.TasksFailed), fmt.Sprint(r.TasksReExecuted)})
	}
	table("E7 — fog node failure recovery (paper: retrieve persisted data, resubmit on another node)",
		[]string{"mode", "makespan", "tasks killed", "completed tasks recomputed"}, out)

	// The same drill, live: real goroutines killed mid-flight by a
	// wall-clock fault script, recovered through the shared engine path.
	drill, err := experiments.E7LiveRecoveryDrill(6, 8)
	if err != nil {
		return err
	}
	recovered := "all values correct"
	if !drill.Recovered {
		recovered = "WRONG VALUES"
	}
	table("E7b — live recovery drill (same fault script on the live runtime)",
		[]string{"pipeline", "wall time", "tasks killed", "re-executed", "result"},
		[][]string{{
			fmt.Sprintf("%dx%d", drill.Stages, drill.Width),
			drill.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprint(drill.TasksKilled),
			fmt.Sprint(drill.TasksReExecuted),
			recovered,
		}})
	return nil
}

func e8(quick bool) error {
	runs := 5
	if quick {
		runs = 3
	}
	points, err := experiments.E8MLScheduler(runs, 48)
	if err != nil {
		return err
	}
	var out [][]string
	for _, p := range points {
		out = append(out, []string{fmt.Sprint(p.Run),
			p.FIFOMakespan.Round(time.Second).String(),
			p.MLMakespan.Round(time.Second).String()})
	}
	table("E8 — intelligent runtime learning from previous executions (Sec. VI-C)",
		[]string{"execution #", "fifo makespan", "ml makespan"}, out)
	return nil
}

func e9(bool) error {
	points, err := experiments.E9StoreRecompute([]float64{1, 10, 100, 1000, 10000}, 6, 1000, 5, 3)
	if err != nil {
		return err
	}
	var out [][]string
	for _, p := range points {
		out = append(out, []string{fmt.Sprintf("%.0f", p.StorageMBps),
			p.StoreAll.Round(time.Second).String(),
			p.RecomputeAll.Round(time.Second).String(),
			p.Adaptive.Round(time.Second).String()})
	}
	table("E9 — store vs recompute trade-off (Sec. VI-C data-computing metrics)",
		[]string{"storage MB/s", "store-all", "recompute-all", "adaptive"}, out)
	return nil
}

func e10(bool) error {
	rows, err := experiments.E10EnergyAware(64)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Policy, r.Makespan.Round(time.Second).String(),
			fmt.Sprintf("%.0f J", r.ActiveJ), fmt.Sprintf("%.0f J", r.TotalJ)})
	}
	table("E10 — energy-aware scheduling (Sec. IV: efficient in performance and energy)",
		[]string{"policy", "makespan", "task energy", "total energy (incl. idle)"}, out)
	return nil
}

func e11(quick bool) error {
	burst := 128
	if quick {
		burst = 64
	}
	rows, err := experiments.E11Elasticity(burst)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Mode, r.Makespan.Round(time.Second).String(),
			fmt.Sprintf("%.0f", r.NodeSeconds), fmt.Sprint(r.PeakNodes)})
	}
	table("E11 — cloud elasticity (Sec. VI-A: elasticity in clouds and SLURM clusters)",
		[]string{"mode", "makespan", "node-seconds", "peak nodes"}, out)
	return nil
}

func a1(bool) error {
	rows, err := experiments.A1Renaming(6, 12)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		mode := "renaming on (COMPSs)"
		if !r.Renaming {
			mode = "renaming off"
		}
		out = append(out, []string{mode, fmt.Sprint(r.RAW), fmt.Sprint(r.WAR), fmt.Sprint(r.WAW),
			r.Makespan.Round(time.Second).String()})
	}
	table("A1 — ablation: data-version renaming (DESIGN.md §6)",
		[]string{"mode", "RAW", "WAR", "WAW", "makespan"}, out)
	return nil
}

func a2(bool) error {
	rows, err := experiments.A2Priority(48)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Policy, r.Makespan.Round(time.Second).String()})
	}
	table("A2 — ablation: learned LPT ordering in the ML policy (DESIGN.md §6)",
		[]string{"policy", "makespan (3rd execution)"}, out)
	return nil
}

func e12(bool) error {
	rows, err := experiments.E12AbstractionLevels(400, 100, 50)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Level, fmt.Sprintf("%.0f", r.Value),
			r.Elapsed.Round(time.Microsecond).String(), fmt.Sprintf("%.1fx", r.Overhead)})
	}
	table("E12 — the same computation at four abstraction levels (Sec. V, Fig. 2)",
		[]string{"level", "result", "wall time", "overhead vs plain Go"}, out)
	return nil
}

func e13(quick bool) error {
	nLong, nShort := 5, 400
	if quick {
		nShort = 200
	}
	rows, err := experiments.E13WorkSteal(nLong, nShort)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Mode, r.Makespan.Round(time.Second).String(),
			fmt.Sprint(r.Steals), fmt.Sprintf("%.1f%%", r.Util*100)})
	}
	table("E13 — engine-level work stealing on a skewed continuum workload",
		[]string{"steal mode", "makespan", "tasks stolen", "utilisation"}, out)
	return nil
}

func e14(quick bool) error {
	chrom, imput := 8, 50
	everyNs := []int{5, 25, 100}
	if quick {
		chrom, imput = 4, 20
		everyNs = []int{5, 20}
	}
	var out [][]string
	for _, everyN := range everyNs {
		r, err := experiments.E14CrashRestart(chrom, imput, everyN)
		if err != nil {
			return err
		}
		out = append(out, []string{
			fmt.Sprintf("every:%d", r.EveryN),
			fmt.Sprint(r.Tasks),
			r.CrashAt.Round(time.Second).String(),
			fmt.Sprintf("%d (%d snapshotted)", r.CompletedBeforeCrash, r.SnapshotTasks),
			fmt.Sprint(r.Restored),
			fmt.Sprint(r.RecomputedRestored),
			r.ColdMakespan.Round(time.Second).String(),
			r.ResumedMakespan.Round(time.Second).String(),
		})
	}
	table("E14 — crash-restart durability: engine dies mid-run, resumes from the latest checkpoint",
		[]string{"checkpoint", "tasks", "crash at", "done pre-crash", "restored", "recomputed", "cold makespan", "resumed makespan"}, out)
	return nil
}

func e15(quick bool) error {
	consumers, consumNodes := 16, 4
	if quick {
		consumers = 8
	}
	rows, err := experiments.E15PartitionRecovery(consumers, consumNodes, 40*time.Second)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Policy.String(), r.Makespan.Round(time.Second).String(),
			fmt.Sprint(r.RanMissing), fmt.Sprint(r.Deferred), fmt.Sprint(r.Reexecuted),
			fmt.Sprint(r.Transfers)})
	}
	table("E15a — availability policies under a heal-bounded partition (cut@5s, heal@40s)",
		[]string{"policy", "makespan", "ran-missing", "deferred", "re-executed", "transfers"}, out)

	nMap, nReduce := 18, 4
	if quick {
		nMap = 12
	}
	rr, err := experiments.E15ShrunkPoolRestore(nMap, nReduce)
	if err != nil {
		return err
	}
	table("E15b — placement-aware restore onto a shrunk pool (persist tier re-staging)",
		[]string{"tasks", "snapshotted", "removed node", "restored", "re-staged", "recomputed", "resumed makespan"},
		[][]string{{
			fmt.Sprint(rr.Tasks), fmt.Sprint(rr.Snapshotted), rr.RemovedNode,
			fmt.Sprint(rr.Restored), fmt.Sprint(rr.Restaged),
			fmt.Sprint(rr.RecomputedRestored), rr.ResumedMakespan.Round(time.Second).String(),
		}})
	return nil
}

func e16(bool) error {
	rows, err := experiments.E16AutoscaleCost(250, 1)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Shape, fmt.Sprint(r.Tasks),
			fmt.Sprintf("%.2f", r.Threshold.CostPer1kTasks), fmt.Sprintf("%.2f", r.CostAware.CostPer1kTasks),
			fmt.Sprintf("%.2fx", r.Threshold.CostPer1kTasks/r.CostAware.CostPer1kTasks),
			fmt.Sprintf("%d / %d", r.Threshold.PeakNodes, r.CostAware.PeakNodes)})
	}
	table("E16 — cost-aware vs threshold autoscaling, cost units per 1k tasks (seed 1, same trace both arms)",
		[]string{"shape", "tasks", "threshold", "cost-aware", "cheaper", "peak nodes"}, out)
	return nil
}
